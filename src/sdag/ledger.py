"""Deterministic DAG-to-ledger transformation.

Level sets along the main chain are ordered low to high; within a level set
blocks are ordered by post-order DFS (own-chain reference first, then the
cross-chain tip reference).  Folding the resulting transaction sequence
through the UTXO recurrence yields a ledger every peer with the same DAG
agrees on byte for byte.

Rewards follow a six-row table keyed on block kind (regular+ vs main-chain
milestone), peer-chain status, and transaction validity; forked peer-chain
branches earn nothing.  Accumulated rewards are claimed through a chain of
redemption transactions anchored at a registration, each signed with the
key of the previously declared address.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import (
    GENESIS_ID,
    Block,
    Params,
    Transaction,
    TxKind,
    sighash,
    sha256,
)
from .dag import SDag
from .sigs import DEFAULT_SCHEME, SignatureScheme

WITNESS_PUB_BYTES = 32
WITNESS_SIG_BYTES = 64


class BlockKind(Enum):
    REGULAR_PLUS = "regular+"
    MAIN_MILESTONE = "milestone"


class ChainStatus(Enum):
    ON_PEER_CHAIN = "on-peer-chain"
    FORKED = "forked"


class TxValidity(Enum):
    VALID = "valid"
    INVALID = "invalid"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class RewardRecord:
    block_id: bytes
    kind: BlockKind
    status: ChainStatus
    validity: TxValidity
    fee: int
    level_index: int
    amount: int


@dataclass
class PeerChainView:
    """One miner's canonical peer chain as determined by redemption
    signature continuity; everything off it is forked and earns nothing."""

    miner: bytes
    blocks: list[bytes]
    registered: bool
    current_address: Optional[bytes]
    forked: set[bytes]


class RedemptionError(ValueError):
    pass


class BadSignature(RedemptionError):
    pass


class WrongAmount(RedemptionError):
    def __init__(self, expected: int, claimed: int):
        super().__init__(f"claimed {claimed}, accrued {expected}")
        self.expected = expected
        self.claimed = claimed


def block_reward(
    kind: BlockKind,
    status: ChainStatus,
    validity: TxValidity,
    fee: int,
    lev_size: int,
    params: Params,
) -> int:
    """Exact reward amount for one block per the reward table."""
    if status is ChainStatus.FORKED:
        return 0
    fee_part = fee if validity is TxValidity.VALID else 0
    if kind is BlockKind.REGULAR_PLUS:
        return params.r_n + fee_part
    bonus = int(params.delta * params.r_n * max(lev_size - 1, 0))
    return params.r_m + fee_part + bonus


# -- ordering ------------------------------------------------------------


def dfs_order(sdag: SDag, ms: bytes) -> list[bytes]:
    """Post-order DFS of one level set rooted at its milestone.

    Children are visited own-chain reference first, then the tip reference;
    an in-set milestone reference (a confirmed fork) is traversed last so
    the output is always a permutation of the level set.  Peer-chain
    chronology is preserved: a miner's earlier block precedes his later one.
    """
    members = set(sdag.level_set(ms))
    visited: set[bytes] = set()
    order: list[bytes] = []

    def children(bid: bytes) -> list[bytes]:
        b = sdag.blocks[bid]
        out = []
        for ref in (b.idp, b.idt, b.idm):
            if ref in members and ref not in visited and ref not in out:
                out.append(ref)
        return out

    stack: list[tuple[bytes, list[bytes]]] = [(ms, children(ms))]
    visited.add(ms)
    while stack:
        bid, kids = stack[-1]
        pending = [k for k in kids if k not in visited]
        if pending:
            child = pending[0]
            visited.add(child)
            stack.append((child, children(child)))
        else:
            order.append(bid)
            stack.pop()
    return order


class OrderedBlock(NamedTuple):
    block_id: bytes
    level_index: int


def iter_ordered_blocks(sdag: SDag) -> list[OrderedBlock]:
    """All confirmed non-genesis blocks in canonical ledger order."""
    out: list[OrderedBlock] = []
    for k, ms in enumerate(sdag.main_chain):
        if k == 0:
            continue
        for bid in dfs_order(sdag, ms):
            out.append(OrderedBlock(bid, k))
    return out


# -- peer chains ---------------------------------------------------------


def _witness_parts(witness: bytes) -> Optional[tuple[bytes, bytes]]:
    if len(witness) != WITNESS_PUB_BYTES + WITNESS_SIG_BYTES:
        return None
    return witness[:WITNESS_PUB_BYTES], witness[WITNESS_PUB_BYTES:]


def _redemption_sig_ok(tx: Transaction, address: Optional[bytes], scheme: SignatureScheme) -> bool:
    if address is None or not tx.inputs:
        return False
    parts = _witness_parts(tx.inputs[0].witness)
    if parts is None:
        return False
    public, sig = parts
    if scheme.address(public) != address:
        return False
    return scheme.verify(public, sighash(tx), sig)


def _walk_claims(
    sdag: SDag, path: Sequence[bytes], scheme: SignatureScheme
) -> tuple[int, int, Optional[bytes], bool]:
    """Follow registration/redemption continuity along a chain path.

    Returns (valid claim count, position after last valid claim, current
    payout address, registered flag)."""
    address: Optional[bytes] = None
    registered = False
    claims = 0
    covered = 0
    for pos, bid in enumerate(path):
        tx = sdag.blocks[bid].mes
        if tx.kind is TxKind.REGISTRATION and not registered and pos == 0:
            address = tx.next_address
            registered = True
        elif tx.kind is TxKind.REDEMPTION:
            if registered and _redemption_sig_ok(tx, address, scheme):
                address = tx.next_address
                claims += 1
                covered = pos
    return claims, covered, address, registered


def resolve_peer_chain(
    sdag: SDag, miner: bytes, scheme: SignatureScheme = DEFAULT_SCHEME
) -> PeerChainView:
    """Pick the canonical chain among the branches of a miner's own-chain
    tree.  Branches are scored by valid redemption continuity (count, then
    coverage, then length, then smallest leaf id); everything else is
    forked and earns nothing."""
    mine = [bid for bid, b in sdag.blocks.items() if b.peer == miner and bid != GENESIS_ID]
    kids: dict[bytes, list[bytes]] = {}
    roots = []
    mine_set = set(mine)
    for bid in mine:
        parent = sdag.blocks[bid].idp
        if parent == GENESIS_ID or parent not in mine_set:
            roots.append(bid)
        else:
            kids.setdefault(parent, []).append(bid)

    # root-to-leaf paths in depth-first order, with an explicit stack so a
    # long own chain cannot exhaust the interpreter's recursion limit
    paths: list[list[bytes]] = []
    stack = [[root] for root in sorted(roots, reverse=True)]
    while stack:
        path = stack.pop()
        nxt = kids.get(path[-1])
        if not nxt:
            paths.append(path)
            continue
        for child in sorted(nxt, reverse=True):
            stack.append(path + [child])

    if not paths:
        return PeerChainView(miner, [], False, None, set())

    best = None
    best_score = None
    best_walk = None
    for path in paths:
        walk = _walk_claims(sdag, path, scheme)
        claims, covered, _, registered = walk
        # larger is better except the leaf id, where smaller wins
        key = (
            1 if registered else 0,
            claims,
            covered,
            len(path),
            bytes(255 - b for b in path[-1]),
        )
        if best_score is None or key > best_score:
            best_score = key
            best = path
            best_walk = walk
    assert best is not None and best_walk is not None
    forked = mine_set - set(best)
    _, _, address, registered = best_walk
    return PeerChainView(miner, best, registered, address, forked)


# -- ledger construction -------------------------------------------------


class Outpoint(NamedTuple):
    txid: bytes
    index: int


@dataclass(slots=True)
class LedgerEntry:
    txid: bytes
    block_id: bytes
    level_index: int
    position: int
    accepted: bool
    reason: str = ""


@dataclass
class Ledger:
    entries: list[LedgerEntry] = field(default_factory=list)
    utxo: dict[Outpoint, tuple[int, bytes]] = field(default_factory=dict)
    accepted_ids: set[bytes] = field(default_factory=set)

    def utxo_digest(self) -> bytes:
        """Hash of the sorted outpoint list, for cross-peer comparison."""
        h = hashlib.sha256()
        for op in sorted(self.utxo):
            value, address = self.utxo[op]
            h.update(op.txid)
            h.update(op.index.to_bytes(4, "big"))
            h.update(value.to_bytes(8, "big"))
            h.update(address)
        return h.digest()


@dataclass
class LedgerBuild:
    """Full result of one DAG-to-ledger pass."""

    ledger: Ledger
    rewards: dict[bytes, RewardRecord]
    peer_views: dict[bytes, PeerChainView]
    finalized_levels: int


def genesis_outpoint(index: int) -> Outpoint:
    return Outpoint(GENESIS_ID, index)


def _verify_normal(tx: Transaction, ledger: Ledger, scheme: SignatureScheme) -> tuple[bool, int, str]:
    spent: set[Outpoint] = set()
    total_in = 0
    digest = sighash(tx)
    for inp in tx.inputs:
        op = Outpoint(inp.txid, inp.index)
        if op in spent or op not in ledger.utxo:
            return False, 0, "input not in utxo"
        parts = _witness_parts(inp.witness)
        if parts is None:
            return False, 0, "malformed witness"
        public, sig = parts
        value, address = ledger.utxo[op]
        if scheme.address(public) != address or not scheme.verify(public, digest, sig):
            return False, 0, "bad signature"
        spent.add(op)
        total_in += value
    total_out = sum(out.value for out in tx.outputs)
    if total_out > total_in:
        return False, 0, "outputs exceed inputs"
    return True, total_in - total_out, ""


def build_ledger(
    ordered: Iterable[tuple[Transaction, OrderedBlock]],
    genesis_outputs: Sequence[tuple[int, bytes]] = (),
    scheme: SignatureScheme = DEFAULT_SCHEME,
    redemption_check=None,
    into: Optional[Ledger] = None,
) -> Ledger:
    """Fold an ordered transaction sequence through the UTXO recurrence.

    First-seen wins among conflicting spends; rejected transactions leave
    the state untouched.  `redemption_check(tx, block_id, ledger)` returns
    the payout address for a valid redemption or raises RedemptionError.
    Pass `into` to extend an existing ledger incrementally.
    """
    if into is None:
        ledger = Ledger()
        for i, (value, address) in enumerate(genesis_outputs):
            ledger.utxo[genesis_outpoint(i)] = (value, address)
    else:
        ledger = into
    for position, (tx, ob) in enumerate(ordered, start=len(ledger.entries)):
        txid = tx.txid()
        if txid in ledger.accepted_ids:
            ledger.entries.append(
                LedgerEntry(txid, ob.block_id, ob.level_index, position, False, "duplicate")
            )
            continue
        accepted = False
        reason = ""
        if tx.kind is TxKind.NORMAL:
            accepted, _fee, reason = _verify_normal(tx, ledger, scheme)
            if accepted:
                for inp in tx.inputs:
                    del ledger.utxo[Outpoint(inp.txid, inp.index)]
                for j, out in enumerate(tx.outputs):
                    ledger.utxo[Outpoint(txid, j)] = (out.value, out.address)
        elif tx.kind is TxKind.REGISTRATION:
            accepted = True
        elif tx.kind is TxKind.REDEMPTION:
            if redemption_check is None:
                reason = "no redemption context"
            else:
                try:
                    payout = redemption_check(tx, ob.block_id, ledger)
                    ledger.utxo[Outpoint(txid, 0)] = (tx.reward_claim or 0, payout)
                    accepted = True
                except RedemptionError as exc:
                    reason = str(exc)
        if accepted:
            ledger.accepted_ids.add(txid)
        ledger.entries.append(
            LedgerEntry(txid, ob.block_id, ob.level_index, position, accepted, reason)
        )
    return ledger


def build_from_dag(
    sdag: SDag,
    params: Params,
    genesis_outputs: Sequence[tuple[int, bytes]] = (),
    scheme: SignatureScheme = DEFAULT_SCHEME,
    finality_depth: int = 0,
) -> LedgerBuild:
    """One deterministic pass: order blocks, fold the ledger, and compute
    reward records for every block whose level set is at least
    `finality_depth` milestones below the tip."""
    ordered_blocks = iter_ordered_blocks(sdag)
    final_levels = max(len(sdag.main_chain) - finality_depth, 1)
    lev_sizes = {k: len(lev) for k, lev in enumerate(sdag.level_sets())}
    miners = {sdag.blocks[ob.block_id].peer for ob in ordered_blocks}
    views = {m: resolve_peer_chain(sdag, m, scheme) for m in miners}
    on_chain: dict[bytes, bytes] = {}
    for view in views.values():
        for bid in view.blocks:
            on_chain[bid] = view.miner

    rewards: dict[bytes, RewardRecord] = {}
    chain_positions = {
        m: {bid: i for i, bid in enumerate(v.blocks)} for m, v in views.items()
    }

    def redemption_check(tx: Transaction, block_id: bytes, ledger: Ledger) -> bytes:
        miner = sdag.blocks[block_id].peer
        view = views[miner]
        pos = chain_positions[miner].get(block_id)
        if pos is None:
            raise RedemptionError("redemption off the canonical peer chain")
        # signature must chain from the address declared by the previous claim
        address = _address_before(sdag, view, pos, scheme)
        if not _redemption_sig_ok(tx, address, scheme):
            raise BadSignature("signature does not match declared address")
        expected = _accrued_span(sdag, view, pos, rewards)
        if expected is None:
            raise WrongAmount(-1, tx.reward_claim or 0)
        if tx.reward_claim != expected:
            raise WrongAmount(expected, tx.reward_claim or 0)
        assert address is not None
        return address

    ledger = Ledger()
    for i, (value, address) in enumerate(genesis_outputs):
        ledger.utxo[genesis_outpoint(i)] = (value, address)

    position = 0
    for ob in ordered_blocks:
        block = sdag.blocks[ob.block_id]
        tx = block.mes
        validity = TxValidity.NONE
        fee = 0
        if tx.kind is not TxKind.EMPTY:
            txid = tx.txid()
            accepted = False
            reason = ""
            if txid in ledger.accepted_ids:
                reason = "duplicate"
            elif tx.kind is TxKind.NORMAL:
                accepted, fee, reason = _verify_normal(tx, ledger, scheme)
                if accepted:
                    for inp in tx.inputs:
                        del ledger.utxo[Outpoint(inp.txid, inp.index)]
                    for j, out in enumerate(tx.outputs):
                        ledger.utxo[Outpoint(txid, j)] = (out.value, out.address)
            elif tx.kind is TxKind.REGISTRATION:
                accepted = ob.block_id in on_chain and chain_positions[block.peer].get(ob.block_id) == 0
                reason = "" if accepted else "not the canonical registration"
            elif tx.kind is TxKind.REDEMPTION:
                try:
                    payout = redemption_check(tx, ob.block_id, ledger)
                    ledger.utxo[Outpoint(txid, 0)] = (tx.reward_claim or 0, payout)
                    accepted = True
                except RedemptionError as exc:
                    reason = str(exc)
            if accepted:
                ledger.accepted_ids.add(txid)
            ledger.entries.append(
                LedgerEntry(txid, ob.block_id, ob.level_index, position, accepted, reason)
            )
            position += 1
            validity = TxValidity.VALID if accepted else TxValidity.INVALID
            if not accepted:
                fee = 0
        if ob.level_index < final_levels:
            kind = (
                BlockKind.MAIN_MILESTONE
                if sdag.main_chain[ob.level_index] == ob.block_id
                else BlockKind.REGULAR_PLUS
            )
            status = (
                ChainStatus.ON_PEER_CHAIN if ob.block_id in on_chain else ChainStatus.FORKED
            )
            amount = block_reward(kind, status, validity, fee, lev_sizes[ob.level_index], params)
            rewards[ob.block_id] = RewardRecord(
                ob.block_id, kind, status, validity, fee, ob.level_index, amount
            )
    return LedgerBuild(ledger, rewards, views, final_levels)


def _claim_positions(sdag: SDag, view: PeerChainView) -> list[int]:
    """Positions of the registration and every redemption on the canonical
    chain, in order (only signature-valid ones shift the address chain, but
    position 0 always anchors the first span)."""
    out = []
    for pos, bid in enumerate(view.blocks):
        kind = sdag.blocks[bid].mes.kind
        if pos == 0 and kind is TxKind.REGISTRATION:
            out.append(pos)
        elif kind is TxKind.REDEMPTION:
            out.append(pos)
    return out


def _address_before(
    sdag: SDag, view: PeerChainView, pos: int, scheme: SignatureScheme
) -> Optional[bytes]:
    prefix = view.blocks[:pos]
    _, _, address, registered = _walk_claims(sdag, prefix, scheme)
    return address if registered else None


def _prev_claim_pos(sdag: SDag, view: PeerChainView, pos: int) -> Optional[int]:
    prev = None
    for p in _claim_positions(sdag, view):
        if p < pos:
            prev = p
    return prev


def _accrued_span(
    sdag: SDag, view: PeerChainView, pos: int, rewards: dict[bytes, RewardRecord]
) -> Optional[int]:
    """Rewards claimable by the redemption at `pos`: every chain block from
    the previous claim (inclusive, its own fixed reward rolls forward) up to
    but excluding this one.  None if any span block has no settled reward."""
    prev = _prev_claim_pos(sdag, view, pos)
    if prev is None:
        return None
    total = 0
    for bid in view.blocks[prev:pos]:
        rec = rewards.get(bid)
        if rec is None:
            return None
        total += rec.amount
    return total


def accrued_rewards(
    sdag: SDag, view: PeerChainView, rewards: dict[bytes, RewardRecord]
) -> int:
    """Unclaimed settled rewards at the head of the canonical chain."""
    claims = _claim_positions(sdag, view)
    start = claims[-1] if claims else 0
    return sum(
        rewards[bid].amount for bid in view.blocks[start:] if bid in rewards
    )


def validate_redemption(
    sdag: SDag,
    view: PeerChainView,
    block_id: bytes,
    rewards: dict[bytes, RewardRecord],
    scheme: SignatureScheme = DEFAULT_SCHEME,
) -> None:
    """Standalone check of one redemption block on a resolved chain; raises
    BadSignature or WrongAmount."""
    positions = {bid: i for i, bid in enumerate(view.blocks)}
    pos = positions.get(block_id)
    if pos is None:
        raise RedemptionError("block not on the canonical peer chain")
    tx = sdag.blocks[block_id].mes
    if tx.kind is not TxKind.REDEMPTION:
        raise RedemptionError("not a redemption block")
    address = _address_before(sdag, view, pos, scheme)
    if not _redemption_sig_ok(tx, address, scheme):
        raise BadSignature("signature does not match declared address")
    expected = _accrued_span(sdag, view, pos, rewards)
    if expected is None or tx.reward_claim != expected:
        raise WrongAmount(expected if expected is not None else -1, tx.reward_claim or 0)


def ledger_csv(build: LedgerBuild) -> str:
    """CSV export: level index, position, block id, tx id, accepted flag,
    reward amount."""
    lines = ["level,position,block_id,tx_id,accepted,reward"]
    for e in build.ledger.entries:
        rec = build.rewards.get(e.block_id)
        amount = rec.amount if rec else ""
        lines.append(
            f"{e.level_index},{e.position},{e.block_id.hex()},{e.txid.hex()},"
            f"{int(e.accepted)},{amount}"
        )
    return "\n".join(lines) + "\n"
