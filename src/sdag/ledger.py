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
    Params,
    Transaction,
    TxKind,
    sighash,
)
from .dag import SDag, collector_paused
from .sigs import DEFAULT_SCHEME


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


class RewardRecord(NamedTuple):
    block_id: bytes
    kind: BlockKind
    status: ChainStatus
    amount: int


class Claim(NamedTuple):
    """What the chain looked like just before one claim: the previous
    claim's position (None for the first) and the payout address in force
    (None before the registration); and whether the claim is a redemption
    signed with that address's key."""

    prev: Optional[int]
    address: Optional[bytes]
    signed: bool


@dataclass
class PeerChainView:
    """One miner's canonical peer chain as determined by redemption
    signature continuity; everything off it is forked and earns nothing.

    `position` maps each chain block to its index in `blocks`.  `claims`
    maps the position of every claim on the chain (a registration at
    position 0 and every redemption, validly signed or not) to its `Claim`,
    in chain order."""

    blocks: list[bytes]
    registered: bool
    current_address: Optional[bytes]
    forked: set[bytes]
    position: dict[bytes, int]
    claims: dict[int, Claim]


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
    chronology is preserved: a miner's earlier block precedes its later one.
    `ms` must be on the main chain (KeyError otherwise).
    """
    members = set(sdag.facts.levels[ms]) if sdag.level_index(ms) else {ms}
    blocks = sdag.blocks
    visited = {ms}
    order: list[bytes] = []

    def refs(bid: bytes):
        b = blocks[bid]
        return iter((b.idp, b.idt, b.idm))

    stack = [(ms, refs(ms))]
    while stack:
        bid, kids = stack[-1]
        # resumes after the references this frame has already tried
        for ref in kids:
            if ref in members and ref not in visited:
                visited.add(ref)
                stack.append((ref, refs(ref)))
                break
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


def resolve_peer_chain(sdag: SDag, miner: bytes) -> PeerChainView:
    """Pick the canonical chain among the branches of a miner's own-chain
    tree.  Branches are scored by valid redemption continuity (registered at
    the root, then valid claim count, then coverage, i.e. the position of
    the last valid claim, then length, then smallest leaf id); everything
    else is forked and earns nothing.

    One pass over the miner's held blocks in storage order
    (`SDag.peer_block_ids`), which puts every parent before its children,
    derives each block's walk state from its parent's, so each redemption
    signature is checked once.  A block scores higher than its parent, so
    the best-scoring block is a leaf, and leaf ids are unique, so the
    winner does not depend on enumeration order.
    The view records each chain block's position and, for each claim, the
    previous claim position, the payout address in force before it and
    whether the walk found the claim validly signed."""
    # walk state after a block: (registered, valid claims, coverage, length,
    # payout address); the first four are the score, then the block id
    walks: dict[bytes, tuple[bool, int, int, int, Optional[bytes]]] = {}
    best: Optional[bytes] = None
    best_key: tuple = ()
    for bid in sdag.peer_block_ids(miner):
        block = sdag.blocks[bid]
        tx = block.mes
        parent = walks.get(block.idp)
        if parent is None:  # a root: only here does a registration count
            registered = tx.kind is TxKind.REGISTRATION
            walk = (registered, 0, 0, 1, tx.next_address if registered else None)
        else:
            registered, claims, covered, length, address = parent
            redeems = registered and tx.kind is TxKind.REDEMPTION
            witness = tx.inputs[0].witness if tx.inputs else b""
            if redeems and DEFAULT_SCHEME.opens(witness, address, lambda: sighash(tx)):
                walk = (True, claims + 1, length, length + 1, tx.next_address)
            else:
                walk = (registered, claims, covered, length + 1, address)
        walks[bid] = walk
        key = walk[:4]
        if best is None or key > best_key or (key == best_key and bid < best):
            best, best_key = bid, key
    if best is None:
        return PeerChainView([], False, None, set(), {}, {})

    blocks = []
    cur = best
    while cur in walks:
        blocks.append(cur)
        cur = sdag.blocks[cur].idp
    blocks.reverse()
    position: dict[bytes, int] = {}
    claims_at: dict[int, Claim] = {}
    prev_claim: Optional[int] = None
    before: tuple[bool, int, int, int, Optional[bytes]] = (False, 0, 0, 0, None)
    for pos, bid in enumerate(blocks):
        position[bid] = pos
        walk = walks[bid]
        kind = sdag.blocks[bid].mes.kind
        if kind is TxKind.REDEMPTION or (pos == 0 and kind is TxKind.REGISTRATION):
            # the walk counts a claim only when it is validly signed
            claims_at[pos] = Claim(prev_claim, before[4], walk[1] > before[1])
            prev_claim = pos
        before = walk
    registered, _, _, _, address = walks[best]
    forked = set(walks).difference(position)
    return PeerChainView(blocks, registered, address, forked, position, claims_at)


# -- ledger construction -------------------------------------------------


class Outpoint(NamedTuple):
    txid: bytes
    index: int


@dataclass(slots=True)
class LedgerEntry:
    txid: bytes
    block_id: bytes
    level_index: int
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


def genesis_utxo(outputs: Sequence[tuple[int, bytes]]) -> dict[Outpoint, tuple[int, bytes]]:
    """The genesis outputs as a UTXO map, the state every fold starts from."""
    return {Outpoint(GENESIS_ID, i): out for i, out in enumerate(outputs)}


def verify_normal(tx: Transaction, utxo: dict[Outpoint, tuple[int, bytes]]) -> tuple[bool, int, str]:
    """Judge a normal transaction against a UTXO set: distinct unspent
    inputs, each signed by its owner's key, that cover the outputs.
    Returns (valid, fee, reason for a rejection)."""
    spent: set[Outpoint] = set()
    total_in = 0
    digest = sighash(tx)
    for inp in tx.inputs:
        op = Outpoint(inp.txid, inp.index)
        if op in spent or op not in utxo:
            return False, 0, "input not in utxo"
        value, address = utxo[op]
        opened = DEFAULT_SCHEME.opens(inp.witness, address, digest)
        if not opened:
            return False, 0, "malformed witness" if opened is None else "bad signature"
        spent.add(op)
        total_in += value
    total_out = sum(out.value for out in tx.outputs)
    if total_out > total_in:
        return False, 0, "outputs exceed inputs"
    return True, total_in - total_out, ""


class _PeerChainContext(NamedTuple):
    sdag: SDag
    view: PeerChainView  # the canonical peer chain of the block's miner
    rewards: dict[bytes, RewardRecord]  # settled so far


def _fold_tx(
    ledger: Ledger,
    tx: Transaction,
    ob: OrderedBlock,
    context: Optional[_PeerChainContext],
) -> tuple[bool, int]:
    """Judge one transaction, apply it if accepted and append its entry;
    return (accepted, fee).  A normal transaction must pass `verify_normal`;
    a registration counts only at position 0 of its miner's peer chain and
    a redemption must pass `validate_redemption`, so those two need the
    `context` that only `build_from_dag` has."""
    txid = tx.txid()
    accepted, fee, reason = False, 0, ""
    if txid in ledger.accepted_ids:
        reason = "duplicate"
    elif tx.kind is TxKind.NORMAL:
        accepted, fee, reason = verify_normal(tx, ledger.utxo)
        if accepted:
            for inp in tx.inputs:
                del ledger.utxo[Outpoint(inp.txid, inp.index)]
            for j, out in enumerate(tx.outputs):
                ledger.utxo[Outpoint(txid, j)] = (out.value, out.address)
    elif tx.kind is TxKind.REGISTRATION:
        accepted = context.view.position.get(ob.block_id) == 0
        reason = "" if accepted else "not the canonical registration"
    elif tx.kind is TxKind.REDEMPTION:
        try:
            payout = validate_redemption(context.sdag, context.view, ob.block_id, context.rewards)
            ledger.utxo[Outpoint(txid, 0)] = (tx.reward_claim or 0, payout)
            accepted = True
        except RedemptionError as exc:
            reason = str(exc)
    if accepted:
        ledger.accepted_ids.add(txid)
    ledger.entries.append(LedgerEntry(txid, ob.block_id, ob.level_index, accepted, reason))
    return accepted, fee


def build_ledger(
    ordered: Iterable[tuple[Transaction, OrderedBlock]],
    genesis_outputs: Sequence[tuple[int, bytes]] = (),
) -> Ledger:
    """Fold an ordered sequence of normal transactions through the UTXO
    recurrence.

    First-seen wins among conflicting spends; rejected transactions leave
    the state untouched.  Any other kind raises ValueError: a registration
    or redemption is judged on its miner's peer chain, which only
    `build_from_dag` resolves.
    """
    ledger = Ledger(utxo=genesis_utxo(genesis_outputs))
    for tx, ob in ordered:
        if tx.kind is not TxKind.NORMAL:
            raise ValueError(f"a {tx.kind.name} is judged by build_from_dag, not build_ledger")
        _fold_tx(ledger, tx, ob, None)
    return ledger


@collector_paused()
def build_from_dag(
    sdag: SDag,
    params: Params,
    genesis_outputs: Sequence[tuple[int, bytes]] = (),
    finality_depth: int = 0,
) -> LedgerBuild:
    """One deterministic pass: order blocks, fold the ledger, and compute
    reward records for every block whose level set is at least
    `finality_depth` milestones below the tip.  Runs with the cyclic
    collector paused (`collector_paused`): the fold makes no cyclic
    garbage."""
    ordered_blocks = iter_ordered_blocks(sdag)
    final_levels = max(len(sdag.main_chain) - finality_depth, 1)
    levels = sdag.facts.levels
    # the genesis pseudo-level holds the genesis alone
    lev_sizes = [1] + [len(levels[ms]) for ms in sdag.main_chain[1:]]
    miners = {sdag.blocks[ob.block_id].peer for ob in ordered_blocks}
    views = {m: resolve_peer_chain(sdag, m) for m in miners}
    rewards: dict[bytes, RewardRecord] = {}
    ledger = Ledger(utxo=genesis_utxo(genesis_outputs))
    for ob in ordered_blocks:
        block = sdag.blocks[ob.block_id]
        view = views[block.peer]
        validity = TxValidity.NONE
        fee = 0
        tx_kind = block.mes.kind
        if tx_kind is not TxKind.EMPTY:
            # only a registration or a redemption reads its peer chain
            context = None if tx_kind is TxKind.NORMAL else _PeerChainContext(sdag, view, rewards)
            accepted, fee = _fold_tx(ledger, block.mes, ob, context)
            validity = TxValidity.VALID if accepted else TxValidity.INVALID
        if ob.level_index < final_levels:
            kind = (
                BlockKind.MAIN_MILESTONE
                if sdag.main_chain[ob.level_index] == ob.block_id
                else BlockKind.REGULAR_PLUS
            )
            status = (
                ChainStatus.ON_PEER_CHAIN if ob.block_id in view.position else ChainStatus.FORKED
            )
            amount = block_reward(kind, status, validity, fee, lev_sizes[ob.level_index], params)
            rewards[ob.block_id] = RewardRecord(ob.block_id, kind, status, amount)
    return LedgerBuild(ledger, rewards, views, final_levels)


def _accrued_span(
    view: PeerChainView, pos: int, rewards: dict[bytes, RewardRecord]
) -> Optional[int]:
    """Rewards claimable by the redemption at `pos`: every chain block from
    the previous claim (inclusive, its own fixed reward rolls forward) up to
    but excluding this one.  None if any span block has no settled reward."""
    prev = view.claims[pos].prev
    if prev is None:
        return None
    total = 0
    for bid in view.blocks[prev:pos]:
        rec = rewards.get(bid)
        if rec is None:
            return None
        total += rec.amount
    return total


def validate_redemption(
    sdag: SDag,
    view: PeerChainView,
    block_id: bytes,
    rewards: dict[bytes, RewardRecord],
) -> bytes:
    """Check one redemption block on a resolved chain against the rewards
    settled so far and return its payout address: the address declared
    before it, whose key must have signed it (`resolve_peer_chain` checked
    the signature and recorded the verdict in the claim).  Raises
    RedemptionError (BadSignature or WrongAmount for a claim that fails)."""
    pos = view.position.get(block_id)
    if pos is None:
        raise RedemptionError("block not on the canonical peer chain")
    tx = sdag.blocks[block_id].mes
    if tx.kind is not TxKind.REDEMPTION:
        raise RedemptionError("not a redemption block")
    claim = view.claims[pos]
    if not claim.signed:
        raise BadSignature("signature does not match declared address")
    expected = _accrued_span(view, pos, rewards)
    if expected is None or tx.reward_claim != expected:
        raise WrongAmount(expected if expected is not None else -1, tx.reward_claim or 0)
    return claim.address


def ledger_csv(build: LedgerBuild) -> str:
    """CSV export: level index, position in the ledger, block id, tx id,
    accepted flag, reward amount."""
    lines = ["level,position,block_id,tx_id,accepted,reward"]
    for position, e in enumerate(build.ledger.entries):
        rec = build.rewards.get(e.block_id)
        amount = rec.amount if rec else ""
        lines.append(
            f"{e.level_index},{position},{e.block_id.hex()},{e.txid.hex()},"
            f"{int(e.accepted)},{amount}"
        )
    return "\n".join(lines) + "\n"
