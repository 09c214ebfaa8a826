"""Deterministic DAG-to-ledger transformation.

Level sets along the main chain are ordered low to high; within a level set
blocks are ordered by post-order DFS (own-chain reference first, then the
cross-chain tip reference).  Folding the resulting transaction sequence
through the UTXO recurrence yields a ledger every peer with the same DAG
agrees on byte for byte.

Rewards follow a six-row table keyed on block kind (regular+ vs main-chain
milestone), peer-chain status, and the fee the fold accepted; forked
peer-chain branches earn nothing.  Accumulated rewards are claimed through
a chain of redemption transactions anchored at a registration, each signed
with the key of the previously declared address.
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


class RewardRecord(NamedTuple):
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
    position: dict[bytes, int]
    claims: dict[int, Claim]


class RedemptionError(ValueError):
    pass


class BadSignature(RedemptionError):
    pass


class WrongAmount(RedemptionError):
    def __init__(self, expected: int, claimed: int):
        super().__init__(f"claimed {claimed}, accrued {expected}")


def block_reward(kind: BlockKind, status: ChainStatus, fee: int, lev_size: int, params: Params) -> int:
    """Exact reward amount for one block per the reward table.  `fee` is
    the fee the fold accepted: 0 for a block whose transaction it rejected,
    for a registration or redemption, and for a block without one."""
    if status is ChainStatus.FORKED:
        return 0
    if kind is BlockKind.REGULAR_PLUS:
        return params.r_n + fee
    bonus = int(params.delta * params.r_n * max(lev_size - 1, 0))
    return params.r_m + fee + bonus


# -- ordering ------------------------------------------------------------


def dfs_order(sdag: SDag, ms: bytes) -> list[bytes]:
    """Post-order DFS of one level set rooted at its milestone.

    Children are visited own-chain reference first, then the tip reference;
    an in-set milestone reference (a confirmed fork) is traversed last so
    the output is always a permutation of the level set.  Peer-chain
    chronology is preserved: a miner's earlier block precedes its later one.
    `ms` must be on the main chain (KeyError otherwise).
    """
    members = set(sdag.level_set(ms))
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
        return PeerChainView([], False, None, {}, {})

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
    return PeerChainView(blocks, registered, address, position, claims_at)


# -- ledger construction -------------------------------------------------


class Outpoint(NamedTuple):
    txid: bytes
    index: int


# builds an Outpoint from (txid, index) without the named tuple's
# Python-level `__new__`; a plain (txid, index) tuple finds the same entry
_new_tuple = tuple.__new__


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


def genesis_utxo(outputs: Sequence[tuple[int, bytes]]) -> dict[Outpoint, tuple[int, bytes]]:
    """The genesis outputs as a UTXO map, the state every fold starts from."""
    return {Outpoint(GENESIS_ID, i): out for i, out in enumerate(outputs)}


def verify_normal(tx: Transaction, utxo: dict[Outpoint, tuple[int, bytes]]) -> tuple[bool, int, str]:
    """Judge a normal transaction against a UTXO set: distinct unspent
    inputs, each signed by its owner's key, that cover the outputs.
    Returns (valid, fee, reason for a rejection)."""
    spent: set[tuple[bytes, int]] = set()
    total_in = 0
    digest = sighash(tx)
    for txid, index, witness in tx.inputs:
        op = (txid, index)  # equal to, and hashed as, the Outpoint
        if op in spent or op not in utxo:
            return False, 0, "input not in utxo"
        value, address = utxo[op]
        opened = DEFAULT_SCHEME.opens(witness, address, digest)
        if not opened:
            return False, 0, "malformed witness" if opened is None else "bad signature"
        spent.add(op)
        total_in += value
    total_out = sum(out.value for out in tx.outputs)
    if total_out > total_in:
        return False, 0, "outputs exceed inputs"
    return True, total_in - total_out, ""


def _fold_tx(
    ledger: Ledger,
    tx: Transaction,
    bid: bytes,
    level_index: int,
    view: Optional[PeerChainView],
    rewards: Optional[dict[bytes, RewardRecord]],
) -> int:
    """Judge the transaction of block `bid` in level `level_index`, apply
    it if accepted and append its entry; return its fee, which is 0 unless
    it is an accepted normal transaction.  A normal transaction must pass
    `verify_normal`; a registration counts only at position 0 of `view`,
    its miner's canonical peer chain, and a redemption must pass
    `validate_redemption` on `view` against the `rewards` settled so far.
    Only `build_from_dag` has those two; `build_ledger` passes None."""
    txid = tx.txid()
    accepted, fee, reason = False, 0, ""
    if txid in ledger.accepted_ids:
        reason = "duplicate"
    elif tx.kind is TxKind.NORMAL:
        accepted, fee, reason = verify_normal(tx, ledger.utxo)
        if accepted:
            utxo = ledger.utxo
            for spent_txid, index, _witness in tx.inputs:
                del utxo[spent_txid, index]
            for j, out in enumerate(tx.outputs):
                utxo[_new_tuple(Outpoint, (txid, j))] = (out.value, out.address)
    elif tx.kind is TxKind.REGISTRATION:
        accepted = view.position.get(bid) == 0
        reason = "" if accepted else "not the canonical registration"
    elif tx.kind is TxKind.REDEMPTION:
        try:
            payout = validate_redemption(view, bid, tx, rewards)
            ledger.utxo[_new_tuple(Outpoint, (txid, 0))] = (tx.reward_claim, payout)
            accepted = True
        except RedemptionError as exc:
            reason = str(exc)
    if accepted:
        ledger.accepted_ids.add(txid)
    ledger.entries.append(LedgerEntry(txid, bid, level_index, accepted, reason))
    return fee


def build_ledger(
    ordered: Iterable[tuple[Transaction, bytes, int]],
    genesis_outputs: Sequence[tuple[int, bytes]] = (),
) -> Ledger:
    """Fold an ordered sequence of normal transactions, each with its
    block id and level index, through the UTXO recurrence.

    First-seen wins among conflicting spends; rejected transactions leave
    the state untouched.  Any other kind raises ValueError: a registration
    or redemption is judged on its miner's peer chain, which only
    `build_from_dag` resolves.
    """
    ledger = Ledger(utxo=genesis_utxo(genesis_outputs))
    for tx, bid, level_index in ordered:
        if tx.kind is not TxKind.NORMAL:
            raise ValueError(f"a {tx.kind.name} is judged by build_from_dag, not build_ledger")
        _fold_tx(ledger, tx, bid, level_index, None, None)
    return ledger


@collector_paused()
def build_from_dag(
    sdag: SDag,
    params: Params,
    genesis_outputs: Sequence[tuple[int, bytes]] = (),
    finality_depth: int = 0,
) -> LedgerBuild:
    """One deterministic pass over the main chain's level sets, low to
    high: order each by `dfs_order`, fold its blocks' transactions, and
    compute reward records for every block whose level set is at least
    `finality_depth` milestones below the tip.  A miner's peer chain is
    resolved when the pass first meets one of its blocks.  Runs with the
    cyclic collector paused (`collector_paused`): the fold makes no cyclic
    garbage."""
    blocks = sdag.blocks
    main_chain = sdag.main_chain
    final_levels = max(len(main_chain) - finality_depth, 1)
    levels = sdag.facts.levels
    views: dict[bytes, PeerChainView] = {}
    rewards: dict[bytes, RewardRecord] = {}
    ledger = Ledger(utxo=genesis_utxo(genesis_outputs))
    for level_index, ms in enumerate(main_chain[1:], 1):
        lev_size = len(levels[ms])
        for bid in dfs_order(sdag, ms):
            block = blocks[bid]
            view = views.get(block.peer)
            if view is None:
                view = views[block.peer] = resolve_peer_chain(sdag, block.peer)
            tx = block.mes
            fee = 0 if tx.kind is TxKind.EMPTY else _fold_tx(ledger, tx, bid, level_index, view, rewards)
            if level_index < final_levels:
                kind = BlockKind.MAIN_MILESTONE if bid == ms else BlockKind.REGULAR_PLUS
                status = ChainStatus.ON_PEER_CHAIN if bid in view.position else ChainStatus.FORKED
                amount = block_reward(kind, status, fee, lev_size, params)
                rewards[bid] = RewardRecord(status, amount)
    return LedgerBuild(ledger, rewards)


def validate_redemption(
    view: PeerChainView,
    block_id: bytes,
    tx: Transaction,
    rewards: dict[bytes, RewardRecord],
) -> bytes:
    """Check redemption `tx`, the transaction of block `block_id`, on its
    miner's resolved chain `view` against the rewards settled so far and
    return its payout address: the address declared before it, whose key
    must have signed it (`resolve_peer_chain` checked the signature and
    recorded the verdict in the claim).  The claim must equal the settled
    rewards of every chain block from the previous claim (inclusive, its
    own fixed reward rolls forward) up to but excluding this one; a signed
    claim always has a previous one, since signing needs the registration
    at position 0.  Raises RedemptionError: BadSignature, or WrongAmount
    with expected -1 if a block in that span has no settled reward."""
    pos = view.position.get(block_id)
    if pos is None:
        raise RedemptionError("block not on the canonical peer chain")
    claim = view.claims[pos]
    if not claim.signed:
        raise BadSignature("signature does not match declared address")
    expected = 0
    for bid in view.blocks[claim.prev:pos]:
        rec = rewards.get(bid)
        if rec is None:
            raise WrongAmount(-1, tx.reward_claim)
        expected += rec.amount
    if tx.reward_claim != expected:
        raise WrongAmount(expected, tx.reward_claim)
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
