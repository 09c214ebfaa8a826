"""Per-peer protocol state machine: receiving and creating blocks.

Receiving: buffer blocks whose parents are not stored yet, validate,
insert, drop the contained transaction from the mempool, insert the
buffered blocks that were waiting on it, and switch the main chain when a
higher milestone shows up.  A node whose store times are computed for it
(see `simnet`) takes the same steps in bulk through `catch_up`.
Transaction semantics are deliberately NOT checked on receive; conflicts
are resolved when the DAG is folded into a ledger.

Creating: reference the chain tip, the miner's own head, and a random tip
of another peer; pick the workable normal transaction nearest the
miner's head from the mempool; mine once (no retry: `MiningExhausted`
reaches the caller); publish.  Whether that transaction is valid is
again left to the fold, which pays a block with an invalid one without
its fee.  `mine_block` mines and stores every block a node makes, the
honest template and a forger's (`simnet.PeerChainFork`) alike, through
the store step a received block takes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    EMPTY_TX,
    GENESIS_ID,
    Block,
    BlockClass,
    Params,
    Transaction,
    TxKind,
    block_id,
    mine,
)
from .dag import DagFacts, SDag, Violation
from .mempool import Mempool, power_counts, power_share
from .sigs import DEFAULT_SCHEME

# the most orphans one node buffers before it evicts the oldest; the
# simulator stops a run instead of evicting (`Simulation._fold_orphans`)
ORPHAN_CAP = 10_000
DEFAULT_MINE_BUDGET = 1 << 20
POWER_KEEP_DEPTH = 4  # a miner's chain tip lags the highest by one or two


def drain(arrived: bytes, waiting_on: dict[bytes, set[bytes]], take: Callable[[bytes], bool]) -> None:
    """Walk the orphans that the insertion of `arrived` may complete, in
    the order that fixes every artifact of a simulation: depth first from
    the last block taken, the blocks waiting on one parent in sorted-id
    order.  `waiting_on` maps a block to the orphans buffered while it was
    missing, and loses each entry walked; `take(bid)` inserts a waiting
    orphan if all its parents are held, and says whether it did."""
    queue = [arrived]
    while queue:
        waiting = waiting_on.pop(queue.pop(), None)
        if waiting:
            for bid in sorted(waiting):
                if take(bid):
                    queue.append(bid)


class NodeState:
    """One peer's complete local state; confine each instance to a single
    logical execution context.  Nodes given the same `facts` table share
    one block store and derive each fact once between them (see
    `DagFacts`); a node without one keeps its own."""

    def __init__(
        self,
        params: Params,
        secret: bytes,
        seed: int = 0,
        facts: Optional[DagFacts] = None,
    ):
        self.params = params
        self.identity = DEFAULT_SCHEME.address(DEFAULT_SCHEME.derive_public(secret))
        self.sdag = SDag(params, facts)
        self.mempool = Mempool()
        self.my_head = GENESIS_ID
        self.rng = random.Random(seed)
        self.orphan_blocks: dict[bytes, Block] = {}
        self.orphans_by_missing: dict[bytes, set[bytes]] = {}
        # counters of what happened, for a simulation's counters.json
        self.orphans_buffered = 0
        self.orphans_evicted = 0
        self.orphan_peak = 0
        self.mining_attempts = 0
        self.rejected_blocks = 0
        self.reorgs = 0
        self.max_reorg_depth = 0

    # -- receive path ----------------------------------------------------

    def on_receive_block(self, block: Block) -> None:
        """Store a delivered block, or buffer it until its parents are
        stored."""
        bid = block_id(block)
        sdag = self.sdag
        if bid in sdag or bid in self.orphan_blocks:
            return
        missing = [ref for ref in (block.idp, block.idm, block.idt) if ref not in sdag]
        if not missing:
            if self._try_insert(block) and bid in self.orphans_by_missing:
                self._drain_orphans(bid)
            return
        if len(self.orphan_blocks) >= ORPHAN_CAP:
            # FIFO eviction bounds memory under junk floods
            victim = next(iter(self.orphan_blocks))
            evicted = self.orphan_blocks.pop(victim)
            self.orphans_evicted += 1
            # it waits only in the buckets of its own missing refs
            for ref in (evicted.idp, evicted.idm, evicted.idt):
                waiting = self.orphans_by_missing.get(ref)
                if waiting is not None:
                    waiting.discard(victim)
                    if not waiting:
                        del self.orphans_by_missing[ref]
        self.orphan_blocks[bid] = block
        self.orphans_buffered += 1
        self.orphan_peak = max(self.orphan_peak, len(self.orphan_blocks))
        for ref in missing:
            self.orphans_by_missing.setdefault(ref, set()).add(bid)

    def _store(self, block: Block) -> Optional[Violation]:
        """Insert `block` and drop its transaction from the pool."""
        violation = self.sdag.insert(block)
        if violation is None and block.mes.kind is not TxKind.EMPTY:
            self.mempool.entries.pop(block.mes.txid(), None)
        return violation

    def _try_insert(self, block: Block) -> bool:
        if self._store(block) is None:
            return True
        self.rejected_blocks += 1
        return False

    def _drain_orphans(self, arrived: bytes) -> None:
        sdag = self.sdag

        def take(bid: bytes) -> bool:
            block = self.orphan_blocks.get(bid)
            if block is None or not (block.idp in sdag and block.idm in sdag and block.idt in sdag):
                return False
            del self.orphan_blocks[bid]
            return self._try_insert(block)

        drain(arrived, self.orphans_by_missing, take)

    def _count_reorg(self, old: list[bytes]) -> None:
        """Count a switch away from `old` as a reorg if it drops one of
        old's milestones, and keep the deepest drop."""
        new = self.sdag.main_chain
        # both chains are paths from the genesis in one milestone tree, so
        # where they agree at a height they agree below it too
        fork = min(len(old), len(new))
        while old[fork - 1] != new[fork - 1]:
            fork -= 1
        if fork < len(old):
            self.reorgs += 1
            self.max_reorg_depth = max(self.max_reorg_depth, len(old) - fork)

    def catch_up(
        self,
        entries: Iterable[tuple[bytes, Transaction]],
        bids: Sequence[bytes],
        parents: Sequence[Iterable[bytes]],
        serials: Iterable[int],
        txids: Iterable[bytes],
        cascades: Iterable[tuple[bool, Sequence[bytes]]],
    ) -> None:
        """Take in bulk what `on_tx` and `on_receive_block` would have taken
        one at a time since the node last acted.  The pool ends as if it
        took the arrived (txid, transaction) pairs and then lost the
        transactions of the stored blocks (`txids`).  The stored blocks are
        held (`bids`, their store `serials` and their `parents`, as
        `SDag.hold` takes them), then the milestones among them switch the
        main chain in store order.  `cascades` lists those milestones by
        the delivery that stored them, with the orphans it completed, each
        list with whether the delivered block was a milestone: only such a
        delivery counts a reorg, when it switched the chain away from one
        of its milestones (`SimMetrics.reorg_count`)."""
        # (pool | arrived) - carried, without growing the pool's table by
        # every arrival first: a dict never shrinks its table
        carried = set(txids)
        pool = self.mempool.entries
        for txid in carried:
            pool.pop(txid, None)
        pool.update([pair for pair in entries if pair[0] not in carried])
        sdag = self.sdag
        sdag.hold(bids, parents, serials)
        for delivered_milestone, milestones in cascades:
            old = sdag.main_chain
            for ms in milestones:
                sdag.adopt(ms)
            if delivered_milestone:
                self._count_reorg(old)

    def on_tx(self, tx: Transaction) -> None:
        """Add a pending transaction; it may be shared with other nodes."""
        self.mempool.entries[tx.txid()] = tx

    # -- create path -----------------------------------------------------

    def _estimated_q(self) -> Fraction:
        """estimate_power's share, from the peer count of the chain ending at
        this node's tip.  The table keeps that count per tip for the tips at
        most `POWER_KEEP_DEPTH` milestones below the last one counted (a
        dropped tip is counted again if a node reaches it)."""
        facts, tip = self.sdag.facts, self.sdag.chain_tip()
        counts = facts.power.get(tip)
        if counts is None:
            height = facts.ms_height
            floor = height[tip] - POWER_KEEP_DEPTH
            facts.power = {t: c for t, c in facts.power.items() if height[t] >= floor}
            counts = facts.power[tip] = power_counts(self.sdag)
        return power_share(*counts, self.identity)

    def tx_compatible(self, tx: Transaction) -> bool:
        """Whether a miner may carry `tx`: only a normal transaction.  A
        registration or redemption counts only on its own miner's peer
        chain, and whether a normal one is valid is the fold's call."""
        return tx.kind is TxKind.NORMAL

    def _pick_tx(self) -> Transaction:
        if self.my_head == GENESIS_ID:
            # a miner's first block opens its reward chain
            return Transaction(TxKind.REGISTRATION, next_address=self.identity)
        cq = self.params.c * self._estimated_q()
        for txid in self.mempool.workable(self.my_head, cq):
            tx = self.mempool.entries[txid]
            if self.tx_compatible(tx):
                return tx
        return EMPTY_TX

    def create_block(self) -> Block:
        """Build, mine once, and locally adopt a new block; caller broadcasts
        it.  `MiningExhausted` leaves the head, pool and DAG as they were."""
        tips = sorted(self.sdag.tip_set(self.identity))
        idt = self.rng.choice(tips) if tips else GENESIS_ID
        template = Block(
            idp=self.my_head,
            idm=self.sdag.chain_tip(),
            idt=idt,
            peer=self.identity,
            pow=0,
            mes=self._pick_tx(),
        )
        block = self.mine_block(template)
        self.my_head = block_id(block)
        return block

    def mine_block(self, template: Block, want: Optional[BlockClass] = None) -> Block:
        """Mine `template` once from a nonce drawn from this node's `rng`, of
        class `want` if given, and store it; caller broadcasts it.
        `MiningExhausted` leaves the pool, DAG and attempt count as they
        were."""
        result = mine(template, self.params, DEFAULT_MINE_BUDGET, start_nonce=self.rng.getrandbits(64), want=want)
        self.mining_attempts += result.attempts
        violation = self._store(result.block)
        assert violation is None, f"self-mined block invalid: {violation}"
        return result.block
