"""Per-peer protocol state machine: receiving and creating blocks.

Receiving: buffer blocks whose parents are not stored yet, validate,
insert, drop the contained transaction from the mempool, insert the
buffered blocks that were waiting on it, and switch the main chain when a
higher milestone shows up.  Transaction semantics are deliberately NOT
checked on receive; conflicts are resolved when the DAG is folded into a
ledger.

Creating: reference the chain tip, the miner's own head, and a random tip
of another peer; pick the best workable transaction that the fold would
accept against the UTXO set at the current tip; mine; publish.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .core import (
    GENESIS_ID,
    Block,
    MiningExhausted,
    Params,
    Transaction,
    TxKind,
    block_id,
    mine,
)
from .dag import DagFacts, SDag
from .ledger import Ledger, OrderedBlock, Outpoint, build_ledger, dfs_order, genesis_utxo, verify_normal
from .mempool import Mempool, PoolEntry, power_counts, power_share
from .sigs import DEFAULT_SCHEME, SignatureScheme

DEFAULT_ORPHAN_CAP = 10_000
DEFAULT_MINE_BUDGET = 1 << 20


class LevelDelta(NamedTuple):
    """The net change the normal transactions of one main-chain level set
    make to the UTXO set at its parent milestone: the outputs spent (with
    their values, so the change can be undone) and the outputs created."""

    spent: dict[Outpoint, tuple[int, bytes]]
    created: dict[Outpoint, tuple[int, bytes]]

    def apply(self, utxo: dict[Outpoint, tuple[int, bytes]]) -> None:
        for op in self.spent:
            del utxo[op]
        utxo.update(self.created)

    def undo(self, utxo: dict[Outpoint, tuple[int, bytes]]) -> None:
        for op in self.created:
            del utxo[op]
        utxo.update(self.spent)


class SharedFacts:
    """What nodes with the same params, genesis outputs and scheme derive
    identically, computed by the first node that needs it:
    - `dag`: block verdicts and level sets (see `DagFacts`);
    - `level_deltas`: milestone id -> LevelDelta, which depends only on the
      milestone's ancestry;
    - `power`: chain tip -> `power_counts` of the chain ending there;
    - `genesis_utxo`: the genesis outputs as a UTXO map, copied per node."""

    def __init__(
        self,
        params: Params,
        genesis_outputs: Sequence[tuple[int, bytes]] = (),
        scheme: SignatureScheme = DEFAULT_SCHEME,
    ):
        self.dag = DagFacts(params)
        self.genesis_outputs = tuple(genesis_outputs)
        self.scheme = scheme
        self.genesis_utxo = genesis_utxo(self.genesis_outputs)
        self.level_deltas: dict[bytes, LevelDelta] = {}
        self.power: dict[bytes, tuple[dict[bytes, int], int]] = {}


class NodeState:
    """One peer's complete local state; confine each instance to a single
    logical execution context.  Nodes given the same `shared` facts derive
    each of them once between them; a node without one keeps its own."""

    def __init__(
        self,
        params: Params,
        secret: bytes,
        seed: int = 0,
        genesis_outputs: Sequence[tuple[int, bytes]] = (),
        scheme: SignatureScheme = DEFAULT_SCHEME,
        orphan_cap: int = DEFAULT_ORPHAN_CAP,
        shared: Optional[SharedFacts] = None,
    ):
        self.params = params
        self.scheme = scheme
        self.public = scheme.derive_public(secret)
        self.identity = scheme.address(self.public)
        self.genesis_outputs = tuple(genesis_outputs)
        if shared is None:
            shared = SharedFacts(params, self.genesis_outputs, scheme)
        elif shared.genesis_outputs != self.genesis_outputs or shared.scheme is not scheme:
            raise ValueError("shared facts were made for other genesis outputs or scheme")
        self.shared = shared
        self.sdag = SDag(params, shared.dag)
        self.mempool = Mempool()
        self.my_head = GENESIS_ID
        self.rng = random.Random(seed)
        self.orphan_blocks: dict[bytes, Block] = {}
        self.orphans_by_missing: dict[bytes, set[bytes]] = {}
        self.orphan_cap = orphan_cap
        self.mining_attempts = 0
        self.rejected_blocks = 0
        # UTXO set at the main-chain tip, moved between chains by applying
        # and undoing shared level deltas
        self.level_deltas = shared.level_deltas
        self._cache_chain: list[bytes] = [GENESIS_ID]
        self._utxo = dict(shared.genesis_utxo)

    # -- UTXO set at the tip ---------------------------------------------

    def _fold_level(self, k: int) -> LevelDelta:
        """Fold the normal transactions of main-chain level k with
        build_ledger onto the UTXO set at level k-1 and return the net
        change, leaving the set as it is.  The fold reads only the level's
        own inputs (a transaction accepted before has spent its inputs), so
        it runs on a scratch ledger holding just those."""
        items = []
        for bid in dfs_order(self.sdag, self.sdag.main_chain[k]):
            tx = self.sdag.blocks[bid].mes
            if tx.kind is TxKind.NORMAL:
                items.append((tx, OrderedBlock(bid, k)))
        utxo = self._utxo
        inputs = dict.fromkeys(Outpoint(i.txid, i.index) for tx, _ob in items for i in tx.inputs)
        before = {op: utxo[op] for op in inputs if op in utxo}
        scratch = build_ledger(items, scheme=self.scheme, into=Ledger(utxo=dict(before)))
        return LevelDelta(
            spent={op: v for op, v in before.items() if op not in scratch.utxo},
            created={op: v for op, v in scratch.utxo.items() if op not in before},
        )

    def _refresh_utxo(self) -> None:
        chain = self.sdag.main_chain
        old = self._cache_chain
        # both are root paths of the milestone tree: equal at a height means
        # equal below it
        fork = min(len(chain), len(old)) - 1
        while chain[fork] != old[fork]:
            fork -= 1
        fork += 1
        # chain switch: undo the abandoned levels back to the fork point
        for ms in reversed(old[fork:]):
            self.level_deltas[ms].undo(self._utxo)
        for k in range(fork, len(chain)):
            delta = self.level_deltas.get(chain[k])
            if delta is None:
                delta = self.level_deltas[chain[k]] = self._fold_level(k)
            delta.apply(self._utxo)
        self._cache_chain = chain  # a chain switch assigns a new list

    @property
    def tip_utxo(self) -> dict[Outpoint, tuple[int, bytes]]:
        """The UTXO set of the ledger at the main-chain tip."""
        if self._cache_chain[-1] != self.sdag.chain_tip():
            self._refresh_utxo()
        return self._utxo

    def tx_compatible(self, tx: Transaction) -> bool:
        """Whether the fold would accept `tx` appended to the ledger at the
        tip: a normal transaction `verify_normal` accepts against the tip's
        UTXO set.  A registration or redemption counts only on its own
        miner's peer chain, so it is never compatible."""
        return tx.kind is TxKind.NORMAL and verify_normal(tx, self.tip_utxo, self.scheme)[0]

    # -- receive path ----------------------------------------------------

    def on_receive_block(self, block: Block) -> None:
        bid = block_id(block)
        stored = self.sdag.blocks
        if bid in stored or bid in self.orphan_blocks:
            return
        if block.idp in stored and block.idm in stored and block.idt in stored:
            if self._try_insert(block) and bid in self.orphans_by_missing:
                self._drain_orphans(bid)
            return
        if len(self.orphan_blocks) >= self.orphan_cap:
            # FIFO eviction bounds memory under junk floods
            victim = next(iter(self.orphan_blocks))
            evicted = self.orphan_blocks.pop(victim)
            # it waits only in the buckets of its own missing refs
            for ref in (evicted.idp, evicted.idm, evicted.idt):
                waiting = self.orphans_by_missing.get(ref)
                if waiting is not None:
                    waiting.discard(victim)
                    if not waiting:
                        del self.orphans_by_missing[ref]
        self.orphan_blocks[bid] = block
        for ref in (block.idp, block.idm, block.idt):
            if ref not in stored:
                self.orphans_by_missing.setdefault(ref, set()).add(bid)

    def _try_insert(self, block: Block) -> bool:
        violation = self.sdag.insert(block)
        if violation is not None:
            self.rejected_blocks += 1
            return False
        if block.mes.kind is not TxKind.EMPTY:
            self.mempool.remove_tx(block.mes.txid())
        return True

    def _drain_orphans(self, arrived: bytes) -> None:
        # depth first, siblings in sorted-id order: this fixes the order of
        # insertion, and with it every artifact of a simulation
        queue = [arrived]
        while queue:
            ready_parent = queue.pop()
            waiting = self.orphans_by_missing.pop(ready_parent, None)
            if not waiting:
                continue
            for bid in sorted(waiting):
                block = self.orphan_blocks.get(bid)
                if block is None:
                    continue
                refs = (block.idp, block.idm, block.idt)
                if any(r not in self.sdag.blocks for r in refs):
                    continue
                del self.orphan_blocks[bid]
                if self._try_insert(block):
                    queue.append(bid)

    def on_tx(self, entry: PoolEntry) -> None:
        """Add a pending transaction; the entry may be shared with other
        nodes."""
        self.mempool.add(entry)

    # -- create path -----------------------------------------------------

    def _estimated_q(self) -> Fraction:
        """estimate_power's share, from the peer count shared per chain tip."""
        tip = self.sdag.chain_tip()
        counts = self.shared.power.get(tip)
        if counts is None:
            counts = self.shared.power[tip] = power_counts(self.sdag)
        return power_share(*counts, self.identity)

    def _pick_tx(self) -> Transaction:
        if self.my_head == GENESIS_ID:
            # a miner's first block opens its reward chain
            return Transaction(
                TxKind.REGISTRATION, next_address=self.scheme.address(self.public)
            )
        cq = self.params.c * self._estimated_q()
        for txid in self.mempool.workable(self.my_head, cq):
            tx = self.mempool.entries[txid].tx
            if self.tx_compatible(tx):
                return tx
        return Transaction(TxKind.EMPTY)

    def create_block(self) -> Block:
        """Build, mine, and locally adopt a new block; caller broadcasts it."""
        for _ in range(8):
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
            try:
                result = mine(
                    template,
                    self.params,
                    DEFAULT_MINE_BUDGET,
                    start_nonce=self.rng.getrandbits(64),
                )
            except MiningExhausted as exc:
                self.mining_attempts += exc.attempts
                continue
            self.mining_attempts += result.attempts
            block = result.block
            violation = self.sdag.insert(block)
            assert violation is None, f"self-created block invalid: {violation}"
            self.my_head = block_id(block)
            if block.mes.kind is not TxKind.EMPTY:
                self.mempool.remove_tx(block.mes.txid())
            return block
        raise MiningExhausted(DEFAULT_MINE_BUDGET * 8)
