"""The structured DAG: storage, validity rules, milestone tree, level sets.

Every stored block keeps the closure invariant (all three references resolve
to stored blocks) and the graph stays acyclic.  Milestone-class blocks form
a tree over the idm references; the longest root-to-leaf path is the main
chain, with ties resolved by retaining the incumbent tip.

A stored block's class depends only on its hash, and a milestone's
parent, height and level set only on its ancestry.  `DagFacts` keeps them
with the blocks themselves, so SDags that share one table store and derive
each once and keep only a bitmap of the blocks they hold.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Iterable, Optional, Sequence, TextIO

from .core import (
    GENESIS,
    GENESIS_ID,
    Block,
    BlockClass,
    Params,
    block_id,
    canonical_encode,
    classify_hash,
    decode_block,
)


@contextmanager
def collector_paused():
    """Pause Python's cyclic garbage collector and restore the state it
    found, also as a decorator.  Loading a DAG and folding it allocate
    blocks, transactions, tuples and dicts of bytes by the hundred
    thousand, which hold no reference cycle: reference counting frees all
    of them, while the collector would walk them again on every pass.  Use
    it only around code that makes no cyclic garbage, or the garbage waits
    for the next pass after it.

    On the way out the objects the body left alive move to the oldest
    generation (`gc.freeze` then `gc.unfreeze`, two list merges that also
    reset the young-generation count), so no young pass walks the whole
    freshly loaded DAG; the next full collection still sees them.  If the
    caller has frozen objects of its own, that step is skipped, so they
    stay frozen."""
    enabled = gc.isenabled()
    promote = gc.get_freeze_count() == 0
    gc.disable()
    try:
        yield
    finally:
        if promote:
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


class ViolationKind(Enum):
    BAD_POW = "bad-pow"
    MISSING_PARENT = "missing-parent"
    PEER_RULE = "peer-rule"
    TIP_RULE = "tip-rule"
    MS_RULE = "ms-rule"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: str = ""


class DagFacts:
    """Facts that are pure functions of the blocks, and the one block store
    of the SDags that share the table:
    - `levels`: milestone id -> level set (its confirm set minus its
      parent's, in discovery order; the genesis pseudo-level holds the
      genesis alone);
    - `level_of`: block id -> the tuple of milestones whose level sets
      hold it, in the order they were walked (more than one only when
      forks put it in several; the genesis holds itself);
    - the store: every block that some sharing SDag holds, in first-insert
      order (`blocks`), its serial number (its position there), each
      milestone's height (so a stored block other than the genesis is a
      milestone exactly when `ms_height` holds it, and regular otherwise;
      its parent is its `idm`), and each peer's block ids in store order
      (`by_peer`, the genesis aside);
    - `power`: chain tip -> `mempool.power_counts` of the chain ending
      there, for the tips a node has counted lately (`NodeState`).

    Each SDag marks the serials it holds in a bytearray bitmap, which the
    table keeps for as long as it lives.  The store keeps every bitmap
    longer than the largest serial, doubling them all when it fills, so
    `held[serial.get(bid, -1)]` is a membership test with no length check:
    the last slot is never a serial."""

    def __init__(self, params: Params):
        self.params = params
        self.levels: dict[bytes, tuple[bytes, ...]] = {GENESIS_ID: (GENESIS_ID,)}
        self.level_of: dict[bytes, tuple[bytes, ...]] = {GENESIS_ID: (GENESIS_ID,)}
        self.blocks: dict[bytes, Block] = {GENESIS_ID: GENESIS}
        self.serial: dict[bytes, int] = {GENESIS_ID: 0}
        self.ms_height: dict[bytes, int] = {GENESIS_ID: 0}
        self.by_peer: dict[bytes, list[bytes]] = {}
        self.power: dict[bytes, tuple[dict[bytes, int], int]] = {}
        self._bitmaps: list[bytearray] = []
        self._capacity = 64

    def new_bitmap(self) -> bytearray:
        """A member bitmap holding the genesis only, grown with the store."""
        bitmap = bytearray(self._capacity)
        bitmap[0] = 1
        self._bitmaps.append(bitmap)
        return bitmap

    def add(self, bid: bytes, block: Block, cls: BlockClass) -> int:
        """Store a valid block that no sharing SDag holds yet; its serial."""
        serial = len(self.serial)
        if serial + 1 >= self._capacity:
            grow = bytes(self._capacity)
            for bitmap in self._bitmaps:
                bitmap.extend(grow)
            self._capacity *= 2
        self.blocks[bid] = block
        self.serial[bid] = serial
        self.by_peer.setdefault(block.peer, []).append(bid)
        if cls is BlockClass.MILESTONE:
            self.ms_height[bid] = self.ms_height[block.idm] + 1
        return serial


class SDag:
    """A peer's local structured DAG.

    Single-writer, multiple-reader: call insert from one context only.
    SDags given the same `facts` table share one block store: they store
    each block and walk each level once between them, and each
    keeps only a bitmap of the blocks it holds (`held`), its unreferenced
    blocks and its main chain, whose level sets it reads from the table.
    Without a table an SDag owns its store, so `blocks` is exactly its own
    blocks in insertion order.  On an SDag that shares a store, `blocks` is
    the store: use it to look up a held block only, test membership with
    `bid in sdag` and iterate with `block_ids` or `peer_block_ids`.
    `main_chain` is never changed in place: a chain switch assigns a new
    list, so a reference taken before an insert keeps the chain as it was.
    """

    def __init__(self, params: Params, facts: Optional[DagFacts] = None):
        if facts is None:
            facts = DagFacts(params)
        elif facts.params != params:
            raise ValueError("DagFacts table was made for other params")
        self.params = params
        self.facts = facts
        self.blocks = facts.blocks
        self.held = facts.new_bitmap()
        self._unreferenced: set[bytes] = set()
        self.main_chain: list[bytes] = [GENESIS_ID]

    # -- queries ---------------------------------------------------------

    def __contains__(self, bid: bytes) -> bool:
        return self.held[self.facts.serial.get(bid, -1)] == 1

    def __len__(self) -> int:
        return self.held.count(1)

    def block_ids(self) -> list[bytes]:
        """Held block ids in storage order, the genesis first; parents
        always precede their children."""
        return list(compress(self.facts.serial, self.held))

    def peer_block_ids(self, peer: bytes) -> list[bytes]:
        """The held blocks `peer` mined, in storage order."""
        held, serial = self.held, self.facts.serial
        return [bid for bid in self.facts.by_peer.get(peer, ()) if held[serial[bid]]]

    def block_class(self, bid: bytes) -> Optional[BlockClass]:
        """Hash-band class of a stored block; None for the genesis."""
        if bid == GENESIS_ID or bid not in self:
            return None
        return BlockClass.MILESTONE if bid in self.facts.ms_height else BlockClass.REGULAR

    def height(self) -> int:
        return len(self.main_chain) - 1

    def chain_tip(self) -> bytes:
        return self.main_chain[-1]

    def _refs(self, block: Block) -> tuple[bytes, bytes, bytes]:
        return (block.idp, block.idm, block.idt)

    # -- validity --------------------------------------------------------

    def _check(self, block: Block, cls: BlockClass) -> Optional[Violation]:
        """Syntactic validity of `block`, of hash class `cls`, against this
        DAG; None means ok.  Checks run in a fixed order so the reported
        violation is deterministic: pow, missing parents, peer rule, tip
        rule, ms rule.  No rule checks for a self-reference, which would
        need a SHA-256 fixed point."""
        if cls is BlockClass.INVALID:
            return Violation(ViolationKind.BAD_POW, "hash above difficulty threshold")
        held, serial = self.held, self.facts.serial
        for ref in (block.idp, block.idm, block.idt):
            if not held[serial.get(ref, -1)]:
                return Violation(ViolationKind.MISSING_PARENT, ref.hex())
        if block.idp != GENESIS_ID:
            target = self.blocks[block.idp]
            if target.peer != block.peer:
                return Violation(ViolationKind.PEER_RULE, "idp targets another miner's block")
        # the parents are stored, and `ms_height` holds exactly the stored
        # milestones and the genesis
        ms_height = self.facts.ms_height
        if block.idt != GENESIS_ID:
            if block.idt in ms_height:
                return Violation(ViolationKind.TIP_RULE, "idt target is not regular-class")
            if self.blocks[block.idt].peer == block.peer:
                return Violation(ViolationKind.TIP_RULE, "idt targets the same miner")
        if block.idm not in ms_height:
            return Violation(ViolationKind.MS_RULE, "idm target is not milestone-class")
        return None

    # -- mutation --------------------------------------------------------

    def insert(self, block: Block) -> Optional[Violation]:
        """Add a checked block; duplicate insert is a no-op.  Returns the
        violation if the block is invalid, else None."""
        bid = block_id(block)
        held = self.held
        s = self.facts.serial.get(bid, -1)
        if held[s]:
            return None
        cls = classify_hash(bid, self.params)
        v = self._check(block, cls)
        if v is not None:
            return v
        if s < 0:
            s = self.facts.add(bid, block, cls)  # grows `held` in place
        # `hold` for one block: no parent is the block itself, since a
        # parent that is not held fails the check above
        held[s] = 1
        unreferenced = self._unreferenced
        unreferenced.discard(block.idp)
        unreferenced.discard(block.idm)
        unreferenced.discard(block.idt)
        unreferenced.add(bid)
        if cls is BlockClass.MILESTONE:
            self.adopt(bid)
        return None

    def hold(self, bids: Sequence[bytes], parents: Sequence[Iterable[bytes]], serials: Iterable[int]) -> None:
        """Mark stored blocks held, in bulk: `bids` and their store
        `serials` name valid blocks whose parents are held or among them,
        and `parents` holds one or more lists of their references.  The
        main chain is not touched: `adopt` each milestone among them
        afterwards, in store order."""
        held = self.held
        for s in serials:
            held[s] = 1
        # (old | new) - parents, without growing the set's table by every
        # new block first: a set never shrinks its table
        fresh = set(bids)
        fresh.difference_update(*parents)
        unreferenced = self._unreferenced
        unreferenced.difference_update(*parents)
        unreferenced.update(fresh)

    def adopt(self, ms: bytes) -> None:
        """Switch the main chain to a held milestone if it is higher than
        the tip; on a tie the incumbent stays."""
        if self.facts.ms_height[ms] >= len(self.main_chain):
            self._switch_to(ms)

    def _switch_to(self, tip: bytes) -> None:
        # walk back from the new tip to the first milestone already on the
        # main chain (the genesis at worst) and splice the branch on there
        chain = self.main_chain
        blocks, ms_height = self.blocks, self.facts.ms_height
        branch = []
        cur = tip
        while ms_height[cur] >= len(chain) or chain[ms_height[cur]] != cur:
            branch.append(cur)
            cur = blocks[cur].idm
        fork = ms_height[cur] + 1
        branch.reverse()
        self.main_chain = chain[:fork] + branch
        levels = self.facts.levels
        for ms in branch:
            if ms not in levels:
                levels[ms] = self._walk_level(ms)

    def _confirmed(self, bid: bytes) -> bool:
        """Whether a level set of the main chain holds `bid`."""
        chain, ms_height = self.main_chain, self.facts.ms_height
        for ms in self.facts.level_of.get(bid, ()):
            k = ms_height[ms]
            if k < len(chain) and chain[k] == ms:
                return True
        return False

    def _walk_level(self, ms: bytes) -> tuple[bytes, ...]:
        # BFS over the references of ms, stopping at already-confirmed blocks
        # (the confirm set of its parent milestone, whose levels are all on
        # the main chain by now); expansion order (idp, idm, idt) keeps
        # discovery deterministic.  No level of a later milestone is known
        # yet, so a confirmed block is held by an earlier level.
        blocks, level_of = self.blocks, self.facts.level_of
        lev: list[bytes] = []
        seen = {ms}
        queue = deque([ms])
        while queue:
            bid = queue.popleft()
            lev.append(bid)
            block = blocks[bid]
            for ref in (block.idp, block.idm, block.idt):
                if ref not in seen:
                    seen.add(ref)
                    if not self._confirmed(ref):
                        queue.append(ref)
        for bid in lev:
            level_of[bid] = level_of.get(bid, ()) + (ms,)
        return tuple(lev)

    # -- derived sets ----------------------------------------------------

    def milestone_leaf_set(self) -> set[bytes]:
        """Held milestones (incl. genesis) without a held milestone child."""
        held = {ms for ms in self.facts.ms_height if ms in self}
        return held.difference(self.blocks[ms].idm for ms in held)

    def confirm_set(self, ms: bytes) -> set[bytes]:
        """All blocks reachable from ms along references, plus ms itself."""
        if ms not in self:
            raise KeyError(ms.hex())
        seen = {ms}
        queue = deque([ms])
        while queue:
            bid = queue.popleft()
            for ref in self._refs(self.blocks[bid]):
                # the genesis references the zero hash, which is not a block
                if ref in self and ref not in seen:
                    seen.add(ref)
                    queue.append(ref)
        return seen

    def level_index(self, ms: bytes) -> int:
        k = self.facts.ms_height.get(ms)
        if k is None or k >= len(self.main_chain) or self.main_chain[k] != ms:
            raise KeyError(f"{ms.hex()} is not on the main chain")
        return k

    def level_set(self, ms: bytes) -> list[bytes]:
        """Blocks confirmed by main-chain milestone ms but by none before it,
        in deterministic discovery order; the genesis confirms itself.
        KeyError if ms is not on the main chain."""
        self.level_index(ms)
        return list(self.facts.levels[ms])

    def level_sets(self) -> list[list[bytes]]:
        levels = self.facts.levels
        return [list(levels[ms]) for ms in self.main_chain]

    def recent_levels(self, count: int) -> list[tuple[bytes, ...]]:
        """The last `count` main-chain level sets (never the genesis
        pseudo-level), oldest first, without copying the levels."""
        chain, levels = self.main_chain, self.facts.levels
        return [levels[ms] for ms in chain[max(1, len(chain) - count) :]]

    def pending_set(self) -> set[bytes]:
        """Held blocks that no level set of the main chain holds."""
        return {bid for bid in self.block_ids() if not self._confirmed(bid)}

    def tip_set(self, miner: bytes) -> set[bytes]:
        """Unreferenced regular-class blocks of other miners; empty means the
        caller falls back to the genesis."""
        return {
            bid
            for bid in self._unreferenced
            if bid not in self.facts.ms_height and self.blocks[bid].peer != miner
        }

    # -- serialization ---------------------------------------------------

    def dump(self, fp: TextIO) -> None:
        """One hex-encoded canonical block per line, topological order."""
        for bid in self.block_ids():
            if bid != GENESIS_ID:
                fp.write(canonical_encode(self.blocks[bid]).hex() + "\n")

    def dumps(self) -> str:
        import io

        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()

    @classmethod
    @collector_paused()
    def load(cls, fp: Iterable[str], params: Params) -> "SDag":
        """The SDag of a `dump`, inserting each line in order; a line that
        does not decode or insert, or whose block is already loaded (a
        dump holds each block once), raises ValueError naming it.  Runs
        with the cyclic collector paused (`collector_paused`)."""
        sdag = cls(params)
        serial = sdag.facts.serial
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                block = decode_block(bytes.fromhex(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            stored = len(serial)
            v = sdag.insert(block)
            if v is not None:
                raise ValueError(f"line {lineno}: {v.kind.value}: {v.detail}")
            # the SDag owns its store, which grows by every block it takes
            if len(serial) == stored:
                raise ValueError(f"line {lineno}: duplicate block")
        return sdag
