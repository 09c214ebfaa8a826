"""The structured DAG: storage, validity rules, milestone tree, level sets.

Every stored block keeps the closure invariant (all three references resolve
to stored blocks) and the graph stays acyclic.  Milestone-class blocks form
a tree over the idm references; the longest root-to-leaf path is the main
chain, with ties resolved by retaining the incumbent tip.

A block's class and validity verdict depend only on its bytes (given that
its parents are stored), and a milestone's level set only on its ancestry.
`DagFacts` keeps both, so SDags that share one table derive each once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, TextIO

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


class ViolationKind(Enum):
    BAD_POW = "bad-pow"
    MISSING_PARENT = "missing-parent"
    PEER_RULE = "peer-rule"
    TIP_RULE = "tip-rule"
    MS_RULE = "ms-rule"
    CYCLE = "cycle"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: str = ""


class DagFacts:
    """Facts that are pure functions of the blocks, for SDags with the same
    params to share: block id -> (class, verdict with all parents stored),
    and milestone id -> level set (its confirm set minus its parent's, in
    discovery order).  A missing-parent verdict depends on arrival order
    and is never stored."""

    def __init__(self, params: Params):
        self.params = params
        self.verdicts: dict[bytes, tuple[BlockClass, Optional[Violation]]] = {}
        self.levels: dict[bytes, tuple[bytes, ...]] = {}


class SDag:
    """A peer's local structured DAG.

    Single-writer, multiple-reader: call insert from one context only.
    SDags given the same `facts` table validate each block and walk each
    level once between them; without one an SDag keeps a private table.
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
        self.genesis_id = GENESIS_ID
        self.blocks: dict[bytes, Block] = {GENESIS_ID: GENESIS}
        self._unreferenced: set[bytes] = set()
        # milestone tree
        self.ms_parent: dict[bytes, Optional[bytes]] = {GENESIS_ID: None}
        self.ms_height: dict[bytes, int] = {GENESIS_ID: 0}
        self.ms_children: dict[bytes, list[bytes]] = {GENESIS_ID: []}
        # main chain and its level-set partition
        self.main_chain: list[bytes] = [GENESIS_ID]
        self._level_of: dict[bytes, int] = {GENESIS_ID: 0}
        self._level_sets: list[tuple[bytes, ...]] = [(GENESIS_ID,)]

    # -- queries ---------------------------------------------------------

    def __contains__(self, bid: bytes) -> bool:
        return bid in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def block_class(self, bid: bytes) -> Optional[BlockClass]:
        """Hash-band class of a stored block; None for the genesis."""
        return self.facts.verdicts[bid][0] if bid in self.blocks and bid != GENESIS_ID else None

    def height(self) -> int:
        return self.ms_height[self.main_chain[-1]]

    def chain_tip(self) -> bytes:
        return self.main_chain[-1]

    def _refs(self, block: Block) -> tuple[bytes, bytes, bytes]:
        return (block.idp, block.idm, block.idt)

    # -- validity --------------------------------------------------------

    def check_block(self, block: Block, bid: Optional[bytes] = None) -> Optional[Violation]:
        """Syntactic validity of `block` against this DAG; None means ok.

        Checks run in a fixed order so the reported violation is
        deterministic: pow, missing parents, peer rule, tip rule, ms rule,
        cycle.
        """
        if bid is None:
            bid = block_id(block)
        return self._check(block, bid, classify_hash(bid, self.params))

    def _missing(self, block: Block) -> Optional[Violation]:
        for ref in self._refs(block):
            if ref not in self.blocks:
                return Violation(ViolationKind.MISSING_PARENT, ref.hex())
        return None

    def _check(self, block: Block, bid: bytes, cls: BlockClass) -> Optional[Violation]:
        if cls is BlockClass.INVALID:
            return Violation(ViolationKind.BAD_POW, "hash above difficulty threshold")
        missing = self._missing(block)
        if missing is not None:
            return missing
        if block.idp != self.genesis_id:
            target = self.blocks[block.idp]
            if target.peer != block.peer:
                return Violation(ViolationKind.PEER_RULE, "idp targets another miner's block")
        # a stored block other than the genesis has a verdict in the table
        if block.idt != self.genesis_id:
            if self.facts.verdicts[block.idt][0] is not BlockClass.REGULAR:
                return Violation(ViolationKind.TIP_RULE, "idt target is not regular-class")
            if self.blocks[block.idt].peer == block.peer:
                return Violation(ViolationKind.TIP_RULE, "idt targets the same miner")
        if block.idm != self.genesis_id:
            if self.facts.verdicts[block.idm][0] is not BlockClass.MILESTONE:
                return Violation(ViolationKind.MS_RULE, "idm target is not milestone-class")
        if bid in self._refs(block):
            return Violation(ViolationKind.CYCLE, "block references itself")
        return None

    # -- mutation --------------------------------------------------------

    def insert(self, block: Block) -> Optional[Violation]:
        """Add a checked block; duplicate insert is a no-op.  Returns the
        violation if the block is invalid, else None."""
        bid = block_id(block)
        blocks = self.blocks
        if bid in blocks:
            return None
        fact = self.facts.verdicts.get(bid)
        if fact is None:
            cls = classify_hash(bid, self.params)
            v = self._check(block, bid, cls)
            if v is not None and v.kind is ViolationKind.MISSING_PARENT:
                return v
            self.facts.verdicts[bid] = (cls, v)
        else:
            # the stored verdict holds once the parents are here; bad pow
            # is reported before missing parents, as _check does
            cls, v = fact
            if cls is not BlockClass.INVALID and not (
                block.idp in blocks and block.idm in blocks and block.idt in blocks
            ):
                return self._missing(block)
        if v is not None:
            return v
        blocks[bid] = block
        unreferenced = self._unreferenced
        unreferenced.add(bid)
        unreferenced.discard(block.idp)
        unreferenced.discard(block.idm)
        unreferenced.discard(block.idt)
        if cls is BlockClass.MILESTONE:
            parent = block.idm
            height = self.ms_height[parent] + 1
            self.ms_parent[bid] = parent
            self.ms_height[bid] = height
            self.ms_children[bid] = []
            self.ms_children[parent].append(bid)
            if height > self.height():
                self._switch_to(bid)
        return None

    def _switch_to(self, tip: bytes) -> None:
        # walk back from the new tip to the first milestone already on the
        # main chain (the genesis at worst) and splice the branch on there
        chain = self.main_chain
        branch = []
        cur = tip
        while self.ms_height[cur] >= len(chain) or chain[self.ms_height[cur]] != cur:
            branch.append(cur)
            cur = self.ms_parent[cur]
        fork = self.ms_height[cur] + 1
        for lev in self._level_sets[fork:]:
            for bid in lev:
                del self._level_of[bid]
        del self._level_sets[fork:]
        branch.reverse()
        self.main_chain = chain[:fork] + branch
        for k, ms in enumerate(branch, start=fork):
            self._append_level(ms, k)

    def _append_level(self, ms: bytes, index: int) -> None:
        lev = self.facts.levels.get(ms)
        if lev is None:
            lev = self.facts.levels[ms] = self._walk_level(ms, index)
        else:
            self._level_of.update(dict.fromkeys(lev, index))
        self._level_sets.append(lev)

    def _walk_level(self, ms: bytes, index: int) -> tuple[bytes, ...]:
        # BFS over the references of ms, stopping at already-confirmed blocks
        # (the confirm set of its parent milestone); expansion order (idp,
        # idm, idt) keeps discovery deterministic.
        lev: list[bytes] = []
        queue = deque([ms])
        self._level_of[ms] = index
        while queue:
            bid = queue.popleft()
            lev.append(bid)
            for ref in self._refs(self.blocks[bid]):
                if ref not in self._level_of:
                    self._level_of[ref] = index
                    queue.append(ref)
        return tuple(lev)

    # -- derived sets ----------------------------------------------------

    def milestone_leaf_set(self) -> set[bytes]:
        """Milestone-tree nodes (incl. genesis) without a milestone child."""
        return {bid for bid, kids in self.ms_children.items() if not kids}

    def confirm_set(self, ms: bytes) -> set[bytes]:
        """All blocks reachable from ms along references, plus ms itself."""
        if ms not in self.blocks:
            raise KeyError(ms.hex())
        seen = {ms}
        queue = deque([ms])
        while queue:
            bid = queue.popleft()
            for ref in self._refs(self.blocks[bid]):
                # the genesis references the zero hash, which is not a block
                if ref in self.blocks and ref not in seen:
                    seen.add(ref)
                    queue.append(ref)
        return seen

    def level_index(self, ms: bytes) -> int:
        k = self.ms_height.get(ms)
        if k is None or k >= len(self.main_chain) or self.main_chain[k] != ms:
            raise KeyError(f"{ms.hex()} is not on the main chain")
        return k

    def level_set(self, ms: bytes) -> list[bytes]:
        """Blocks confirmed by main-chain milestone ms but by none before it,
        in deterministic discovery order."""
        return list(self._level_sets[self.level_index(ms)])

    def level_sets(self) -> list[list[bytes]]:
        return [list(lev) for lev in self._level_sets]

    def recent_levels(self, count: int) -> list[tuple[bytes, ...]]:
        """The last `count` main-chain level sets (never the genesis
        pseudo-level), oldest first, without copying the levels."""
        return self._level_sets[max(1, len(self._level_sets) - count) :]

    def pending_set(self) -> set[bytes]:
        return {bid for bid in self.blocks if bid not in self._level_of}

    def tip_set(self, miner: bytes) -> set[bytes]:
        """Unreferenced regular-class blocks of other miners; empty means the
        caller falls back to the genesis."""
        return {
            bid
            for bid in self._unreferenced
            if self.facts.verdicts[bid][0] is BlockClass.REGULAR and self.blocks[bid].peer != miner
        }

    # -- serialization ---------------------------------------------------

    def dump(self, fp: TextIO) -> None:
        """One hex-encoded canonical block per line, topological order."""
        for bid, block in self.blocks.items():
            if bid == GENESIS_ID:
                continue
            fp.write(canonical_encode(block).hex() + "\n")

    def dumps(self) -> str:
        import io

        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()

    @classmethod
    def load(cls, fp: Iterable[str], params: Params) -> "SDag":
        sdag = cls(params)
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                block = decode_block(bytes.fromhex(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            v = sdag.insert(block)
            if v is not None:
                raise ValueError(f"line {lineno}: {v.kind.value}: {v.detail}")
        return sdag
