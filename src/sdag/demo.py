"""A hand-laid 19-block, 5-miner example DAG.

The topology exercises every structural feature at once: five peer chains,
a milestone chain of height 5, a forked milestone, cross-chain tip
references, a non-trivial pending set, and per-miner registrations.  Blocks
are named <letter><miner>: the letter is the position on the miner's own
chain (a = first), the digit is the miner (1-5).  "O" is the genesis.

Mining uses d=1/2, p=1/2 with sequential nonces from 0, so the whole DAG is
deterministic and cheap to rebuild; tests and the demo-dag command share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    sha256,
)
from .dag import SDag
from .sigs import DEFAULT_SCHEME

DEMO_PARAMS = Params(
    d=Fraction(1, 2),
    p=Fraction(1, 2),
    c=Fraction(1, 10),
    r_n=1,
    r_m=3,
    delta=Fraction(1, 2),
)

# name -> (idp, idm, idt); listed in insertion order (references resolve
# backward within the list).
TABLE: list[tuple[str, tuple[str, str, str]]] = [
    ("a2", ("O", "O", "O")),
    ("a5", ("O", "O", "O")),
    ("a4", ("O", "a2", "a5")),
    ("a3", ("O", "a2", "a4")),
    ("a1", ("O", "a2", "a3")),
    ("b5", ("a5", "a2", "a3")),
    ("b4", ("a4", "a1", "b5")),
    ("b2", ("a2", "a1", "b4")),
    ("b3", ("a3", "a1", "b2")),
    ("c3", ("b3", "b3", "b2")),
    ("b1", ("a1", "b3", "c3")),
    ("c5", ("b5", "b3", "c3")),
    ("c2", ("b2", "b3", "b1")),
    ("c4", ("b4", "b3", "c5")),
    ("d4", ("c4", "c4", "c5")),
    ("d2", ("c2", "c2", "b1")),
    ("d3", ("c3", "c4", "d4")),
    ("d5", ("c5", "c4", "d3")),
    ("c1", ("b1", "c2", "d2")),
]

# c2 forks the milestone chain at height 4; c4 wins once d5 extends it.
MILESTONES = {"a2", "a1", "b3", "c2", "c4", "d5"}

MINERS = (1, 2, 3, 4, 5)


def miner_of(name: str) -> int:
    return int(name[1])


@dataclass
class DemoDag:
    sdag: SDag
    params: Params
    ids: dict[str, bytes]
    names: dict[bytes, str]
    peers: dict[int, bytes]

    def name_of(self, bid: bytes) -> str:
        return self.names.get(bid, bid.hex()[:8])


def build_demo() -> DemoDag:
    """Build the example DAG, inserting the blocks in `TABLE` order."""
    sdag = SDag(DEMO_PARAMS)
    peers = {
        m: DEFAULT_SCHEME.address(DEFAULT_SCHEME.derive_public(sha256(b"demo-miner-" + bytes([m]))))
        for m in MINERS
    }
    ids: dict[str, bytes] = {"O": GENESIS_ID}
    names: dict[bytes, str] = {GENESIS_ID: "O"}
    for name, (rp, rm, rt) in TABLE:
        m = miner_of(name)
        if name.startswith("a"):
            mes = Transaction(TxKind.REGISTRATION, next_address=peers[m])
        else:
            mes = EMPTY_TX
        template = Block(ids[rp], ids[rm], ids[rt], peers[m], 0, mes)
        want = BlockClass.MILESTONE if name in MILESTONES else BlockClass.REGULAR
        result = mine(template, DEMO_PARAMS, 1_000_000, start_nonce=0, want=want)
        violation = sdag.insert(result.block)
        if violation is not None:
            raise AssertionError(f"demo block {name}: {violation.kind.value}")
        bid = block_id(result.block)
        ids[name] = bid
        names[bid] = name
    return DemoDag(sdag, DEMO_PARAMS, ids, names, peers)
