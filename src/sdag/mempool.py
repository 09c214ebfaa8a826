"""Outstanding-transaction buffer with distance-based assignment.

A pool is a txid-to-transaction dict, `Mempool.entries`, that its node
edits directly as transactions arrive and blocks carry them off;
`Mempool.workable` is the assignment rule.  A transaction is workable for
a miner only if its hash distance to the miner's chain head falls below
c*q, where q is the miner's estimated share of total hashing power.  The
closed-form collision estimate quantifies how rarely two miners can work
the same transaction.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from .core import HASH_BYTES, SCALE, SCALE_BITS, Transaction, encode_tx
from .dag import SDag

# wide enough that per-miner counts are ~20 at desk scale; narrower windows
# make the share estimate noisy, which visibly depresses assignment throughput
DEFAULT_POWER_WINDOW = 100


class Mempool:
    def __init__(self):
        # txid -> the pending transaction; a transaction is immutable, so
        # one object can sit in many pools at once
        self.entries: dict[bytes, Transaction] = {}

    def workable(self, head_id: bytes, cq: Fraction) -> list[bytes]:
        """Transaction ids with distance <= c*q to the given head, nearest
        first.  The order is head-specific, so miners spread over
        different transactions instead of all racing for the same one.
        Empty list means the miner mines an empty block."""
        if cq <= 0:
            return []
        if len(head_id) != HASH_BYTES:
            raise ValueError("head id must be 32 bytes")
        # tx_distance(head, tx) = N / 2**256 for the digest N read as a
        # big-endian integer, so distance <= cq  <=>  N <= floor(cq * 2**256);
        # 32-byte big-endian digests compare and sort as their integers do;
        # from cq = 1 on the bound passes every digest, so it is capped at
        # the largest one to fit in 32 bytes
        limit = min((cq.numerator << SCALE_BITS) // cq.denominator, SCALE - 1).to_bytes(HASH_BYTES, "big")
        sha = hashlib.sha256
        hits = []
        for txid, tx in self.entries.items():
            digest = sha(head_id + encode_tx(tx)).digest()
            if digest <= limit:
                hits.append((digest, txid))
        hits.sort()
        return [txid for _, txid in hits]


def power_counts(sdag: SDag, window: int = DEFAULT_POWER_WINDOW) -> tuple[dict[bytes, int], int]:
    """Blocks per miner in the last `window` main-chain level sets, and their
    total.  It depends only on the chain tip, so peers may share it."""
    if window < 1:
        raise ValueError("window must be >= 1")
    counts: dict[bytes, int] = {}
    total = 0
    for lev in sdag.recent_levels(window):
        for bid in lev:
            peer = sdag.blocks[bid].peer
            counts[peer] = counts.get(peer, 0) + 1
        total += len(lev)
    return counts, total


def power_share(counts: dict[bytes, int], total: int, miner: bytes) -> Fraction:
    """A miner's hash-power share from `power_counts`.  With no blocks of
    its own, assume an equal split among the observed miners and it (or 1
    with none observed)."""
    if total == 0:
        return Fraction(1)
    mine = counts.get(miner, 0)
    if mine == 0:
        return Fraction(1, len(counts) + 1)
    return Fraction(mine, total)


def estimate_power(sdag: SDag, miner: bytes, window: int = DEFAULT_POWER_WINDOW) -> Fraction:
    """A miner's hash-power share from block counts in the last `window`
    main-chain level sets (`power_counts`, then `power_share`)."""
    return power_share(*power_counts(sdag, window), miner)


def collision_prob(c: float) -> float:
    """Large-n probability that a transaction is workable by two or more
    miners: 1 - e^-c - c e^-c."""
    if c < 0:
        raise ValueError("c must be >= 0")
    return 1.0 - math.exp(-c) - c * math.exp(-c)
