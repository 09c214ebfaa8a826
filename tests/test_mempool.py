"""Mempool assignment, power estimation, collision closed forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from sdag.core import Transaction, TxKind, TxOutput, TxInput, encode_tx, sha256, tx_distance
from sdag.mempool import Mempool, collision_prob, estimate_power, power_share

HEAD = sha256(b"head")


def normal_tx(i):
    return Transaction(
        TxKind.NORMAL,
        inputs=(TxInput(sha256(b"in%d" % i), 0, b"w" * 96),),
        outputs=(TxOutput(1, sha256(b"out")),),
    )


def fill(pool, txs):
    pool.entries.update((tx.txid(), tx) for tx in txs)


def test_workable_threshold_and_order():
    pool = Mempool()
    txs = [normal_tx(i) for i in range(40)]
    fill(pool, txs)
    cq = Fraction(1, 2)
    got = pool.workable(HEAD, cq)
    expect = {tx.txid() for tx in txs if tx_distance(HEAD, tx) <= cq}
    assert set(got) == expect
    # nearest to this head first
    dists = [tx_distance(HEAD, pool.entries[txid]) for txid in got]
    assert dists == sorted(dists)
    assert pool.workable(HEAD, Fraction(0)) == []
    assert set(pool.workable(HEAD, Fraction(1))) == {tx.txid() for tx in txs}


@given(st.integers(0, 2**32))
def test_workable_monotone_in_cq(seed):
    pool = Mempool()
    fill(pool, [normal_tx(seed % 7 * 10 + i) for i in range(10)])
    small = set(pool.workable(HEAD, Fraction(1, 8)))
    large = set(pool.workable(HEAD, Fraction(1, 2)))
    assert small <= large


def oracle_workable(pool, head, cq):
    """`workable` by its definition: exact Fraction distances."""
    hits = []
    for txid, tx in pool.entries.items():
        dist = tx_distance(head, tx)
        if dist <= cq:
            hits.append((dist, txid))
    return [txid for _, txid in sorted(hits)]


def test_workable_integer_boundary():
    pool = Mempool()
    txs = [normal_tx(i) for i in range(20)]
    fill(pool, txs)
    target = txs[7]
    digest = int.from_bytes(sha256(HEAD + encode_tx(target)), "big")
    at = Fraction(digest, 2**256)  # exactly the target's distance
    below = Fraction(digest - 1, 2**256)
    assert target.txid() in pool.workable(HEAD, at)
    assert target.txid() not in pool.workable(HEAD, below)
    for cq in (at, below):
        assert pool.workable(HEAD, cq) == oracle_workable(pool, HEAD, cq)


@given(st.fractions(min_value=0, max_value=1, max_denominator=2**64))
def test_workable_matches_fraction_oracle(cq):
    # denominators other than powers of two make floor(cq * 2**256) round
    pool = Mempool()
    fill(pool, [normal_tx(i) for i in range(12)])
    assert pool.workable(HEAD, cq) == oracle_workable(pool, HEAD, cq)


@given(st.fractions(min_value=1, max_value=4, max_denominator=2**64))
@example(Fraction(1))
@example(1 - Fraction(1, 2**256))  # the largest bound below 1: all-ones bytes
def test_workable_matches_fraction_oracle_when_saturated(cq):
    # c is unbounded and q can be 1, so c*q >= 1 happens: every tx is workable
    pool = Mempool()
    fill(pool, [normal_tx(i) for i in range(12)])
    got = pool.workable(HEAD, cq)
    assert got == oracle_workable(pool, HEAD, cq)
    assert len(got) == len(pool.entries)


def test_shared_entry_is_immutable_and_dropped_per_pool():
    tx = normal_tx(0)
    with pytest.raises(AttributeError):
        tx.outputs = ()
    a, b = Mempool(), Mempool()
    fill(a, [tx])
    fill(b, [tx])
    assert a.entries[tx.txid()] is b.entries[tx.txid()] is tx
    del a.entries[tx.txid()]
    assert tx.txid() not in a.entries and tx.txid() in b.entries


def test_estimate_power_counts_recent_levels(demo):
    sdag = demo.sdag
    q = estimate_power(sdag, demo.peers[1], window=20)
    # miner 1 owns a1 and d-level blocks... count directly
    total = mine = 0
    for lev in sdag.level_sets()[1:]:
        for bid in lev:
            total += 1
            if sdag.blocks[bid].peer == demo.peers[1]:
                mine += 1
    assert q == Fraction(mine, total)
    # window of 1: only the last level set counts
    last = sdag.level_set(sdag.main_chain[-1])
    in_last = sum(1 for b in last if sdag.blocks[b].peer == demo.peers[1])
    q1 = estimate_power(sdag, demo.peers[1], window=1)
    if in_last:
        assert q1 == Fraction(in_last, len(last))
    with pytest.raises(ValueError):
        estimate_power(sdag, demo.peers[1], window=0)


def test_rule_a_miner_with_no_blocks_assumes_an_equal_share():
    """A miner absent from the window assumes an equal split among the
    miners observed there and itself."""
    counts = {sha256(b"x"): 3, sha256(b"y"): 1}
    assert power_share(counts, 4, sha256(b"absent")) == Fraction(1, 3)
    assert power_share(counts, 4, sha256(b"x")) == Fraction(3, 4)


def test_estimate_power_no_data():
    from sdag.dag import SDag
    from sdag.core import Params

    empty = SDag(Params(d=Fraction(1), p=Fraction(1, 2)))
    assert estimate_power(empty, sha256(b"nobody")) == Fraction(1)


def test_collision_closed_forms():
    c = 0.1
    assert collision_prob(c) == pytest.approx(
        1 - math.exp(-c) - c * math.exp(-c), abs=1e-12
    )
    with pytest.raises(ValueError):
        collision_prob(-1.0)


def collision_prob_exact(c, shares):
    """Probability that two or more of the miners with these power shares
    can work a transaction, each independently with probability c*q."""
    none = math.prod(1.0 - c * q for q in shares)
    one = sum(c * q * none / (1.0 - c * q) for q in shares)
    return 1.0 - none - one


def test_exact_forms_converge_to_limit():
    """`collision_prob` is the n -> infinity limit of the product over n
    equal shares; at c = 0.1 they differ by about 0.87/n relative."""
    c = 0.1
    for n in (100, 1000, 10000):
        assert collision_prob_exact(c, [1.0 / n] * n) == pytest.approx(collision_prob(c), rel=1.0 / n)
