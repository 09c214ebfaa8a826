"""Node state machine: solidification, block creation, convergence."""

import random
from fractions import Fraction

import pytest

from sdag.core import (
    GENESIS_ID,
    Block,
    BlockClass,
    Params,
    Transaction,
    TxInput,
    TxKind,
    TxOutput,
    block_id,
    sha256,
    sighash,
)
from sdag.ledger import OrderedBlock, build_from_dag, build_ledger, dfs_order
from sdag.mempool import estimate_power, power_share
from sdag.node import NodeState, SharedFacts
from sdag.sigs import DEFAULT_SCHEME

from dagtools import RANDOM_PARAMS, RandomPayloads, random_dag

PARAMS = Params(d=Fraction(1), p=Fraction(1, 4), c=Fraction(1), r_n=1, r_m=2)

U_SECRET = sha256(b"node-user")
U_PUB = DEFAULT_SCHEME.derive_public(U_SECRET)
U_ADDR = DEFAULT_SCHEME.address(U_PUB)
GENESIS_OUTPUTS = tuple((2, U_ADDR) for _ in range(16))


def make_node(tag, seed=0):
    return NodeState(PARAMS, secret=sha256(tag), seed=seed, genesis_outputs=GENESIS_OUTPUTS)


def user_tx(i, fee=1):
    bare = Transaction(
        TxKind.NORMAL,
        inputs=(TxInput(GENESIS_ID, i, b""),),
        outputs=(TxOutput(2 - fee, U_ADDR),),
    )
    witness = U_PUB + DEFAULT_SCHEME.sign(U_SECRET, sighash(bare))
    return Transaction(TxKind.NORMAL, inputs=(TxInput(GENESIS_ID, i, witness),), outputs=bare.outputs)


def test_first_block_is_registration():
    node = make_node(b"n0")
    block = node.create_block()
    assert block.mes.kind is TxKind.REGISTRATION
    assert block.mes.next_address == node.identity
    assert node.my_head == block_id(block)
    assert block_id(block) in node.sdag.blocks


def test_create_block_picks_workable_tx():
    node = make_node(b"n1")
    node.create_block()  # registration first
    for i in range(16):
        node.on_tx(user_tx(i), fee=1)
    # c = 1 and q = 1 with no other miners: everything is workable
    block = node.create_block()
    assert block.mes.kind is TxKind.NORMAL
    assert block.mes.txid() not in node.mempool
    # with an empty pool the node mines an empty payload
    empty_pool_node = make_node(b"n2")
    empty_pool_node.create_block()
    assert empty_pool_node.create_block().mes.kind is TxKind.EMPTY


def test_spent_tx_not_repicked():
    node = make_node(b"n3")
    node.create_block()
    tx = user_tx(0)
    conflict = user_tx(0, fee=0)  # same outpoint, different txid
    node.on_tx(tx, fee=1)
    block = node.create_block()
    assert block.mes == tx
    node.on_tx(conflict, fee=1)
    # ledger at tip does not include the spend yet (no milestone confirmed
    # it), so compatibility is judged against the confirmed ledger only
    nxt = node.create_block()
    assert nxt.mes.kind in (TxKind.NORMAL, TxKind.EMPTY)


def node_view(node):
    return (
        list(node.sdag.blocks),
        list(node.sdag.main_chain),
        dict(node.orphan_blocks),
        {k: set(v) for k, v in node.orphans_by_missing.items()},
        node.rejected_blocks,
    )


def test_orphan_solidification_and_relay_once():
    """A block that arrives before its parent waits in the orphan buffer
    until the parent is stored; a block delivered again, stored or
    buffered, changes nothing."""
    miner = make_node(b"m", seed=1)
    b1 = miner.create_block()
    b2 = miner.create_block()
    b3 = miner.create_block()

    node = make_node(b"n4")
    # deliver out of order: the child is buffered, not stored
    node.on_receive_block(b2)
    assert block_id(b2) not in node.sdag.blocks
    assert node.orphan_blocks == {block_id(b2): b2}
    assert node.orphans_by_missing == {block_id(b1): {block_id(b2)}}

    # re-delivering the buffered orphan changes nothing
    before = node_view(node)
    node.on_receive_block(b2)
    assert node_view(node) == before

    # the parent arrives: both are stored and nothing stays buffered
    node.on_receive_block(b1)
    assert block_id(b1) in node.sdag.blocks and block_id(b2) in node.sdag.blocks
    assert node.orphan_blocks == {}
    assert node.orphans_by_missing == {}

    # re-delivering a stored block changes nothing
    node.on_receive_block(b3)
    before = node_view(node)
    for b in (b1, b2, b3):
        node.on_receive_block(b)
    assert node_view(node) == before
    assert node.rejected_blocks == 0


def test_orphan_cap_eviction():
    miner = make_node(b"m2", seed=2)
    blocks = [miner.create_block() for _ in range(4)]
    node = NodeState(PARAMS, secret=sha256(b"n5"), orphan_cap=2, genesis_outputs=GENESIS_OUTPUTS)
    for b in blocks[1:]:
        node.on_receive_block(b)
    ids = [block_id(b) for b in blocks]
    # FIFO eviction kept the last two
    assert list(node.orphan_blocks) == ids[2:]
    # the evicted block left every bucket, including the one it waited in
    assert all(ids[1] not in waiting for waiting in node.orphans_by_missing.values())
    # its missing parent arrives: the evicted block is not inserted, and the
    # buffered blocks that needed it stay buffered
    node.on_receive_block(blocks[0])
    assert ids[0] in node.sdag.blocks
    assert ids[1] not in node.sdag.blocks
    assert list(node.orphan_blocks) == ids[2:]
    # redelivered, it solidifies everything that waited on it
    node.on_receive_block(blocks[1])
    assert all(bid in node.sdag.blocks for bid in ids)
    assert node.orphan_blocks == {}


def test_mempool_drained_by_received_blocks():
    miner = make_node(b"m4", seed=4)
    blocks = [miner.create_block()]  # registration
    tx = user_tx(3)
    miner.on_tx(tx, fee=1)
    node = make_node(b"n7")
    node.on_tx(tx, fee=1)
    while blocks[-1].mes != tx:
        blocks.append(miner.create_block())
    for b in blocks:
        node.on_receive_block(b)
    assert tx.txid() not in node.mempool


def test_two_nodes_converge():
    a = make_node(b"a", seed=10)
    b = make_node(b"b", seed=11)
    for i in range(8):
        a.on_tx(user_tx(i), fee=1)
        b.on_tx(user_tx(i), fee=1)
    for _ in range(30):
        for src, dst in ((a, b), (b, a)):
            block = src.create_block()
            dst.on_receive_block(block)
    assert a.sdag.main_chain == b.sdag.main_chain
    assert set(a.sdag.blocks) == set(b.sdag.blocks)
    la = build_from_dag(a.sdag, PARAMS, GENESIS_OUTPUTS)
    lb = build_from_dag(b.sdag, PARAMS, GENESIS_OUTPUTS)
    assert la.ledger.utxo_digest() == lb.ledger.utxo_digest()


def test_tip_reference_prefers_other_miner():
    a = make_node(b"a2", seed=20)
    b = make_node(b"b2", seed=21)
    ra = a.create_block()
    b.on_receive_block(ra)
    rb = b.create_block()
    # b's tip set contains a's registration block if it is regular-class
    if a.sdag.block_class(block_id(ra)) is BlockClass.REGULAR:
        assert rb.idt == block_id(ra)


# -- shared per-milestone ledger deltas ------------------------------------


def scratch_fold(sdag, genesis_outputs):
    """The node ledger by its definition, build_ledger over the whole main
    chain from genesis, and each level's net change as seen in that fold."""
    ledger = build_ledger([], genesis_outputs)
    deltas = {}
    for k, ms in enumerate(sdag.main_chain[1:], start=1):
        utxo, ids = dict(ledger.utxo), set(ledger.accepted_ids)
        items = []
        for bid in dfs_order(sdag, ms):
            tx = sdag.blocks[bid].mes
            if tx.kind is not TxKind.EMPTY:
                items.append((tx, OrderedBlock(bid, k)))
        build_ledger(items, scheme=DEFAULT_SCHEME, into=ledger)
        deltas[ms] = (
            {op: v for op, v in utxo.items() if op not in ledger.utxo},
            {op: v for op, v in ledger.utxo.items() if op not in utxo},
            ledger.accepted_ids - ids,
        )
    return ledger, deltas


def test_shared_level_deltas_match_scratch_fold():
    genesis = tuple((2, U_ADDR) for _ in range(12))
    switches = 0
    reasons = set()
    for seed in range(8):
        rng = random.Random(seed)
        sdag = random_dag(rng, n_blocks=80, params=RANDOM_PARAMS, payload=RandomPayloads(len(genesis), U_SECRET))
        in_order = [b for bid, b in sdag.blocks.items() if bid != GENESIS_ID]
        shuffled = in_order[:]
        rng.shuffle(shuffled)
        shared = SharedFacts(RANDOM_PARAMS, genesis)
        table = shared.level_deltas
        nodes = [
            NodeState(RANDOM_PARAMS, secret=sha256(tag), genesis_outputs=genesis, shared=shared)
            for tag in (b"oracle-a", b"oracle-b")
        ]
        for pair in zip(in_order, shuffled):
            for node, block in zip(nodes, pair):
                before = node.sdag.main_chain[:]
                node.on_receive_block(block)
                if node.sdag.main_chain[: len(before)] != before:
                    switches += 1
                expect, deltas = scratch_fold(node.sdag, genesis)
                got = node.ledger_cache
                assert got.utxo == expect.utxo
                assert got.accepted_ids == expect.accepted_ids
                for ms, delta in deltas.items():
                    assert table[ms] == delta
                # the peer count shared per tip gives estimate_power's share
                assert node._estimated_q() == estimate_power(node.sdag, node.identity).q
                counts = shared.power[node.sdag.chain_tip()]
                for miner in counts[0]:
                    assert power_share(*counts, miner) == estimate_power(node.sdag, miner).q
        # equal-height tips may differ: the incumbent wins ties
        assert nodes[0].sdag.height() == nodes[1].sdag.height() == sdag.height()
        assert set(table) <= {bid for bid in sdag.blocks if sdag.block_class(bid) is BlockClass.MILESTONE}
        reasons |= {e.reason for e in expect.entries}
    # the DAGs exercise chain switches and every rejection the fold makes
    assert switches >= 8
    assert {"", "duplicate", "input not in utxo", "bad signature", "outputs exceed inputs"} <= reasons


def test_lone_node_keeps_a_private_delta_table():
    a, b = make_node(b"lone-a"), make_node(b"lone-b")
    assert a.level_deltas is not b.level_deltas
    assert a.sdag.facts is not b.sdag.facts


def test_shared_facts_must_match_the_node():
    shared = SharedFacts(PARAMS, GENESIS_OUTPUTS)
    NodeState(PARAMS, secret=sha256(b"m0"), genesis_outputs=GENESIS_OUTPUTS, shared=shared)
    with pytest.raises(ValueError):
        NodeState(PARAMS, secret=sha256(b"m1"), genesis_outputs=GENESIS_OUTPUTS[1:], shared=shared)
    with pytest.raises(ValueError):
        NodeState(RANDOM_PARAMS, secret=sha256(b"m2"), genesis_outputs=GENESIS_OUTPUTS, shared=shared)
