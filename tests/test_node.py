"""Node state machine: solidification, block creation, convergence."""

import random
from fractions import Fraction

import pytest

from sdag import node as node_module
from sdag.core import (
    EMPTY_TX,
    GENESIS_ID,
    Block,
    BlockClass,
    MiningExhausted,
    Params,
    Transaction,
    TxInput,
    TxKind,
    TxOutput,
    block_id,
    sha256,
    sighash,
)
from sdag.dag import DagFacts
from sdag.ledger import build_from_dag
from sdag.mempool import estimate_power, power_share
from sdag.node import NodeState
from sdag.sigs import DEFAULT_SCHEME

from dagtools import RANDOM_PARAMS, RandomPayloads, random_dag

PARAMS = Params(d=Fraction(1), p=Fraction(1, 4), c=Fraction(1), r_n=1, r_m=2)

U_SECRET = sha256(b"node-user")
U_PUB = DEFAULT_SCHEME.derive_public(U_SECRET)
U_ADDR = DEFAULT_SCHEME.address(U_PUB)
GENESIS_OUTPUTS = tuple((2, U_ADDR) for _ in range(16))


def make_node(tag, seed=0):
    return NodeState(PARAMS, secret=sha256(tag), seed=seed)


def signed_tx(indices, value, secret=U_SECRET):
    """A normal tx paying `value` to the user from the genesis outputs at
    `indices`, every input signed with `secret`'s key."""
    outputs = (TxOutput(value, U_ADDR),)
    bare = Transaction(TxKind.NORMAL, tuple(TxInput(GENESIS_ID, i, b"") for i in indices), outputs)
    witness = DEFAULT_SCHEME.witness(secret, sighash(bare))
    return Transaction(TxKind.NORMAL, tuple(TxInput(GENESIS_ID, i, witness) for i in indices), outputs)


def user_tx(i, fee=1):
    return signed_tx((i,), 2 - fee)


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
        node.on_tx(user_tx(i))
    # c = 1 and q = 1 with no other miners: everything is workable
    block = node.create_block()
    assert block.mes.kind is TxKind.NORMAL
    assert block.mes.txid() not in node.mempool.entries
    # with an empty pool the node mines an empty payload
    empty_pool_node = make_node(b"n2")
    empty_pool_node.create_block()
    assert empty_pool_node.create_block().mes.kind is TxKind.EMPTY


def test_spent_tx_not_repicked():
    node = make_node(b"n3")
    node.create_block()
    tx = user_tx(0)
    conflict = user_tx(0, fee=0)  # same outpoint, different txid
    node.on_tx(tx)
    block = node.create_block()
    assert block.mes == tx
    assert tx.txid() not in node.mempool.entries
    node.on_tx(conflict)
    # the miner carries it unjudged: the fold rejects the later spend
    assert node.create_block().mes == conflict


def test_create_block_mines_once_and_keeps_its_state_when_exhausted(monkeypatch):
    """One template, one nonce budget: a budget that runs out reaches the
    caller as `MiningExhausted` (once retried on eight templates), and the
    node's head, pool and DAG stay as they were.  So it does for a forger's
    template mined for a class no hash has."""
    node = make_node(b"exhausted")
    node.create_block()  # registration, at d = 1
    node.on_tx(user_tx(0))
    # a workable transaction at a difficulty no 16 nonces meet
    node.params = Params(d=Fraction(1, 2**64), p=PARAMS.p, c=PARAMS.c, r_n=1, r_m=2)
    monkeypatch.setattr(node_module, "DEFAULT_MINE_BUDGET", 16)
    templates = []
    mine = node_module.mine

    def counted(template, *args, **kwargs):
        templates.append(template)
        return mine(template, *args, **kwargs)

    monkeypatch.setattr(node_module, "mine", counted)
    state = (node.my_head, dict(node.mempool.entries), dict(node.sdag.blocks), node.mining_attempts)
    with pytest.raises(MiningExhausted) as exc:
        node.create_block()
    assert exc.value.attempts == 16 and [t.mes for t in templates] == [user_tx(0)]
    assert (node.my_head, node.mempool.entries, node.sdag.blocks, node.mining_attempts) == state
    # `simnet.PeerChainFork`'s template: at p = 1 every valid hash is a milestone
    node.params = Params(d=Fraction(1), p=Fraction(1), c=PARAMS.c, r_n=1, r_m=2)
    victim = make_node(b"victim").identity
    forged = Block(node.my_head, node.sdag.chain_tip(), GENESIS_ID, victim, pow=0, mes=EMPTY_TX)
    with pytest.raises(MiningExhausted) as exc:
        node.mine_block(forged, want=BlockClass.REGULAR)
    assert exc.value.attempts == 16 and templates[1:] == [forged]
    assert (node.my_head, node.mempool.entries, node.sdag.blocks, node.mining_attempts) == state


COMPAT_SECRET = sha256(b"compat")


def redemption_by(secret):
    address = DEFAULT_SCHEME.address(DEFAULT_SCHEME.derive_public(secret))
    bare = Transaction(TxKind.REDEMPTION, (TxInput(bytes(32), 0, b""),), reward_claim=1, next_address=address)
    witness = DEFAULT_SCHEME.witness(secret, sighash(bare))
    return Transaction(TxKind.REDEMPTION, (TxInput(bytes(32), 0, witness),), reward_claim=1, next_address=address)


@pytest.mark.parametrize(
    "tx",
    [
        # these two count only on their own miner's peer chain
        Transaction(TxKind.REGISTRATION, next_address=U_ADDR),
        redemption_by(COMPAT_SECRET),
    ],
    ids=["registration", "redemption"],
)
def test_tx_compatible_rejects_what_the_fold_rejects(tx):
    assert not make_node(b"compat").tx_compatible(tx)


def node_view(node):
    return (
        list(node.sdag.blocks),
        list(node.sdag.main_chain),
        dict(node.orphan_blocks),
        {k: set(v) for k, v in node.orphans_by_missing.items()},
        node.rejected_blocks,
    )


def test_rule_drain_stores_orphans_depth_first_in_id_order():
    """The orphans an arrival completes are stored depth first from the
    last block taken, the blocks waiting on one parent in sorted-id order:
    the order in which a cascade's milestones switch the main chain."""
    a, b, c, d, e, f = (bytes([k]) * 32 for k in range(1, 7))
    waiting_on = {a: {c, b}, b: {d}, c: {e, f}}
    taken = []
    node_module.drain(a, waiting_on, lambda bid: bid != f and not taken.append(bid))
    # a releases b, then c; c, taken last, releases e (f is refused) before
    # b releases d
    assert taken == [b, c, e, d]
    assert waiting_on == {}


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


def test_orphan_cap_eviction(monkeypatch):
    miner = make_node(b"m2", seed=2)
    blocks = [miner.create_block() for _ in range(4)]
    monkeypatch.setattr(node_module, "ORPHAN_CAP", 2)
    node = NodeState(PARAMS, secret=sha256(b"n5"))
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


def test_orphan_flood_evicts_from_its_own_buckets(monkeypatch):
    """5,000 parentless blocks at ORPHAN_CAP=1000: the buckets hold exactly
    the buffered blocks' missing refs, none is left empty, and an evicted
    block is not even tried when its missing parent arrives."""
    miner = make_node(b"m6", seed=6)
    parent = miner.create_block()
    pid = block_id(parent)
    monkeypatch.setattr(node_module, "ORPHAN_CAP", 1000)
    node = NodeState(PARAMS, secret=sha256(b"n6"))
    flood = []
    for i in range(5000):
        if i % 5 == 0:  # waits for the real parent only
            refs = (pid, GENESIS_ID, GENESIS_ID)
        else:  # waits for a junk ref shared with other blocks and its own
            refs = (sha256(b"p%d" % (i % 37)), sha256(b"m%d" % i), GENESIS_ID)
        flood.append(Block(*refs, parent.peer, i, parent.mes))
    for b in flood:
        node.on_receive_block(b)
    ids = [block_id(b) for b in flood]
    assert list(node.orphan_blocks) == ids[-1000:]
    expected = {}
    for bid, b in node.orphan_blocks.items():
        for ref in (b.idp, b.idm, b.idt):
            if ref not in node.sdag.blocks:
                expected.setdefault(ref, set()).add(bid)
    assert node.orphans_by_missing == expected
    assert all(node.orphans_by_missing.values())

    waiting = node.orphans_by_missing[pid]
    node.on_receive_block(parent)
    assert pid in node.sdag.blocks
    assert not any(bid in node.sdag.blocks for bid in ids[:-1000])
    # every buffered child was tried once, and nothing else was
    inserted = sum(bid in node.sdag.blocks for bid in waiting)
    assert inserted + node.rejected_blocks == len(waiting) == 200
    assert not waiting & set(node.orphan_blocks)
    assert pid not in node.orphans_by_missing
    assert all(node.orphans_by_missing.values())


def test_mempool_drained_by_received_blocks():
    miner = make_node(b"m4", seed=4)
    blocks = [miner.create_block()]  # registration
    tx = user_tx(3)
    miner.on_tx(tx)
    node = make_node(b"n7")
    node.on_tx(tx)
    while blocks[-1].mes != tx:
        blocks.append(miner.create_block())
    for b in blocks:
        node.on_receive_block(b)
    assert tx.txid() not in node.mempool.entries


def test_shared_pool_entry_dropped_per_node():
    miner = make_node(b"m5", seed=5)
    node = make_node(b"n8")
    registration = miner.create_block()
    tx = user_tx(4)
    miner.on_tx(tx)
    node.on_tx(tx)
    assert miner.mempool.entries[tx.txid()] is node.mempool.entries[tx.txid()] is tx
    carrier = miner.create_block()
    assert carrier.mes == tx
    # the miner stored the carrying block; the node has not seen it yet
    assert tx.txid() not in miner.mempool.entries and tx.txid() in node.mempool.entries
    node.on_receive_block(carrier)  # buffered: its parent is missing
    assert tx.txid() in node.mempool.entries
    node.on_receive_block(registration)
    assert tx.txid() not in node.mempool.entries


def test_two_nodes_converge():
    a = make_node(b"a", seed=10)
    b = make_node(b"b", seed=11)
    for i in range(8):
        a.on_tx(user_tx(i))
        b.on_tx(user_tx(i))
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


# -- facts shared between nodes --------------------------------------------


def test_shared_power_counts_match_estimate_power():
    """At every state of two nodes sharing their facts and receiving a
    random DAG in different orders, the peer count shared per chain tip
    gives estimate_power's share for every miner."""
    switches = 0
    for seed in range(8):
        rng = random.Random(seed)
        sdag = random_dag(rng, n_blocks=80, params=RANDOM_PARAMS, payload=RandomPayloads(12, U_SECRET))
        in_order = [b for bid, b in sdag.blocks.items() if bid != GENESIS_ID]
        shuffled = in_order[:]
        rng.shuffle(shuffled)
        facts = DagFacts(RANDOM_PARAMS)
        nodes = [NodeState(RANDOM_PARAMS, secret=sha256(tag), facts=facts) for tag in (b"oracle-a", b"oracle-b")]
        for pair in zip(in_order, shuffled):
            for node, block in zip(nodes, pair):
                before = node.sdag.main_chain[:]
                node.on_receive_block(block)
                if node.sdag.main_chain[: len(before)] != before:
                    switches += 1
                assert node._estimated_q() == estimate_power(node.sdag, node.identity)
                counts = facts.power[node.sdag.chain_tip()]
                for miner in counts[0]:
                    assert power_share(*counts, miner) == estimate_power(node.sdag, miner)
        # equal-height tips may differ: the incumbent wins ties
        assert nodes[0].sdag.height() == nodes[1].sdag.height() == sdag.height()
    # the DAGs exercise chain switches
    assert switches >= 8


def test_lone_node_keeps_private_facts():
    a, b = make_node(b"lone-a"), make_node(b"lone-b")
    assert a.sdag.facts is not b.sdag.facts


def test_shared_facts_must_match_the_node():
    facts = DagFacts(PARAMS)
    NodeState(PARAMS, secret=sha256(b"m0"), facts=facts)
    with pytest.raises(ValueError):
        NodeState(RANDOM_PARAMS, secret=sha256(b"m2"), facts=facts)
