"""DAG storage, validity rules, milestone tree, level sets."""

import io
import itertools
import random
from fractions import Fraction

import pytest

from sdag import core, dag as dag_module
from sdag.core import (
    EMPTY_TX,
    GENESIS_ID,
    Block,
    BlockClass,
    Params,
    TxKind,
    block_id,
    classify_hash,
    decode_block,
    mine,
    sha256,
)
from sdag.dag import DagFacts, SDag, Violation, ViolationKind
from sdag.ledger import resolve_peer_chain

from dagtools import (
    RANDOM_PARAMS,
    RandomPayloads,
    brute_force_confirm,
    dag_signature,
    random_dag,
    reinsert_random_order,
)

EASY = Params(d=Fraction(1, 2), p=Fraction(1, 2))


def mined(sdag_or_params, idp, idm, idt, peer, want=None):
    params = sdag_or_params if isinstance(sdag_or_params, Params) else sdag_or_params.params
    template = Block(idp, idm, idt, peer, 0, EMPTY_TX)
    return mine(template, params, 1_000_000, want=want).block


def test_duplicate_insert_noop(demo):
    sdag = demo.sdag
    before = dag_signature(sdag)
    some = demo.ids["b3"]
    assert sdag.insert(sdag.blocks[some]) is None
    assert dag_signature(sdag) == before


def test_check_violations():
    sdag = SDag(EASY)
    peer_a = sha256(b"A")
    peer_b = sha256(b"B")
    a1 = mined(sdag, GENESIS_ID, GENESIS_ID, GENESIS_ID, peer_a, BlockClass.REGULAR)
    assert sdag.insert(a1) is None
    a1_id = block_id(a1)

    # bad pow: flipped nonce almost surely classifies invalid at d=1/2
    bad = Block(GENESIS_ID, GENESIS_ID, GENESIS_ID, peer_b, 0, EMPTY_TX)
    found = None
    for nonce in range(1000):
        cand = Block(GENESIS_ID, GENESIS_ID, GENESIS_ID, peer_b, nonce, EMPTY_TX)
        if classify_hash(block_id(cand), EASY) is BlockClass.INVALID:
            found = cand
            break
    assert found is not None
    v = sdag.insert(found)
    assert v is not None and v.kind is ViolationKind.BAD_POW
    assert block_id(found) not in sdag

    # missing parent
    ghost = sha256(b"ghost")
    orphan = mined(sdag, ghost, GENESIS_ID, GENESIS_ID, peer_b)
    v = sdag.insert(orphan)
    assert v is not None and v.kind is ViolationKind.MISSING_PARENT

    # peer rule: idp must target the same miner's block
    bad_peer = mined(sdag, a1_id, GENESIS_ID, GENESIS_ID, peer_b)
    v = sdag.insert(bad_peer)
    assert v is not None and v.kind is ViolationKind.PEER_RULE

    # tip rule: idt must be another miner's regular block
    self_tip = mined(sdag, a1_id, GENESIS_ID, a1_id, peer_a)
    v = sdag.insert(self_tip)
    assert v is not None and v.kind is ViolationKind.TIP_RULE

    # ms rule: idm must be milestone-class
    b1 = mined(sdag, GENESIS_ID, a1_id, GENESIS_ID, peer_b)
    v = sdag.insert(b1)
    assert v is not None and v.kind is ViolationKind.MS_RULE


def test_tip_rule_rejects_milestone_target():
    sdag = SDag(EASY)
    peer_a, peer_b = sha256(b"A"), sha256(b"B")
    ms = mined(sdag, GENESIS_ID, GENESIS_ID, GENESIS_ID, peer_a, BlockClass.MILESTONE)
    assert sdag.insert(ms) is None
    bad = mined(sdag, GENESIS_ID, GENESIS_ID, block_id(ms), peer_b)
    v = sdag.insert(bad)
    assert v is not None and v.kind is ViolationKind.TIP_RULE


def test_chain_growth_and_tie_retention():
    sdag = SDag(EASY)
    peer_a, peer_b = sha256(b"A"), sha256(b"B")
    m1 = mined(sdag, GENESIS_ID, GENESIS_ID, GENESIS_ID, peer_a, BlockClass.MILESTONE)
    assert sdag.insert(m1) is None
    m1_id = block_id(m1)
    assert sdag.main_chain == [GENESIS_ID, m1_id]

    # a second height-1 milestone must not displace the incumbent
    m1b = mined(sdag, GENESIS_ID, GENESIS_ID, GENESIS_ID, peer_b, BlockClass.MILESTONE)
    assert sdag.insert(m1b) is None
    assert sdag.main_chain == [GENESIS_ID, m1_id]

    # extending the loser forces a switch
    m2 = mined(sdag, GENESIS_ID, block_id(m1b), GENESIS_ID, peer_a, BlockClass.MILESTONE)
    assert sdag.insert(m2) is None
    assert sdag.main_chain == [GENESIS_ID, block_id(m1b), block_id(m2)]
    assert sdag.height() == 2


def test_rule_level_walk_expands_the_own_chain_reference_before_the_milestone_reference():
    """A level set lists its blocks in breadth-first discovery order from
    its milestone, each block's references taken idp, idm, idt."""
    sdag = SDag(EASY)
    peer_a, peer_b, peer_c = (sha256(name) for name in (b"A", b"B", b"C"))

    def add(idp, idm, idt, peer, want):
        block = mined(sdag, idp, idm, idt, peer, want)
        assert sdag.insert(block) is None
        return block_id(block)

    g = GENESIS_ID
    m1 = add(g, g, g, peer_b, BlockClass.MILESTONE)
    fork = add(g, g, g, peer_c, BlockClass.MILESTONE)  # ties m1; the incumbent stays
    a1 = add(g, m1, g, peer_a, BlockClass.REGULAR)
    x = add(a1, fork, g, peer_a, BlockClass.REGULAR)
    m2 = add(m1, m1, x, peer_b, BlockClass.MILESTONE)
    assert sdag.main_chain == [g, m1, m2]
    # x's own chain a1 is discovered before its milestone reference, the fork
    assert sdag.level_set(m2) == [m2, x, a1, fork]


def test_level_sets_partition_confirmed(demo):
    sdag = demo.sdag
    union = set()
    for lev in sdag.level_sets():
        assert not (set(lev) & union)
        union |= set(lev)
    assert union | sdag.pending_set() == set(sdag.blocks)
    # level sets equal successive confirm-set differences
    prev = set()
    for ms in sdag.main_chain:
        cur = sdag.confirm_set(ms)
        assert set(sdag.level_set(ms)) == cur - prev
        prev |= cur


def test_confirm_set_matches_brute_force_small():
    rng = random.Random(7)
    for _ in range(25):
        sdag = random_dag(rng, n_blocks=50)
        for bid in sdag.blocks:
            assert sdag.confirm_set(bid) == brute_force_confirm(sdag, bid)


def test_level_lookups_match_brute_force():
    rng = random.Random(5)
    reorgs = 0
    for _ in range(10):
        sdag = random_dag(rng, n_blocks=50)
        # replay in storage order: after every insert the main chain is the
        # milestone-parent walk from the highest tip, its levels partition
        # that tip's confirm set, and the previous chain list is untouched
        replay = SDag(sdag.params)
        for block in list(sdag.blocks.values())[1:]:
            before = replay.main_chain
            snapshot = list(before)
            replay.insert(block)
            assert before == snapshot
            walk = []
            cur = replay.chain_tip()
            while cur in replay:
                walk.append(cur)
                cur = replay.blocks[cur].idm
            assert replay.main_chain == walk[::-1]
            assert replay.height() == max(replay.facts.ms_height.values())
            confirmed = list(itertools.chain.from_iterable(replay.level_sets()))
            assert len(confirmed) == len(set(confirmed))
            assert set(confirmed) == brute_force_confirm(replay, replay.chain_tip())
            reorgs += before[-1] not in replay.main_chain
        for bid in sdag.blocks:
            if bid in sdag.main_chain:
                assert sdag.level_index(bid) == sdag.main_chain.index(bid)
            else:  # regular blocks and forked milestones
                with pytest.raises(KeyError):
                    sdag.level_index(bid)
        levels = sdag.level_sets()[1:]
        for count in range(1, len(levels) + 3):
            assert [list(lev) for lev in sdag.recent_levels(count)] == levels[-count:]
    assert reorgs  # some switches left the old tip behind


def test_insertion_order_independence_small():
    rng = random.Random(11)
    done = 0
    while done < 10:
        sdag = random_dag(rng, n_blocks=40)
        heights = [sdag.facts.ms_height[m] for m in sdag.milestone_leaf_set()]
        if heights.count(max(heights)) != 1:
            continue  # tied tips are resolved by arrival, skip
        ref = dag_signature(sdag)
        for _ in range(20):
            assert dag_signature(reinsert_random_order(sdag, rng)) == ref
        done += 1


def test_tip_set_excludes_referenced_and_own(demo):
    sdag = demo.sdag
    for m in (1, 2, 3, 4, 5):
        tips = sdag.tip_set(demo.peers[m])
        for bid in tips:
            assert sdag.blocks[bid].peer != demo.peers[m]
            assert sdag.block_class(bid) is BlockClass.REGULAR
            assert not any(
                bid in (b.idp, b.idm, b.idt) for b in sdag.blocks.values()
            )


def test_dump_load_roundtrip(demo):
    text = demo.sdag.dumps()
    reloaded = SDag.load(io.StringIO(text), demo.params)
    assert dag_signature(reloaded) == dag_signature(demo.sdag)
    assert reloaded.dumps() == text


def test_load_encodes_nothing_and_dumps_the_same_bytes(monkeypatch):
    """A loaded block keeps the bytes it was read from, so loading encodes
    no block or transaction, and the loaded DAG dumps byte for byte."""
    rng = random.Random(23)
    source = random_dag(rng, n_blocks=120, payload=RandomPayloads(6, sha256(b"load-user")))
    text = source.dumps()

    def refuse(*args, **kwargs):
        raise AssertionError("SDag.load encoded a block or a transaction")

    with monkeypatch.context() as m:
        m.setattr(core, "canonical_encode", refuse)
        m.setattr(dag_module, "canonical_encode", refuse)
        m.setattr(core, "_encode_tx", refuse)
        loaded = SDag.load(io.StringIO(text), RANDOM_PARAMS)
    assert loaded.dumps() == text


def test_load_rejects_garbage(demo):
    with pytest.raises(ValueError):
        SDag.load(io.StringIO("zz\n"), demo.params)
    # a block whose parents are missing cannot be loaded
    lines = demo.sdag.dumps().splitlines()
    with pytest.raises(ValueError):
        SDag.load(io.StringIO(lines[-1] + "\n"), demo.params)
    # a registration whose claim flag reads 2, not 0, once loaded as the
    # canonical block, under an id that is not the hash of its line
    k = next(i for i, line in enumerate(lines) if decode_block(bytes.fromhex(line)).mes.kind is TxKind.REGISTRATION)
    raw = bytearray.fromhex(lines[k])
    # the header and payload length take 140 bytes; the claim flag follows
    # the kind byte and the two zero counts
    assert raw[149] == 0
    raw[149] = 2
    lines[k] = raw.hex()
    with pytest.raises(ValueError, match=f"line {k + 1}: flag byte"):
        SDag.load(io.StringIO("\n".join(lines) + "\n"), demo.params)


def test_load_refuses_a_repeated_line(demo):
    """A dump holds each block once, so a line whose block is already
    loaded is refused, not skipped: skipping it would load a text that
    `dumps` does not give back."""
    lines = demo.sdag.dumps().splitlines()
    for k in (0, 5, len(lines) - 1):
        for at in (k + 1, len(lines)):  # right after its first copy, and last
            text = "\n".join(lines[:at] + [lines[k]] + lines[at:]) + "\n"
            with pytest.raises(ValueError, match=f"^line {at + 1}: duplicate block$"):
                SDag.load(io.StringIO(text), demo.params)
    # the genesis is loaded before the first line
    genesis = core.canonical_encode(core.GENESIS).hex()
    with pytest.raises(ValueError, match="^line 1: duplicate block$"):
        SDag.load(io.StringIO(genesis + "\n" + "\n".join(lines) + "\n"), demo.params)


def test_confirm_set_unknown_raises(demo):
    with pytest.raises(KeyError):
        demo.sdag.confirm_set(sha256(b"nope"))
    with pytest.raises(KeyError):
        demo.sdag.level_set(demo.ids["b1"])  # pending, not on the chain


# -- shared block facts ------------------------------------------------------


def rule_breakers(sdag, rng, count):
    """Blocks over `sdag`'s blocks that break the peer, tip or milestone rule."""
    stored = [bid for bid in sdag.blocks if bid != GENESIS_ID]
    regular = [bid for bid in stored if sdag.block_class(bid) is BlockClass.REGULAR]
    milestones = [bid for bid in stored if sdag.block_class(bid) is BlockClass.MILESTONE]
    outsider = sha256(b"outsider")
    out = []
    for k in range(count):
        nonce = rng.getrandbits(64)
        if k % 4 == 0:  # idp targets another miner's block
            out.append(Block(rng.choice(stored), GENESIS_ID, GENESIS_ID, outsider, nonce, EMPTY_TX))
        elif k % 4 == 1:  # idt targets a milestone
            out.append(Block(GENESIS_ID, GENESIS_ID, rng.choice(milestones), outsider, nonce, EMPTY_TX))
        elif k % 4 == 2:  # idt targets the same miner
            idt = rng.choice(regular)
            out.append(Block(GENESIS_ID, GENESIS_ID, idt, sdag.blocks[idt].peer, nonce, EMPTY_TX))
        else:  # idm targets a regular block
            out.append(Block(GENESIS_ID, rng.choice(regular), GENESIS_ID, outsider, nonce, EMPTY_TX))
    return out


def arrivals(blocks, valid, rng):
    """Shuffled passes over `blocks` until every block in `valid` could be
    stored: children often arrive before their parents, and again later."""
    present = {GENESIS_ID}
    seq = []
    while not valid <= present:
        order = blocks[:]
        rng.shuffle(order)
        for block in order:
            seq.append(block)
            bid = block_id(block)
            if bid in valid and all(r in present for r in (block.idp, block.idm, block.idt)):
                present.add(bid)
    return seq


def brute_force_unreferenced(sdag):
    """Held blocks, the genesis aside, that no held block references."""
    held = sdag.block_ids()
    referenced = {r for bid in held for r in sdag._refs(sdag.blocks[bid])}
    return {bid for bid in held if bid != GENESIS_ID and bid not in referenced}


def peer_blocks_by_filter(sdag, peer):
    """The held blocks of `peer`, filtered from the whole storage order."""
    return [bid for bid in sdag.block_ids() if bid != GENESIS_ID and sdag.blocks[bid].peer == peer]


def test_shared_facts_match_private_tables():
    rng = random.Random(13)
    kinds = set()
    for _ in range(6):
        source = random_dag(rng, n_blocks=60)
        valid = set(source.blocks)
        blocks = [b for bid, b in source.blocks.items() if bid != GENESIS_ID]
        blocks += rule_breakers(source, rng, 12)
        facts = DagFacts(RANDOM_PARAMS)
        shared = [SDag(RANDOM_PARAMS, facts) for _ in range(3)]
        private = [SDag(RANDOM_PARAMS) for _ in range(3)]
        feeds = [arrivals(blocks, valid, rng) for _ in range(3)]
        # one arrival per peer in turn, so each inserts blocks the others stored
        for step in itertools.zip_longest(*feeds):
            for block, a, b in zip(step, shared, private):
                if block is not None:
                    stored = len(a)
                    missing = [r for r in (block.idp, block.idm, block.idt) if r not in a]
                    got = a.insert(block)
                    assert got == b.insert(block)
                    if got is not None:
                        kinds.add(got.kind)
                    if missing:
                        assert got == Violation(ViolationKind.MISSING_PARENT, missing[0].hex())
                        assert len(a) == stored
                    assert a._unreferenced == brute_force_unreferenced(a)
                    assert (block_id(block) in a) == (block_id(block) in b.blocks)
                    assert len(a) == len(b) == len(b.blocks)
                    # the private SDag's storage order is its own insert order
                    assert b.block_ids() == list(b.blocks)
                    assert set(a.block_ids()) == set(b.blocks)
                    for x in (a, b):
                        assert x.peer_block_ids(block.peer) == peer_blocks_by_filter(x, block.peer)
        miners = {b.peer for b in blocks}
        # the store holds exactly the valid blocks, each once
        assert facts.blocks == source.blocks
        assert list(facts.serial) == list(facts.blocks)
        for a, b in zip(shared, private):
            assert b.blocks == source.blocks
            assert set(a.block_ids()) == set(b.block_ids()) == set(source.blocks)
            assert a.main_chain == b.main_chain
            assert a.level_sets() == b.level_sets()
            assert a.pending_set() == b.pending_set()
            assert a.milestone_leaf_set() == b.milestone_leaf_set()
            for m in miners:
                assert a.tip_set(m) == b.tip_set(m)
                assert b.peer_block_ids(m) == [
                    bid for bid, blk in b.blocks.items() if blk.peer == m and bid != GENESIS_ID
                ]
                assert set(a.peer_block_ids(m)) == set(b.peer_block_ids(m))
                assert resolve_peer_chain(a, m) == resolve_peer_chain(b, m)
            # the class of a held block is read from the milestone table
            for bid in a.block_ids()[1:]:
                assert a.block_class(bid) is b.block_class(bid) is classify_hash(bid, RANDOM_PARAMS)
    assert kinds == {
        ViolationKind.MISSING_PARENT,
        ViolationKind.PEER_RULE,
        ViolationKind.TIP_RULE,
        ViolationKind.MS_RULE,
    }


def test_shared_level_facts_match_confirm_set_differences():
    """On forked DAGs received in different orders, every level set in the
    shared table is its milestone's confirm set minus its parent's, and
    each block's holder tuple names exactly the milestones whose level sets
    hold it; a block that no level holds has no entry."""
    rng = random.Random(29)
    off_chain = forked_blocks = 0
    for _ in range(8):
        source = random_dag(rng, n_blocks=60)
        blocks = [b for bid, b in source.blocks.items() if bid != GENESIS_ID]
        facts = DagFacts(RANDOM_PARAMS)
        nodes = [SDag(RANDOM_PARAMS, facts) for _ in range(4)]
        feeds = [arrivals(blocks, set(source.blocks), rng) for _ in nodes]
        for step in itertools.zip_longest(*feeds):
            for block, node in zip(step, nodes):
                if block is not None:
                    node.insert(block)
        for node in nodes:
            assert node.main_chain == source.main_chain or node.height() == source.height()
        levels = facts.levels
        assert levels[GENESIS_ID] == (GENESIS_ID,)
        for ms, lev in levels.items():
            if ms == GENESIS_ID:
                continue
            assert set(lev) == source.confirm_set(ms) - source.confirm_set(facts.blocks[ms].idm)
            off_chain += ms not in source.main_chain
        for bid in source.blocks:
            holders = [ms for ms, lev in levels.items() if bid in lev]
            got = facts.level_of.get(bid)
            if bid == GENESIS_ID:
                assert got == (GENESIS_ID,)
            elif not holders:
                assert got is None
            else:
                assert isinstance(got, tuple) and sorted(got) == sorted(holders)
                forked_blocks += len(holders) > 1
        # each node's pending set is what no level of its own chain holds
        for node in nodes:
            confirmed = set(itertools.chain.from_iterable(node.level_sets()))
            assert node.pending_set() == set(node.block_ids()) - confirmed
    # some walked levels lie on forks, and some blocks sit in two of them
    assert off_chain > 0 and forked_blocks > 0


def test_store_grows_every_bitmap():
    """Bitmaps double with the store, also for an SDag that holds nothing
    but the genesis, and the last slot of every bitmap stays empty."""
    rng = random.Random(31)
    source = random_dag(rng, n_blocks=300)
    facts = DagFacts(RANDOM_PARAMS)
    idle, a, b = (SDag(RANDOM_PARAMS, facts) for _ in range(3))
    start = len(idle.held)
    stored = [blk for bid, blk in source.blocks.items() if bid != GENESIS_ID]
    for k, block in enumerate(stored):
        assert a.insert(block) is None
        if k % 2 == 0 or k > len(stored) - 20:
            # b misses half the blocks, so it holds only what it can
            b.insert(block)
    assert len(facts.blocks) == len(source.blocks) > 4 * start
    assert len(idle.held) == len(a.held) == len(b.held) > len(facts.blocks)
    for sdag in (idle, a, b):
        assert sdag.held[-1] == 0
    assert len(idle) == 1 and idle.block_ids() == [GENESIS_ID]
    assert not any(bid in idle for bid in source.blocks if bid != GENESIS_ID)
    assert sha256(b"not a block") not in a
    assert a.block_ids() == list(source.blocks)
    assert b.block_ids() == [bid for bid in source.blocks if bid in b]
    assert len(b) == sum(b.held)
    # the idle SDag still takes blocks after the growth
    assert idle.insert(stored[0]) is None and block_id(stored[0]) in idle and len(idle) == 2


def test_shared_facts_report_bad_pow_before_missing_parents():
    ghost = sha256(b"ghost")
    nonce = 0
    while True:
        block = Block(ghost, GENESIS_ID, GENESIS_ID, sha256(b"A"), nonce, EMPTY_TX)
        if SDag(EASY).insert(block).kind is ViolationKind.BAD_POW:
            break
        nonce += 1
    facts = DagFacts(EASY)
    for sdag in (SDag(EASY, facts), SDag(EASY, facts), SDag(EASY)):
        assert sdag.insert(block).kind is ViolationKind.BAD_POW
        assert len(sdag) == 1 and not sdag._unreferenced


def test_shared_facts_must_match_params():
    facts = DagFacts(RANDOM_PARAMS)
    same = Params(d=Fraction(1), p=Fraction(1, 3), c=Fraction(1, 10), r_n=1, r_m=2)
    assert SDag(same, facts).facts is facts
    with pytest.raises(ValueError):
        SDag(EASY, facts)
