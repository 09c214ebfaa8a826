"""The 19-block example DAG: chain, level sets, pending set, ordering."""

from sdag.core import BlockClass, canonical_encode
from sdag.dag import SDag
from sdag.demo import MILESTONES, TABLE, build_demo
from sdag.ledger import dfs_order


def names(demo, ids):
    return [demo.name_of(b) for b in ids]


def test_chain_and_levels(demo):
    sdag = demo.sdag
    assert names(demo, sdag.main_chain) == ["O", "a2", "a1", "b3", "c4", "d5"]
    levels = {
        demo.name_of(ms): set(names(demo, sdag.level_set(ms)))
        for ms in sdag.main_chain
    }
    assert levels == {
        "O": {"O"},
        "a2": {"a2"},
        "a1": {"a1", "a3", "a4", "a5"},
        "b3": {"b2", "b3", "b4", "b5"},
        "c4": {"c3", "c4", "c5"},
        "d5": {"d3", "d4", "d5"},
    }
    assert set(names(demo, sdag.pending_set())) == {"b1", "c1", "c2", "d2"}


def test_classes_match_plan(demo):
    for name, _refs in TABLE:
        cls = demo.sdag.block_class(demo.ids[name])
        want = BlockClass.MILESTONE if name in MILESTONES else BlockClass.REGULAR
        assert cls is want, name


def test_forked_milestone_retained_until_extended(demo):
    # before d5 lands, c2 and c4 tie at height 4 and the incumbent c2 wins;
    # the dump lists the blocks in insertion order, so cut it before d4
    lines = demo.sdag.dumps().splitlines()
    cut = lines.index(canonical_encode(demo.sdag.blocks[demo.ids["d4"]]).hex())
    partial = SDag.load(lines[:cut], demo.params)
    assert names(demo, partial.main_chain) == [
        "O",
        "a2",
        "a1",
        "b3",
        "c2",
    ]


def test_dfs_order_level_two(demo):
    order = names(demo, dfs_order(demo.sdag, demo.ids["a1"]))
    assert order == ["a5", "a4", "a3", "a1"]


def test_dfs_orders_are_permutations(demo):
    sdag = demo.sdag
    for ms in sdag.main_chain[1:]:
        order = dfs_order(sdag, ms)
        assert sorted(order) == sorted(sdag.level_set(ms))
        assert order[-1] == ms  # post-order: the milestone closes its level


def test_rebuild_is_identical(demo):
    again = build_demo()
    assert again.ids == demo.ids
    assert again.sdag.main_chain == demo.sdag.main_chain
