"""Discrete-event simulator: determinism, convergence, adversaries."""

import dataclasses
import hashlib
import heapq
import itertools
import random
import sys

import pytest

from sdag import cli, node as node_module, simnet
from sdag.core import BlockClass, TxKind, block_id, classify_hash
from sdag.dag import DagFacts
from sdag.ledger import build_from_dag, verify_normal
from sdag.mempool import power_counts
from sdag.node import POWER_KEEP_DEPTH, NodeState
from sdag.simnet import (
    MAX_EXPECTED_BLOCKS,
    MAX_EXPECTED_TXS,
    MAX_NODES,
    MEMPOOL_SAMPLES,
    PeerChainFork,
    PrivateMilestoneFork,
    SimConfig,
    Simulation,
    common_prefix_violations,
    run,
)

SMALL = SimConfig(
    n=5,
    mu=0.1,
    p=0.2,
    c=1.0,
    lam=0.5,
    t0=0.5,
    horizon=150.0,
    seed=42,
    finality_depth=3,
)


def small(**kw):
    return dataclasses.replace(SMALL, **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        small(n=0).validate()
    with pytest.raises(ValueError):
        small(p=0.0).validate()
    with pytest.raises(ValueError):
        small(adversary_share=0.2).validate()  # needs a strategy
    with pytest.raises(ValueError):
        small(adversary_strategy=PrivateMilestoneFork()).validate()  # needs a share
    with pytest.raises(ValueError):
        small(delay_curve="nope").validate()
    # the genesis would fund 1.5 outputs per expected transaction
    for huge in (small(horizon=1e13), small(lam=1e9), small(lam=1e300, horizon=1e300)):
        with pytest.raises(ValueError, match="expected transactions"):
            huge.validate()
    small(lam=1.0, horizon=float(MAX_EXPECTED_TXS)).validate()
    # each node holds about 4.8 KB before the first event
    with pytest.raises(ValueError, match="n must be in"):
        small(n=MAX_NODES + 1).validate()
    small(n=MAX_NODES, horizon=1.0).validate()
    # each expected block costs about 3 KB
    for huge in (small(mu=1e20), small(mu=1e300), small(n=MAX_NODES)):
        with pytest.raises(ValueError, match="expected blocks"):
            huge.validate()
    small(mu=MAX_EXPECTED_BLOCKS / 1000, horizon=200.0).validate()
    with pytest.raises(ValueError):
        small(
            adversary_share=0.2, adversary_strategy=PeerChainFork(victim=99)
        ).validate()


def test_membership_bitmap_cells_are_bounded():
    """Every node keeps a bitmap cell per stored block, so n = 10**5 nodes
    at 10**6 expected blocks would need 100-200 GB.  Only `validate` runs."""
    with pytest.raises(ValueError, match="bitmap cells"):
        small(n=MAX_NODES, mu=0.01, horizon=1000.0).validate()
    # the n = 1000 desk run for 2000 s (4 * 10**7 cells), and the n = 100
    # config with the paper's ratios run to steady state
    SimConfig(n=1000, horizon=2000.0).validate()
    SimConfig(n=100, mu=1.2, p=1 / 1200, c=0.01, lam=100.0, t0=5.0, horizon=600.0).validate()
    small(n=1000, mu=MAX_EXPECTED_BLOCKS / 1000, horizon=1.0).validate()


def utxo_digests(sim):
    """The UTXO digest of each honest node's own DAG, folded after a run."""
    return [
        build_from_dag(node.sdag, sim.params, sim.genesis_outputs).ledger.utxo_digest()
        for node in sim.nodes
    ]


def test_same_seed_same_trace():
    sim1, sim2 = Simulation(small()), Simulation(small())
    m1, m2 = sim1.run(), sim2.run()
    assert m1.blocks_created == m2.blocks_created
    assert m1.chain_height == m2.chain_height
    assert m1.duplicate_count == m2.duplicate_count
    assert m1.queueing_latency == m2.queueing_latency
    assert utxo_digests(sim1) == utxo_digests(sim2)
    m3 = run(small(seed=43))
    assert (m3.blocks_created, m3.chain_height) != (m1.blocks_created, m1.chain_height)


def test_full_delivery_converges():
    sim = Simulation(small())
    m = sim.run()
    # the nodes' UTXO digests agree after the event queue fully drains
    assert len(set(utxo_digests(sim))) == 1
    assert m.common_prefix_violations == 0
    assert m.chain_height > 0
    assert m.tps_effective > 0


def test_metrics_row_is_flat():
    m = run(small())
    row = m.row()
    assert row["seed"] == 42
    assert row["n"] == 5
    assert all(not isinstance(v, (list, dict)) for v in row.values())


def test_queueing_and_infection_samples_plausible():
    m = run(small())
    assert m.queueing_latency and all(s >= 0 for s in m.queueing_latency)
    assert m.infection_latency and all(s >= 0 for s in m.infection_latency)
    horizon = SMALL.horizon
    assert all(s <= horizon for s in m.infection_latency)


def test_queueing_latency_is_first_carry_minus_arrival():
    """One sample per carried transaction, in txid order: the creation time
    of the earliest block that carries it minus the time its arrival event
    was handled."""
    sim = Simulation(small())
    arrived = {}
    handle_tx = sim._handle_tx

    def recorded(t):
        before = len(sim.tx_log)
        handle_tx(t)
        arrived.update((txid, t) for txid, _tx in sim.tx_log[before:])

    sim._handle_tx = recorded
    m = sim.run()
    carried = {}
    for bid, t in sim.created_at.items():
        tx = sim.facts.blocks[bid].mes
        if tx.kind is TxKind.NORMAL:
            carried[tx.txid()] = min(t, carried.get(tx.txid(), t))
    assert len(carried) > 10
    assert m.queueing_latency == [carried[txid] - arrived[txid] for txid in sorted(carried)]


def pairwise_prefix_violations(chains, depth):
    """Every pair of chains, each cut `depth` short, compared directly."""
    bad = 0
    for i in range(len(chains)):
        a = chains[i][: max(len(chains[i]) - depth, 1)]
        for j in range(i + 1, len(chains)):
            b = chains[j][: max(len(chains[j]) - depth, 1)]
            short, long_ = (a, b) if len(a) <= len(b) else (b, a)
            if long_[: len(short)] != short:
                bad += 1
    return bad


def test_common_prefix_violations_match_pairwise_oracle():
    rng = random.Random(17)
    violated = repeated = 0
    for _ in range(300):
        # branches off one trunk; each node holds one branch cut at a random
        # height, so the set has equal chains, prefixes and forks
        trunk = [b"genesis"] + [b"t%d" % k for k in range(rng.randrange(6))]
        branches = [
            trunk + [b"b%d-%d" % (i, k) for k in range(rng.randrange(8))]
            for i in range(rng.randrange(1, 4))
        ]
        chains = []
        for _ in range(rng.randrange(25)):
            branch = rng.choice(branches)
            chains.append(branch[: rng.randrange(1, len(branch) + 1)])
        depth = rng.randrange(5)
        want = pairwise_prefix_violations(chains, depth)
        assert common_prefix_violations(chains, depth) == want
        violated += want > 0
        repeated += len({tuple(c) for c in chains}) < len(chains)
    assert violated > 50 and repeated > 50


def test_counters_account_for_an_honest_run():
    cfg = small()
    m = run(cfg)
    c = m.counters
    assert c["orphans_evicted"] == 0 and c["rejected_blocks"] == 0
    # without an adversary every mine event makes one block, and the
    # drained queue delivers it to, and has it stored by, every node
    assert c["events"]["mine"] == m.blocks_created
    assert c["deliveries"] == c["events"]["deliver"] == (cfg.n - 1) * m.blocks_created
    assert c["inserts"] == cfg.n * m.blocks_created
    assert c["events"]["sample"] == MEMPOOL_SAMPLES
    assert c["reorgs"] == m.reorg_count
    assert c["mining_attempts"] >= m.blocks_created
    assert 0 < c["orphan_peak_per_node"] <= c["orphans_buffered"]
    assert run(cfg).counters == c


# many orphans, cascades and reorgs: long delays against a fast block rate
ORPHAN_HEAVY = dict(n=20, mu=0.5, p=0.2, t0=6.0, horizon=100.0)


def replay_deliveries(cfg):
    """Run `cfg`, recording each event the simulator handles, every block
    made and every broadcast, then replay the run's own blocks through
    fresh nodes, one per receiver (the adversary last), as a simulator with
    one heap event per delivery would: one `on_receive_block` per delivery,
    popped in heap order among the recorded events (a delivery due at the
    time of the event that made it, as with the `instant` curve, goes
    next).  Each delay is drawn again from the master generator's state
    before the broadcast, one float per receiver.  A maker inserts its
    block when it makes it, after checking that the block was made on the
    replayed state: its parents held, its milestone parent the chain tip
    and its transaction pending.  The public height the adversary reads is
    the best height of the replayed honest nodes.  At each delivery to the
    adversary its chain tip stays or moves to an honest block, so it could
    not release then.  Returns the simulation, its metrics and the
    replay's nodes, honest horizon chains, honest reorg count and depth,
    the most blocks and milestones one delivery stored, the most blocks
    delivered to one node at one instant and milestones among them after a
    regular block delivered first, and the deliveries that moved the
    adversary's tip."""
    sim = Simulation(cfg)
    n = cfg.n
    steps = []  # per handled event: its heap key and what it did to receivers

    def record(name, key):
        handler = getattr(sim, name)

        def recorded(*args):
            steps.append((key(*args), []))
            before = len(sim.tx_log)
            handler(*args)
            steps[-1][1].extend(("tx", tx) for _txid, tx in sim.tx_log[before:])

        setattr(sim, name, recorded)

    record("_handle_tx", lambda t: (t, 0, 0))
    record("_handle_mine", lambda i, t: (t, 2, i))
    record_block, broadcast = sim._record_block, sim._broadcast
    public_height = getattr(sim.adversary, "public_height", None)

    def recording_record_block(block, t):
        maker = steps[-1][0][2]
        steps[-1][1].append(("own", maker, block))
        return record_block(block, t)

    def recording_broadcast(block, t, skip):
        state = sim.master.getstate()
        broadcast(block, t, skip)
        rng = random.Random()
        rng.setstate(state)
        for j in range(len(sim.receivers)):
            if j != skip:
                steps[-1][1].append(("deliver", t + sim.curve.inverse(rng.random()), j, block))

    def recording_public_height(t):
        height = public_height(t)
        steps[-1][1].append(("public", height))
        return height

    sim._record_block, sim._broadcast = recording_record_block, recording_broadcast
    if public_height is not None:
        sim.adversary.public_height = recording_public_height
    m = sim.run()

    facts = DagFacts(sim.params)
    nodes = [NodeState(sim.params, secret=b"replay-%d" % j, facts=facts) for j in range(len(sim.receivers))]
    horizon_chains = None
    reorgs = depth = widest = most_milestones = adversary_moves = 0
    at_instant = {}  # (time, node) -> classes of the blocks delivered then

    def deliver(t, j, block):
        nonlocal reorgs, depth, widest, most_milestones, adversary_moves
        node = nodes[j]
        old, size, buffered = node.sdag.main_chain, len(node.sdag), set(node.orphan_blocks)
        node.on_receive_block(block)
        new = node.sdag.main_chain
        widest = max(widest, len(node.sdag) - size)
        stored = (buffered - set(node.orphan_blocks)) | {block_id(block)}
        milestones = sum(node.sdag.block_class(bid) is BlockClass.MILESTONE for bid in stored)
        most_milestones = max(most_milestones, milestones)
        cls = classify_hash(block_id(block), sim.params)
        at_instant.setdefault((t, j), []).append(cls)
        if j == n:
            if new[-1] != old[-1]:
                assert new[-1] not in sim.adversary_block_ids
                adversary_moves += 1
        elif new is not old and cls is BlockClass.MILESTONE:
            fork = 0
            while fork < min(len(old), len(new)) and old[fork] == new[fork]:
                fork += 1
            if fork < len(old):
                reorgs += 1
                depth = max(depth, len(old) - fork)

    def snapshot_at(t):
        nonlocal horizon_chains
        if horizon_chains is None and t > cfg.horizon:
            horizon_chains = [node.sdag.main_chain for node in nodes[:n]]

    heap = []
    pushed = itertools.count()  # the push order breaks ties, as `seq` did
    for key, effects in steps:
        while heap and heap[0][:3] < key:
            t, _rank, j, _seq, block = heapq.heappop(heap)
            snapshot_at(t)
            deliver(t, j, block)
        snapshot_at(key[0])
        for effect in effects:
            if effect[0] == "tx":
                for node in nodes:
                    node.on_tx(effect[1])
            elif effect[0] == "own":
                _kind, maker, block = effect
                node = nodes[maker]
                assert all(ref in node.sdag for ref in (block.idp, block.idm, block.idt))
                assert block.idm == node.sdag.chain_tip()
                assert block.mes.kind is not TxKind.NORMAL or block.mes.txid() in node.mempool.entries
                assert node.sdag.insert(block) is None
                node.mempool.remove_all([block.mes.txid()])
            elif effect[0] == "public":
                assert effect[1] == max(node.sdag.height() for node in nodes[:n])
            else:
                _kind, t, j, block = effect
                heapq.heappush(heap, (t, 1, j, next(pushed), block))
    while heap:
        t, _rank, j, _seq, block = heapq.heappop(heap)
        snapshot_at(t)
        deliver(t, j, block)
    if horizon_chains is None:
        horizon_chains = [node.sdag.main_chain for node in nodes[:n]]
    batch = max(len(classes) for classes in at_instant.values())
    crowded = max(
        (classes.count(BlockClass.MILESTONE) for classes in at_instant.values() if classes[0] is BlockClass.REGULAR),
        default=0,
    )
    return sim, m, nodes, horizon_chains, reorgs, depth, (widest, most_milestones), (batch, crowded), adversary_moves


# the adversary's released branch reaches every honest node at one instant:
# each block of it is a delivery of its own, none an orphan
DEGENERATE = dict(ORPHAN_HEAVY, adversary_share=0.3, adversary_strategy=PrivateMilestoneFork(), seed=0)
PEER_CHAIN_FORK = dict(ORPHAN_HEAVY, adversary_share=0.3, adversary_strategy=PeerChainFork(victim=0))


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        ORPHAN_HEAVY,
        # at this seed 17 of 20 chains move after the horizon
        dict(ORPHAN_HEAVY, adversary_share=0.3, adversary_strategy=PrivateMilestoneFork(), seed=2),
        dict(DEGENERATE, delay_curve="step"),
        dict(DEGENERATE, delay_curve="instant"),
        PEER_CHAIN_FORK,
        dict(PEER_CHAIN_FORK, delay_curve="step"),
    ],
    ids=["small", "orphan-heavy", "private-milestone-fork", "step", "instant", "peer-chain-fork", "peer-chain-fork-step"],
)
def test_store_times_match_per_delivery_replay(overrides, monkeypatch):
    """Brute-force oracle of the store-time vectors and bulk catch-up, for
    the honest nodes and the adversary alike."""
    # fold orphan arrivals and stores into the counts many times a run
    monkeypatch.setattr(simnet, "ORPHAN_EVENT_BATCH", 64)
    cfg = small(**overrides)
    sim, m, nodes, horizon_chains, reorgs, depth, (widest, milestones), (batch, crowded), moves = replay_deliveries(cfg)
    assert len(sim.receivers) == len(nodes) == cfg.n + (cfg.adversary_strategy is not None)
    assert sim.chains_at_horizon == horizon_chains
    for ours, replayed in zip(sim.receivers, nodes):
        assert ours.sdag.main_chain == replayed.sdag.main_chain
        assert set(ours.sdag.block_ids()) == set(replayed.sdag.block_ids())
        assert ours.sdag.tip_set(b"") == replayed.sdag.tip_set(b"")
        assert set(ours.mempool.entries) == set(replayed.mempool.entries)
    assert (m.reorg_count, m.max_reorg_depth) == (reorgs, depth)
    assert list(sim.orphans_buffered) == [node.orphans_buffered for node in nodes]
    assert list(sim.orphan_peak) == [node.orphan_peak for node in nodes]
    assert sum(node.orphans_evicted for node in nodes) == 0
    # not vacuous: some delivery released a cascade, or several blocks were
    # delivered to one node at one instant, and chains reorganised (or the
    # adversary released its branch, or forged blocks); with many orphans,
    # some cascade stored several milestones, whose order the drain replay
    # fixes; deliveries moved the adversary's tip (unless, under `step`, its
    # private branch, which it holds without delay, stayed ahead of every
    # honest milestone), and with generic delays it buffered orphans too
    private = isinstance(cfg.adversary_strategy, PrivateMilestoneFork)
    if cfg.delay_curve in ("step", "instant"):
        assert widest == 1 and (batch >= 2 or not private)
    else:
        assert widest >= 2
    if private:
        assert m.adversary_releases >= 1
    elif cfg.adversary_strategy is not None:
        assert m.adversary_blocks >= 1
    else:
        assert reorgs >= 1
    if cfg.adversary_strategy is not None:
        assert moves >= 1 or (private and cfg.delay_curve == "step")
        if cfg.delay_curve == "quadratic":
            assert nodes[-1].orphans_buffered > 0
    if overrides is ORPHAN_HEAVY:
        assert widest >= 4 and milestones >= 2 and reorgs > 100
    if cfg.delay_curve == "step" and private:
        # a released branch of several milestones, led by a regular block
        assert crowded >= 2 and reorgs > 100


def first_store_pushes(cfg, monkeypatch):
    """Run `cfg` and return every (first honest store time, height) pair it
    pushed on a heap: each milestone first-store time the run recorded."""
    pushed = []
    push = heapq.heappush

    def counted(heap, item):
        if len(item) == 2:
            pushed.append(item)
        push(heap, item)

    with monkeypatch.context() as patch:
        patch.setattr(simnet.heapq, "heappush", counted)
        run(cfg)
    return pushed


def test_only_the_private_fork_records_milestone_first_stores(monkeypatch):
    """Only `PrivateMilestoneFork` reads the public height, so a run with no
    adversary or with `PeerChainFork` keeps no milestone first-store time
    (a desk run, seed 0 for 1000 s, makes 107 milestones)."""
    assert first_store_pushes(small(**ORPHAN_HEAVY), monkeypatch) == []
    assert first_store_pushes(small(**PEER_CHAIN_FORK), monkeypatch) == []
    private = first_store_pushes(small(**DEGENERATE), monkeypatch)
    assert private and all(isinstance(t, float) and isinstance(h, int) for t, h in private)


def test_store_window_catches_laggards_up_early(monkeypatch):
    """At the window's size limit, the nodes that hold back the oldest rows
    are caught up early so the rows can go; no output changes."""
    cfg = small(**ORPHAN_HEAVY)
    calls = []

    def counted_run():
        sim = Simulation(cfg)
        catch_up = sim._catch_up
        sim._catch_up = lambda j, until: calls.append(j) or catch_up(j, until)
        m = sim.run()
        return m, len(calls), sim.times

    m, early, times = counted_run()
    assert len(times.s) <= 2 * times.limit < m.blocks_created
    monkeypatch.setattr(simnet, "STORE_WINDOW_ROWS_PER_NODE", m.blocks_created)
    calls.clear()
    wide, late, wide_times = counted_run()
    assert wide_times.limit > m.blocks_created
    assert early > late
    assert m == wide


def test_orphan_cap_is_checked(monkeypatch):
    """A node that would buffer more orphans than its cap, where the
    per-delivery path would evict one, stops the run with a ValueError: the
    input is outside what the simulator models.  Holding exactly the cap is
    fine."""
    peak = run(small(**ORPHAN_HEAVY)).counters["orphan_peak_per_node"]
    assert peak > 2
    monkeypatch.setattr(node_module, "ORPHAN_CAP", 2)
    with pytest.raises(ValueError, match="orphan_cap of 2"):
        run(small(**ORPHAN_HEAVY))
    monkeypatch.setattr(node_module, "ORPHAN_CAP", peak)
    assert run(small(**ORPHAN_HEAVY)).counters["orphan_peak_per_node"] == peak
    monkeypatch.setattr(node_module, "ORPHAN_CAP", peak - 1)
    with pytest.raises(ValueError, match="orphan_cap"):
        run(small(**ORPHAN_HEAVY))


def test_orphan_folds_sort_each_event_a_bounded_number_of_times(monkeypatch):
    """With more orphan events in the future than a batch, every broadcast
    once re-sorted all of them: 2,993 folds sorted 982,596 events for the
    49,514 events of this run.  A fold waits for twice what the last one
    carried, so each event is sorted at most twice, or three times counting
    the final fold."""
    monkeypatch.setattr(simnet, "ORPHAN_EVENT_BATCH", 64)
    sim = Simulation(small(**dict(ORPHAN_HEAVY, horizon=300.0, seed=1)))
    fold, sorted_sizes = sim._fold_orphans, []

    def counted_fold(before):
        sorted_sizes.append(sim.orphan_events_size)
        fold(before)

    sim._fold_orphans = counted_fold
    m = sim.run()
    events = 2 * m.counters["orphans_buffered"]
    assert events > 100 * 64
    assert sum(sorted_sizes) <= 3 * events


def test_broadcast_of_an_unstored_block_is_an_error():
    sim = Simulation(small())
    block = sim.nodes[0].create_block()
    other = Simulation(small())
    # a program fault, not bad input: main shows its traceback
    with pytest.raises(RuntimeError, match="is not in the shared store"):
        other._broadcast(block, 1.0, 0)


def test_shared_power_counts_stay_bounded(monkeypatch):
    """The power counts shared per chain tip are kept only near the highest
    tip, so their number does not grow with the run, and no tip is counted
    twice."""
    peaks = []
    for horizon in (150.0, 600.0):
        sim = Simulation(small(horizon=horizon))
        counted, peak = set(), 0

        def tracked(sdag):
            nonlocal peak
            tip = sdag.chain_tip()
            assert tip not in counted
            counted.add(tip)
            # the table is pruned already, and gains this tip next
            peak = max(peak, len(sim.facts.power) + 1)
            return power_counts(sdag)

        monkeypatch.setattr("sdag.node.power_counts", tracked)
        m = sim.run()
        peaks.append(peak)
    assert len(counted) > m.chain_height > 10 * POWER_KEEP_DEPTH
    assert peaks[1] <= 2 * (POWER_KEEP_DEPTH + 1)
    assert peaks[1] <= peaks[0] + 1


def test_private_milestone_fork_runs_and_reorgs():
    cfg = small(
        adversary_share=0.4,
        adversary_strategy=PrivateMilestoneFork(),
        horizon=300.0,
        seed=7,
    )
    sim = Simulation(cfg)
    m = sim.run()
    assert m.adversary_blocks > 0
    # honest nodes still agree after full delivery
    assert len(set(utxo_digests(sim))) == 1


def test_rule_the_public_height_is_the_best_any_honest_node_holds():
    """The public height at t is the best height among the milestones some
    honest node stored at or before t: a store at t itself counts, and a
    lower milestone stored later does not lower it."""
    fork = Simulation(small(adversary_share=0.3, adversary_strategy=PrivateMilestoneFork())).adversary
    fork.milestone_stored(4.0, 7)
    fork.milestone_stored(4.5, 2)
    fork.milestone_stored(6.0, 9)
    assert fork.public_height(3.9) == 0
    assert fork.public_height(4.0) == 7
    assert fork.public_height(5.0) == 7
    assert fork.public_height(6.0) == 9


def test_rule_the_private_fork_releases_only_when_its_own_block_leads(monkeypatch):
    """PrivateMilestoneFork withholds every block it mines and releases the
    withheld branch exactly when its chain, topped by its own block, is
    higher than the public height: a tie keeps the branch private."""
    decisions = []
    on_mine = simnet._PrivateForkRun.on_mine

    def recorded(self, t):
        before = self.releases
        on_mine(self, t)
        node = self.sim.adv_node
        own = node.sdag.blocks[node.sdag.chain_tip()].peer == node.identity
        decisions.append((node.sdag.height() - self.public_height(t), own, self.releases > before))

    monkeypatch.setattr(simnet._PrivateForkRun, "on_mine", recorded)
    run(small(adversary_share=0.3, adversary_strategy=PrivateMilestoneFork(), seed=0))
    for lead, own, released in decisions:
        assert released == (lead > 0 and own)
        # an honest tip never leads: its maker stored it when it made it
        assert lead <= 0 or own
    # not vacuous: a release, and an own tip that only tied and waited
    assert (1, True, True) in decisions and (0, True, False) in decisions


def test_peer_chain_fork_no_reward_no_consensus_damage():
    # share kept below the victim's own rate so the true chain stays longest
    cfg = small(
        adversary_share=0.1,
        adversary_strategy=PeerChainFork(victim=0),
        horizon=300.0,
        seed=9,
    )
    sim = Simulation(cfg)
    m = sim.run()
    assert m.adversary_blocks > 0
    assert m.common_prefix_violations == 0

    ref = sim.nodes[0]
    build = build_from_dag(ref.sdag, sim.params, sim.genesis_outputs)
    # forged blocks impersonate the victim but are never milestones and
    # never enter the main chain
    assert not (set(ref.sdag.main_chain) & sim.adversary_block_ids)
    # any forged block that earned a reward record earned zero
    for bid in sim.adversary_block_ids:
        rec = build.rewards.get(bid)
        if rec is not None:
            assert rec.amount == 0
    # the victim's payout address still belongs to the victim
    victim = sim.nodes[cfg.adversary_strategy.victim]
    view = build.peer_views.get(victim.identity)
    assert view is not None and view.registered
    assert view.current_address == victim.identity
    # the adversary has no registered chain of its own
    assert sim.adv_node is not None
    assert sim.adv_node.identity not in build.peer_views


def test_adversary_strategies_deterministic():
    cfg = small(
        adversary_share=0.3,
        adversary_strategy=PrivateMilestoneFork(),
        horizon=200.0,
        seed=5,
    )
    a = run(cfg)
    b = run(cfg)
    assert a.adversary_blocks == b.adversary_blocks
    assert a.adversary_releases == b.adversary_releases
    assert a.chain_height == b.chain_height


def test_zero_traffic_mines_empty_blocks():
    m = run(small(lam=0.0))
    assert m.tps_effective == 0.0
    assert m.blocks_created > 0
    assert m.duplicate_count == 0


def test_no_traffic_past_the_horizon():
    """The first mining event of each miner and the first transaction were
    handled even past the horizon: at these seeds 12 of the 15 blocks made
    came after the 5 s horizon, the earliest at 8.4 s.  Every event, the
    first ones included, now ends at the horizon."""
    for seed in range(5):
        sim = Simulation(SimConfig(n=3, mu=0.02, lam=0.1, horizon=5.0, seed=seed))
        m = sim.run()
        assert all(t <= 5.0 for t in sim.created_at.values())
        assert all(t <= 5.0 for t in sim.tx_arrival.values())
        assert m.counters["events"]["mine"] == m.blocks_created == len(sim.created_at)


def test_long_own_chain_resolves_without_recursion():
    # each miner's own chain grows past the interpreter's recursion limit,
    # which peer-chain resolution once walked recursively
    m = run(SimConfig(n=2, mu=1.0, horizon=1300, lam=0.2))
    assert m.blocks_created > 2 * sys.getrecursionlimit()
    assert set(m.reward_by_miner) == {0, 1}


PINNED_INI = """\
[simulation]
n = {n}
mu = 0.1
p = 0.2
c = 1.0
lambda = 0.5
t0 = 0.5
horizon = 400
seed = 42
finality_depth = 3
"""

# sha256 of metrics.csv, queueing_latency.csv and infection_latency.csv,
# recorded before peers shared block verdicts, level sets and peer counts,
# and of counters.json, recorded while every delivery was still an event
PINNED_OUTPUTS = {
    "n8": (
        PINNED_INI.format(n=8),
        "dd68612267161077734302fca7f508fd018105c34771f82ab0f821bf0a115051",
        "c7c287e0149a85bd55829538765f1dca1e0e5b109924437f01d0fd8d1a44bba5",
        "79c7e753713d5ff34e2a8275e929ff5e5d7ec50224b215117ab2c872d064090f",
        "5b81e7fde1b69f02fe396714daaa36142e92dc00a1acdfcd8ebac5345f34a926",
    ),
    "private-milestone-fork": (
        PINNED_INI.format(n=5)
        + "adversary_share = 0.3\nadversary_strategy = private-milestone-fork\n",
        "45b3800609c277f6e72f02feb2a927703c6d273a38a3577eef1de8e28a8d2c79",
        "914433a95245dbd32907e48734e793026b914f0db5c434f373793301c8ef70d2",
        "4b89d0852d806f477326362000adc6b15a9e176f76b3604d4bb650124ff4ec3c",
        "8767e8f0ec93cff81fe94983c1714bf1ad1699f4beed8425f58e5bdf58b60f8e",
    ),
    "peer-chain-fork": (
        PINNED_INI.format(n=5)
        + "adversary_share = 0.3\nadversary_strategy = peer-chain-fork:victim=0\n",
        "41862921c985a793f8cecdd852122c549528d1c580b6ee1113a275c5a1452104",
        "9acd4f93ca92438b58176650e9ef6fb6a41f0c5e24c7727e82716030050da3fc",
        "f305ca8e56492aee7d472aac08ffe88a0ea67ecdafb95fa57717b59c886e64d0",
        "5bc60b83b0fddcabf196e5dd93bb260464633622e501871e27b6a44a3329cfd9",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_small_config_outputs_are_pinned(name, tmp_path):
    ini, *expected = PINNED_OUTPUTS[name]
    config = tmp_path / "sim.ini"
    config.write_text(ini)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config), "--seed", "42", "--out", str(out)]) == 0
    got = [
        hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("metrics.csv", "queueing_latency.csv", "infection_latency.csv", "counters.json")
    ]
    assert got == expected


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_picked_transactions_are_unspent_at_the_pickers_tip(name, tmp_path, monkeypatch):
    """What lets a miner carry any normal transaction from its pool
    unjudged: on the simulator's traffic, each one it picks is valid and
    not yet accepted in the ledger of its own DAG."""
    config = tmp_path / "sim.ini"
    config.write_text(PINNED_OUTPUTS[name][0])
    sim = Simulation(cli.load_sim_config(config.read_bytes(), str(config)))
    pick = NodeState._pick_tx
    checked = []

    def checked_pick(node):
        tx = pick(node)
        if tx.kind is TxKind.NORMAL:
            ledger = build_from_dag(node.sdag, sim.params, sim.genesis_outputs).ledger
            assert tx.txid() not in ledger.accepted_ids
            assert verify_normal(tx, ledger.utxo)[0]
            checked.append(tx)
        return tx

    monkeypatch.setattr(NodeState, "_pick_tx", checked_pick)
    sim.run()
    assert len(checked) > 50
