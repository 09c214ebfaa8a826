"""End-to-end acceptance checks.

Each test evaluates one numbered criterion at its stated tolerance and
records a single pass/fail line; the conftest prints all lines in the
terminal summary.  Criterion 6's million-path run and criterion 7's five
desk runs are module fixtures of 10-20 s each; every other test takes a
few seconds at most.
"""

import dataclasses
import math
import random
import statistics
from fractions import Fraction

import pytest

from acceptance_report import record
from sdag import analysis
from sdag.core import EMPTY_TX, BlockClass
from sdag.curves import make_curve
from sdag.ledger import build_from_dag, dfs_order, ledger_csv, resolve_peer_chain
from sdag.mempool import collision_prob
from sdag.simnet import PeerChainFork, SimConfig, Simulation

from dagtools import (
    brute_force_confirm,
    dag_signature,
    random_dag,
    reinsert_random_order,
)
from mc_oracles import infection_chain_mc, tag_sequence_mc
from secure_dp import binomial_z, failure_dp_extrapolated
from test_ledger import (
    A_ADDR,
    B_ADDR,
    GENESIS_OUTPUTS,
    PARAMS as LEDGER_PARAMS,
    chain,  # noqa: F401  (fixture reuse)
    signed_normal,
)
from sdag.core import GENESIS_ID, TxOutput
from sdag.dag import SDag
import io


def check(name, ok, detail):
    record(name, ok, detail)
    assert ok, f"{name}: {detail}"


def test_criterion_1_collision_probability():
    val = collision_prob(0.1)
    ref = 1.0 - math.exp(-0.1) - 0.1 * math.exp(-0.1)
    ok = val < 0.005 and abs(val - ref) < 1e-6
    check(
        "criterion 1 (collision probability)",
        ok,
        f"collision_prob(0.1) = {val:.6f}, closed form {ref:.6f}, bound 0.005",
    )


def test_criterion_2_capacity_example():
    th = analysis.theta(0.01, 1.2, 5.0 / 3.0)
    usable = 1.0 - th
    tps = usable * 1000 * 1.2
    ok = abs(usable - 0.983) <= 1e-3 and abs(tps - 1179.6) <= 1.2
    check(
        "criterion 2 (capacity example)",
        ok,
        f"1 - theta = {usable:.4f} (target 0.983 +/- 0.001), "
        f"max TPS = {tps:.1f} (target 1179.6 +/- 1.2)",
    )


def test_criterion_3_queueing_latency():
    th = analysis.theta(0.01, 1.2, 5.0 / 3.0)
    w1 = analysis.w1(1000.0, 1000, 1.2, 0.01, th)
    ok = abs(w1 - 188.0) <= 1.0
    check(
        "criterion 3 (queueing latency)",
        ok,
        f"W1 = {w1:.2f} s (target 188 +/- 1)",
    )


def test_criterion_4_infection_latency():
    w2 = analysis.w2_bound(1000, Fraction(1, 12000), 1.2)
    mc = infection_chain_mc(50, 0.01, 100_000, seed=4)
    exact50 = float(analysis.infection_q1(50, Fraction(1, 100)).exact)
    dev = abs(mc.mean - exact50)
    ok = (
        abs(w2.bound - 23.0) <= 1.0
        and w2.exact <= w2.bound
        and dev <= 3.0 * mc.stderr
    )
    check(
        "criterion 4 (infection latency)",
        ok,
        f"bound = {w2.bound:.2f} s (target 23 +/- 1), exact = {w2.exact:.2f} <= bound; "
        f"n=50 MC mean {mc.mean:.1f} vs exact {exact50:.1f}, |diff| = {dev:.2f} "
        f"<= 3 sigma = {3 * mc.stderr:.2f}",
    )


def test_criterion_5_type1_fraction():
    curve = make_curve("quadratic", 2.0)
    frac = analysis.type1_fraction(0.1, 2.0, curve)
    mc = tag_sequence_mc(0.1, 2.0, curve, 1_000_000, seed=5)
    dev = abs(mc.mean - frac)
    ok = abs(frac - 0.928) <= 1e-3 and dev <= 3.0 * mc.stderr
    check(
        "criterion 5 (type-1 fraction)",
        ok,
        f"fraction = {frac:.4f} (target 0.928 +/- 0.001), "
        f"tag MC {mc.mean:.4f}, |diff| = {dev:.5f} <= 3 sigma = {3 * mc.stderr:.5f}",
    )


# digitized failure-frequency curve coordinates, (confirmation window T,
# target frequency), for 10% and 30% adversary hash power
FAILURE_CURVE_POINTS = {
    0.10: [
        (50.0, 0.099533),
        (100.0, 0.015359),
        (150.0, 0.002713),
        (200.0, 0.000475),
        (250.0, 0.000102),
    ],
    0.30: [
        (100.0, 0.197767),
        (200.0, 0.082431),
        (300.0, 0.037396),
        (400.0, 0.017865),
        (500.0, 0.008678),
    ],
}


# criterion 6's model: the combined milestone rate, t0, delay curve and paths
CRITERION_6_MODEL = (0.1, 2.0, "quadratic")
CRITERION_6_PATHS = 1_000_000


@pytest.fixture(scope="module")
def criterion_6_runs():
    """Criterion 6's Monte Carlo, share -> its points; the DP check reads
    the same run."""
    pn_mu, t0, curve_name = CRITERION_6_MODEL
    curve = make_curve(curve_name, t0)
    runs = {}
    for share, points in FAILURE_CURVE_POINTS.items():
        honest, adversary = analysis.rates_for_share(share, pn_mu)
        grid = [t for t, _ in points]
        runs[share] = analysis.secure_latency_mc(
            honest, adversary, t0, curve, grid, paths=CRITERION_6_PATHS, seed=6
        )
    return runs


def test_criterion_6_failure_frequency_curves(criterion_6_runs):
    paths = CRITERION_6_PATHS
    ok = True
    details = []
    for share, points in FAILURE_CURVE_POINTS.items():
        res = criterion_6_runs[share]
        for point, (t_len, target) in zip(res, points):
            # whichever is looser: 20% relative or 3 binomial sigma
            tol = max(0.2 * target, 3.0 * math.sqrt(target * (1.0 - target) / paths))
            if abs(point.frequency - target) > tol:
                ok = False
            details.append(f"{int(share * 100)}%/T={t_len:.0f}: {point.frequency:.6f} vs {target:.6f}")
        for a, b in zip(res, res[1:]):
            if b.frequency > a.frequency + 3.0 * (a.stderr + b.stderr):
                ok = False
                details.append(f"non-monotone at T={b.horizon:.0f}")
    check("criterion 6 (failure-frequency curves)", ok, "; ".join(details))


def test_criterion_6_counts_match_the_forward_dp(criterion_6_runs):
    """Criterion 6's ten failure counts against the exact failure
    probability of the same model (`tests/secure_dp.py`): each within 4
    binomial sigma, a bound fixed before the comparison was run."""
    pn_mu, t0, curve_name = CRITERION_6_MODEL
    curve = make_curve(curve_name, t0)
    far = []
    for share, res in criterion_6_runs.items():
        honest, adversary = analysis.rates_for_share(share, pn_mu)
        exact = failure_dp_extrapolated(honest, adversary, t0, curve, [p.horizon for p in res])
        for point, prob in zip(res, exact):
            z = binomial_z(point.frequency, prob, point.paths)
            if abs(z) > 4.0:
                far.append(f"{share:.0%}/T={point.horizon:g}: {point.failures} of {point.paths}, DP {prob:.6g}, z {z:.2f}")
    assert not far, "; ".join(far)


DESK_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def desk_runs():
    """Five desk-scale runs at the default configuration (n=100, 2000 s)."""
    return [Simulation(SimConfig(seed=s)).run() for s in DESK_SEEDS]


def test_criterion_7a_common_prefix(desk_runs):
    cpv = sum(m.common_prefix_violations for m in desk_runs)
    check(
        "criterion 7a (common prefix)",
        cpv == 0,
        f"{cpv} violations at depth {SimConfig().finality_depth} over {len(DESK_SEEDS)} seeds",
    )


def test_criterion_7b_duplicate_fraction(desk_runs):
    cfg = SimConfig()
    th = analysis.theta(cfg.c, cfg.mu, cfg.t0 / 3.0)
    ok = True
    details = []
    for m in desk_runs:
        n_blocks = m.normal_block_count
        phat = m.duplicate_count / n_blocks
        se = math.sqrt(max(phat * (1.0 - phat), 1.0 / n_blocks) / n_blocks)
        if phat > th + 3.0 * se:
            ok = False
        details.append(f"{m.duplicate_count}/{n_blocks}")
    check(
        "criterion 7b (duplicate fraction)",
        ok,
        f"duplicates per seed {details}, theta = {th:.2e}",
    )


def test_criterion_7c_infection_latency(desk_runs):
    cfg = SimConfig()
    w2 = analysis.w2_bound(cfg.n, Fraction(cfg.p).limit_denominator(10**9), cfg.mu)
    means = [statistics.mean(m.infection_latency) for m in desk_runs]
    ok = all(mean <= w2.exact for mean in means)
    check(
        "criterion 7c (infection latency)",
        ok,
        f"per-seed means {[f'{v:.1f}' for v in means]} s <= W2 exact {w2.exact:.1f} s",
    )


def test_criterion_7d_mempool_occupancy(desk_runs):
    cfg = SimConfig()
    th = analysis.theta(cfg.c, cfg.mu, cfg.t0 / 3.0)
    q_formula = analysis.queue_length(cfg.lam, cfg.n, cfg.mu, cfg.c, th)
    # steady-state occupancy averaged over runs; a single 2000 s run holds
    # only a handful of independent queue regeneration cycles
    mean_occ = statistics.mean(m.mempool_occupancy for m in desk_runs)
    ratio = mean_occ / q_formula
    ok = abs(ratio - 1.0) <= 0.15
    check(
        "criterion 7d (mempool occupancy)",
        ok,
        f"mean occupancy {mean_occ:.0f} vs Q = {q_formula:.0f}, ratio {ratio:.3f} "
        f"(within +/- 0.15)",
    )


def test_criterion_7e_reward_share(desk_runs):
    cfg = SimConfig()
    totals = {i: 0 for i in range(cfg.n)}
    ssq = 0
    for m in desk_runs:
        for i, amount in m.reward_by_miner.items():
            totals[i] += amount
        ssq += sum(r * r for r in m.reward_amounts)
    grand = sum(totals.values())
    q = 1.0 / cfg.n
    sigma = math.sqrt(q * (1.0 - q) * ssq)
    zs = sorted(abs(totals[i] - q * grand) / sigma for i in range(cfg.n))
    # n simultaneous 3-sigma comparisons: ~0.27 exceedances expected by
    # chance alone, so up to two outliers are statistical noise while a
    # systematic bias would push many miners out at once
    outliers = sum(1 for z in zs if z > 3.0)
    ok = outliers <= 2
    check(
        "criterion 7e (reward share)",
        ok,
        f"pooled per-miner |z| max {zs[-1]:.2f}, {outliers} of {cfg.n} beyond 3 sigma "
        f"(allowance 2)",
    )


def test_criterion_8a_insertion_order_independence():
    rng = random.Random(81)
    permutations = 0
    while permutations < 1000:
        sdag = random_dag(rng, n_blocks=30)
        heights = [sdag.facts.ms_height[m] for m in sdag.milestone_leaf_set()]
        if heights.count(max(heights)) != 1:
            continue  # tied tips are resolved by arrival order, skip
        ref = dag_signature(sdag)
        for _ in range(100):
            assert dag_signature(reinsert_random_order(sdag, rng)) == ref
            permutations += 1
    check(
        "criterion 8a (insertion-order independence)",
        True,
        f"{permutations} random permutations, identical chain/levels/pending",
    )


def test_criterion_8b_confirm_set_closure():
    rng = random.Random(82)
    checked = 0
    for _ in range(1000):
        sdag = random_dag(rng, n_blocks=50)
        for bid in sdag.blocks:
            assert sdag.confirm_set(bid) == brute_force_confirm(sdag, bid)
            checked += 1
    check(
        "criterion 8b (confirm-set closure)",
        True,
        f"confirm_set equals brute-force closure for {checked} blocks "
        f"across 1000 random 50-block DAGs",
    )


def test_criterion_8c_dfs_determinism_and_chronology():
    rng = random.Random(83)
    for _ in range(100):
        sdag = random_dag(rng, n_blocks=40)
        rebuilt = reinsert_random_order(sdag, rng)
        for ms in sdag.main_chain[1:]:
            order = dfs_order(sdag, ms)
            assert order == dfs_order(sdag, ms)  # repeatable
            if sdag.main_chain == rebuilt.main_chain:
                assert order == dfs_order(rebuilt, ms)  # order-independent
            pos = {bid: i for i, bid in enumerate(order)}
            for bid in order:
                parent = sdag.blocks[bid].idp
                if parent in pos:
                    assert pos[parent] < pos[bid]
    check(
        "criterion 8c (DFS determinism and chronology)",
        True,
        "100 random DAGs: repeatable orders, peer parents precede children",
    )


def test_criterion_8d_ledger_determinism_and_double_spend(chain):
    # two conflicting spends of each genesis output, plus a duplicate
    c1 = signed_normal(GENESIS_ID, 0, [TxOutput(10, A_ADDR)])
    c2 = signed_normal(GENESIS_ID, 1, [TxOutput(10, B_ADDR)])
    cb1 = chain.add(A_ADDR, c1)
    cb2 = chain.add(A_ADDR, c2)
    chain.add(B_ADDR, chain.t1)  # duplicate payload
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=cb1)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=cb2)
    build = build_from_dag(chain.sdag, LEDGER_PARAMS, GENESIS_OUTPUTS)
    accepted = {}
    for e in build.ledger.entries:
        accepted.setdefault(e.txid, []).append(e.accepted)
    for conflict_set in ((chain.t1.txid(), c1.txid()), (chain.t2.txid(), c2.txid())):
        wins = sum(any(accepted[t]) for t in conflict_set if t in accepted)
        assert wins == 1, "exactly one spend of each output must land"
    assert accepted[chain.t1.txid()].count(True) == 1  # duplicate rejected
    again = build_from_dag(chain.sdag, LEDGER_PARAMS, GENESIS_OUTPUTS)
    reloaded = build_from_dag(
        SDag.load(io.StringIO(chain.sdag.dumps()), LEDGER_PARAMS),
        LEDGER_PARAMS,
        GENESIS_OUTPUTS,
    )
    assert ledger_csv(build) == ledger_csv(again) == ledger_csv(reloaded)
    assert build.ledger.utxo_digest() == reloaded.ledger.utxo_digest()
    check(
        "criterion 8d (ledger determinism, double-spend exclusion)",
        True,
        "one winner per conflicting pair, duplicate rejected, "
        "byte-identical ledger on rebuild and reload",
    )


def test_criterion_8e_peer_chain_fork_harmless():
    cfg = SimConfig(
        n=5,
        mu=0.1,
        p=0.2,
        c=1.0,
        lam=0.5,
        t0=0.5,
        horizon=300.0,
        seed=9,
        finality_depth=3,
        adversary_share=0.1,
        adversary_strategy=PeerChainFork(victim=0),
    )
    sim = Simulation(cfg)
    m = sim.run()
    ref = sim.nodes[0]
    build = build_from_dag(ref.sdag, sim.params, sim.genesis_outputs)
    attacker_reward = sum(
        build.rewards[bid].amount
        for bid in sim.adversary_block_ids
        if bid in build.rewards
    )
    victim_view = resolve_peer_chain(ref.sdag, sim.nodes[0].identity)
    ok = (
        m.adversary_blocks > 0
        and attacker_reward == 0
        and m.common_prefix_violations == 0
        and not (set(ref.sdag.main_chain) & sim.adversary_block_ids)
        and victim_view.current_address == sim.nodes[0].identity
        and resolve_peer_chain(ref.sdag, sim.adv_node.identity).blocks == []
    )
    check(
        "criterion 8e (peer-chain fork attack)",
        ok,
        f"{m.adversary_blocks} forged blocks, attacker reward {attacker_reward}, "
        f"0 consensus impact, victim payout address intact",
    )
