"""Closed forms and Monte-Carlo cross-checks for the capacity/latency model."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sdag import analysis
from sdag.analysis import (
    AdversaryMajority,
    SecurePoint,
    UnstableQueue,
    catchup_probability,
    infection_chain_mc,
    infection_q1,
    nakamoto_discounted_depth,
    queue_length,
    rates_for_share,
    secure_latency_mc,
    tag_sequence_mc,
    theta,
    type1_fraction,
    w1,
    w1_of_theta,
    w2_bound,
    z_success_prob,
)
from sdag.curves import InstantCurve, QuadraticCurve, StepCurve, UniformCurve


def test_theta_form_and_limits():
    c, mu, t_bar = 0.01, 1.2, 5.0 / 3.0
    a = (1 - math.exp(-mu * t_bar)) * mu * c * t_bar
    assert theta(c, mu, t_bar) == pytest.approx(a / (1 + a), abs=1e-15)
    assert theta(0.0, mu, t_bar) == 0.0
    assert theta(c, 0.0, t_bar) == 0.0
    with pytest.raises(ValueError):
        theta(-1, mu, t_bar)


def test_queue_and_w1_little_law():
    lam, n, mu, c = 1000.0, 1000, 1.2, 0.01
    th = theta(c, mu, 5.0 / 3.0)
    q = queue_length(lam, n, mu, c, th)
    assert w1(lam, n, mu, c, th) == pytest.approx(q / lam, rel=1e-12)


def test_unstable_queue_raises():
    with pytest.raises(UnstableQueue):
        queue_length(1200.0, 1000, 1.2, 0.01, 0.2)
    with pytest.raises(UnstableQueue):
        w1(1300.0, 1000, 1.2, 0.01, 0.0)


def test_w1_of_theta_matches_w1():
    # the trade-off form and the direct form agree when theta comes from c
    c, mu, t_bar, n = 0.01, 1.2, 5.0 / 3.0, 1000
    lam = 1000.0
    th = theta(c, mu, t_bar)
    rho = lam / (n * mu)
    assert w1_of_theta(th, rho, t_bar, mu) == pytest.approx(
        w1(lam, n, mu, c, th), rel=1e-9
    )


def test_infection_q1_exact_and_bound():
    res = infection_q1(1000, Fraction(1, 12000))
    assert float(res.exact) <= res.bound
    # n = 1: only the geometric absorption wait remains
    assert infection_q1(1, Fraction(1, 4)).exact == 4
    with pytest.raises(ValueError):
        infection_q1(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        infection_q1(10, Fraction(2))


def test_w2_scaling():
    r = w2_bound(1000, Fraction(1, 12000), 1.2)
    assert r.exact <= r.bound
    assert r.exact == pytest.approx(float(infection_q1(1000, Fraction(1, 12000)).exact) / 1200.0)


def test_infection_chain_mc_matches_exact():
    n, p = 30, 0.05
    exact = float(infection_q1(n, Fraction(p)).exact)
    mc = infection_chain_mc(n, p, paths=20_000, seed=3)
    assert abs(mc.mean - exact) <= 3 * mc.stderr


def test_type1_fraction_known_points():
    curve = QuadraticCurve(2.0)
    assert type1_fraction(0.1, 2.0, curve) == pytest.approx(0.928, abs=1e-3)
    # instant delivery: every milestone is type 1
    assert type1_fraction(0.1, 2.0, InstantCurve(2.0)) == pytest.approx(1.0)
    # step delivery at t0: fraction = e^-r t0 / (e^-r t0 + 1 - e^-r t0)
    r, t0 = 0.1, 2.0
    frac = type1_fraction(r, t0, StepCurve(t0))
    assert frac == pytest.approx(math.exp(-r * t0), abs=1e-9)


def test_z_success_bounds():
    curve = QuadraticCurve(2.0)
    z = z_success_prob(0.1, 2.0, curve)
    assert math.exp(-0.2) < z < 1.0


def test_tag_sequence_mc_agrees_with_closed_form():
    curve = QuadraticCurve(2.0)
    expect = type1_fraction(0.1, 2.0, curve)
    mc = tag_sequence_mc(0.1, 2.0, curve, tags=200_000, seed=1)
    assert abs(mc.mean - expect) <= 3 * mc.stderr


def test_rates_for_share_conventions():
    h, a = rates_for_share(0.1, 0.1)
    assert h == pytest.approx(0.09) and a == pytest.approx(0.01)
    h, a = rates_for_share(0.1, 0.1, honest_fixed=True)
    assert h == pytest.approx(0.1) and a == pytest.approx(0.1 / 9)
    with pytest.raises(ValueError):
        rates_for_share(1.0, 0.1)


def test_secure_latency_mc_reproducible_and_decaying():
    curve = QuadraticCurve(2.0)
    honest, adv = rates_for_share(0.10, 0.1)
    pts1 = secure_latency_mc(honest, adv, 2.0, curve, [20.0, 60.0], paths=40_000, seed=5)
    pts2 = secure_latency_mc(honest, adv, 2.0, curve, [20.0, 60.0], paths=40_000, seed=5)
    assert [(p.failures, p.horizon) for p in pts1] == [
        (p.failures, p.horizon) for p in pts2
    ]
    assert pts1[0].frequency > pts1[1].frequency  # decays with the horizon
    with pytest.raises(ValueError):
        secure_latency_mc(honest, adv, 2.0, curve, [3.0], paths=100)


# -- oracles: the tag chain and the full-width secure-latency Monte Carlo ---


def oracle_tags(u, w, t0, curve):
    """Y_i = B_i or (A_i and Y_{i-1}) with Y_{-1} = 0, one step at a time."""
    cdf = curve.cdf(u)
    out = np.zeros(u.shape, dtype=bool)
    for r in range(u.shape[0]):
        y = False
        for i in range(u.shape[1]):
            b = bool(u[r, i] > t0)
            a = b or bool(w[r, i] < cdf[r, i])
            y = b or (a and y)
            out[r, i] = y
    return out


def oracle_secure_latency_mc(pn_mu_honest, adversary_rate, t0, curve, t_grid, paths, seed):
    """secure_latency_mc as it was before it trimmed to [0, T]: the cumsum,
    the tags (by last-set > last-reset running maxima) and both counts run
    over every drawn column; the draws are the same."""
    base = np.random.Philox(seed)
    out = []
    for point_i, t_len in enumerate(t_grid):
        mean_arrivals = pn_mu_honest * t_len
        cols = int(mean_arrivals + 10.0 * math.sqrt(mean_arrivals + 1.0) + 30)
        failures = 0
        done = 0
        chunk_i = 0
        while done < paths:
            rows = min(analysis._CHUNK, paths - done)
            rng = np.random.Generator(base.jumped(point_i * (1 << 20) + chunk_i))
            chunk_i += 1
            u = rng.exponential(1.0 / pn_mu_honest, size=(rows, cols))
            times = np.cumsum(u, axis=1)
            if not (times[:, -1] > t_len).all():
                cols *= 2
                continue
            w = rng.random((rows, cols))
            a = (u > t0) | (w < curve.cdf(u))
            b = u > t0
            idx = np.arange(cols)
            last_a0 = np.maximum.accumulate(np.where(~a, idx, -1), axis=-1)
            last_b1 = np.maximum.accumulate(np.where(b, idx, -1), axis=-1)
            y = last_b1 > last_a0
            window = (times >= t0) & (times <= t_len - t0)
            full = times <= t_len
            ones = (y & window).sum(axis=1)
            zeros = (~y & full).sum(axis=1)
            if adversary_rate > 0:
                adv = rng.poisson(adversary_rate * t_len, rows)
            else:
                adv = np.zeros(rows, dtype=np.int64)
            failures += int((ones <= zeros + adv).sum())
            done += rows
        freq = failures / paths
        stderr = math.sqrt(max(freq * (1.0 - freq), 1.0 / paths) / paths)
        out.append(SecurePoint(float(t_len), failures, paths, freq, stderr))
    return out


CURVES = [QuadraticCurve(2.0), UniformCurve(2.0), StepCurve(2.0), InstantCurve(2.0)]


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: type(c).__name__)
def test_tags_match_step_by_step_chain(curve):
    rng = np.random.default_rng(7)
    t0 = curve.t0
    for shape in [(1, 1), (3, 5), (20, 40), (50, 7)]:
        u = rng.exponential(t0, size=shape)
        # inter-arrivals of exactly t0 neither set nor (when seen) reset
        u[rng.random(shape) < 0.2] = t0
        u[rng.random(shape) < 0.05] = 0.0
        w = rng.random(shape)
        assert np.array_equal(analysis._tags(u, w, t0, curve), oracle_tags(u, w, t0, curve))
    empty = np.zeros((4, 0))
    assert analysis._tags(empty, empty, t0, curve).shape == (4, 0)


def test_tags_wide_row_uses_a_wide_code_dtype():
    # 2n+1 > 32767: the int16 codes would overflow, so int32 is needed
    rng = np.random.default_rng(11)
    curve = QuadraticCurve(2.0)
    n = 20_000
    u = rng.exponential(2.5, size=(1, n))
    w = rng.random((1, n))
    tags = analysis._tags(u, w, 2.0, curve)
    assert np.array_equal(tags, oracle_tags(u, w, 2.0, curve))
    assert tags[0, n // 2 :].any() and not tags[0, n // 2 :].all()


@pytest.mark.parametrize(
    "curve, share, seed",
    [
        (QuadraticCurve(2.0), 0.1, 0),
        (QuadraticCurve(2.0), 0.3, 4),
        (UniformCurve(2.0), 0.2, 1),
        (StepCurve(2.0), 0.1, 2),
        (InstantCurve(2.0), 0.0, 3),
    ],
    ids=["quadratic-10", "quadratic-30", "uniform-20", "step-10", "instant-0"],
)
def test_secure_latency_mc_matches_full_width_oracle(curve, share, seed):
    honest, adv = rates_for_share(share, 0.1)
    grid = [5.0, 20.0, 60.0, 150.0]
    got = secure_latency_mc(honest, adv, 2.0, curve, grid, paths=3000, seed=seed)
    assert got == oracle_secure_latency_mc(honest, adv, 2.0, curve, grid, 3000, seed)


def test_secure_latency_mc_matches_oracle_across_chunks():
    paths = 2 * analysis._CHUNK + 1000
    honest, adv = rates_for_share(0.3, 0.1)
    curve = QuadraticCurve(2.0)
    grid = [30.0, 90.0]
    got = secure_latency_mc(honest, adv, 2.0, curve, grid, paths=paths, seed=9)
    assert got == oracle_secure_latency_mc(honest, adv, 2.0, curve, grid, paths, 9)


def test_secure_latency_mc_without_arrivals_before_t():
    # at this rate no path has a milestone inside [0, 5], so no column is
    # worked on and every confirmation fails
    curve = QuadraticCurve(2.0)
    got = secure_latency_mc(1e-9, 0.0, 2.0, curve, [5.0], paths=500, seed=0)
    assert got == oracle_secure_latency_mc(1e-9, 0.0, 2.0, curve, [5.0], 500, 0)
    assert got[0].failures == 500


@pytest.mark.parametrize("prefix", [lambda mean: 1, lambda mean: int(mean) + 1], ids=["one", "mean"])
def test_secure_latency_mc_falls_back_when_the_prefix_is_short(monkeypatch, prefix):
    # a prefix that some path does not cross T within takes the full-width
    # cumsum; the result must not move
    monkeypatch.setattr(analysis, "_prefix_cols", prefix)
    honest, adv = rates_for_share(0.1, 0.1)
    curve = QuadraticCurve(2.0)
    grid = [10.0, 80.0]
    got = secure_latency_mc(honest, adv, 2.0, curve, grid, paths=4000, seed=12)
    assert got == oracle_secure_latency_mc(honest, adv, 2.0, curve, grid, 4000, 12)


def test_catchup_probability_shape():
    assert catchup_probability(0.0, 6) == 0.0
    assert catchup_probability(0.5, 6) == 1.0
    probs = [catchup_probability(0.2, d) for d in range(1, 8)]
    assert all(b < a for a, b in zip(probs, probs[1:]))
    assert 0.0 < probs[-1] < probs[0] < 1.0


def test_nakamoto_discounted_depth():
    plain = nakamoto_discounted_depth(0.1, 1.0, 1e-3)
    discounted = nakamoto_discounted_depth(0.1, 0.928, 1e-3)
    assert discounted >= plain
    with pytest.raises(AdversaryMajority):
        nakamoto_discounted_depth(0.45, 0.5, 1e-3)
    with pytest.raises(ValueError):
        nakamoto_discounted_depth(0.1, 0.9, 1.5)
