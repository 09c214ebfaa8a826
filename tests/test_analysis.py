"""Closed forms and Monte-Carlo cross-checks for the capacity/latency model."""

import decimal
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sdag import analysis
from sdag.analysis import (
    AdversaryMajority,
    SecurePoint,
    UnstableQueue,
    catchup_probability,
    infection_q1,
    nakamoto_discounted_depth,
    queue_length,
    rates_for_share,
    secure_latency_mc,
    theta,
    type1_fraction,
    w1,
    w1_of_theta,
    w2_bound,
    z_success_prob,
)
from sdag.curves import InstantCurve, QuadraticCurve, StepCurve, UniformCurve

from mc_oracles import infection_chain_mc, tag_sequence_mc


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


def rational_q1(n, p):
    """The infection-chain recursion of `infection_q1` in exact rationals."""
    q = 1 / p
    for x in range(n - 1, 0, -1):
        keep = 1 - Fraction(p * x, n)
        grow = Fraction(x * (n - x), n * n)
        q = (1 + keep * grow * q) / (1 - keep * (1 - grow))
    return q


@pytest.mark.parametrize(
    "n, p", [(2, Fraction(1)), (200, Fraction(1, 2)), (1000, Fraction(1, 12000)), (3000, Fraction(1, 10**5))]
)
def test_infection_q1_matches_rational_recursion(n, p):
    assert infection_q1(n, p).exact == pytest.approx(float(rational_q1(n, p)), rel=1e-12)


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
    # an honest rate held at P, the adversary adding share/(1-share) of it
    for share in (0.1, 0.3, 0.49):
        for honest_rate in (0.01, 0.1, 2.5):
            assert rates_for_share(share, honest_rate / (1 - share)) == pytest.approx(
                (honest_rate, share / (1 - share) * honest_rate), rel=1e-15
            )
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
            # the program's chunk rows, recomputed after a column doubling
            rows = min(analysis._chunk_rows(cols), paths - done)
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


def test_secure_latency_mc_matches_oracle_past_256_columns(monkeypatch):
    # T = 150 at rate 0.9 draws 281 columns, where _CHUNK_BYTES rather than
    # _CHUNK sets the chunk rows: patched, 700 paths a chunk, each chunk
    # spanning two tiles of up to 466 rows.  At t0 = 2 every path at T = 150
    # fails, whatever its draws; at t0 = 1 about one in seven does
    cols = analysis._draw_cols(135.0)
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 8 * cols * 700)
    assert cols > 256 and analysis._chunk_rows(cols) == 700 and analysis._tile_rows(cols) == 466
    curve = QuadraticCurve(1.0)
    grid = [150.0, 60.0]
    got = secure_latency_mc(0.9, 0.1, 1.0, curve, grid, paths=2000, seed=0)
    assert got == oracle_secure_latency_mc(0.9, 0.1, 1.0, curve, grid, 2000, 0)
    assert 0 < got[0].failures < 2000


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


@pytest.mark.parametrize(
    "honest, adv, grid, paths, seed",
    [
        # a multi-chunk point, the short-prefix fallback (T=25) and a grid
        # out of order, so the longest-first schedule differs from it
        (0.07, 0.03, [60.0, 25.0, 150.0, 5.0], 2 * analysis._CHUNK + 1000, 13),
        # no arrival before T: every confirmation fails
        (1e-9, 0.0, [5.0, 7.0, 6.0], 500, 0),
    ],
    ids=["chunks-prefix-order", "all-fail"],
)
def test_secure_latency_mc_is_the_same_at_any_worker_count(monkeypatch, honest, adv, grid, paths, seed):
    # one column is too short a prefix at T=25, which sums the full width
    prefix_cols = analysis._prefix_cols
    monkeypatch.setattr(
        analysis, "_prefix_cols", lambda mean: 1 if mean == honest * 25.0 else prefix_cols(mean)
    )
    curve = QuadraticCurve(2.0)
    want = oracle_secure_latency_mc(honest, adv, 2.0, curve, grid, paths, seed)
    assert [p.horizon for p in want] == grid
    # up to three threads, switching between them often
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(analysis, "_worker_count", lambda points: workers)
            assert secure_latency_mc(honest, adv, 2.0, curve, grid, paths=paths, seed=seed) == want
    finally:
        sys.setswitchinterval(switch)


TILE_CASES = [
    # a multi-chunk point (paths None: 2 * _CHUNK + 1000) in a grid out of order
    (0.07, 0.03, [60.0, 25.0, 150.0, 5.0], None, 13, None),
    # one column is too short a prefix, which sums the full width
    (0.09, 0.01, [10.0, 80.0], 4000, 12, lambda mean: 1),
    # no arrival before T: every confirmation fails
    (1e-9, 0.0, [5.0], 500, 0, None),
]


@pytest.mark.parametrize("tile_rows", [1, 37, None], ids=["one-row", "37-rows", "whole-chunk"])
@pytest.mark.parametrize(
    "honest, adv, grid, paths, seed, prefix", TILE_CASES, ids=["chunks", "short-prefix", "all-fail"]
)
def test_secure_latency_mc_is_the_same_at_any_tile_size(
    monkeypatch, tile_rows, honest, adv, grid, paths, seed, prefix
):
    # a chunk fixes the streams and the draws; its tiles only bound memory
    if prefix is not None:
        monkeypatch.setattr(analysis, "_prefix_cols", prefix)
    if paths is None:
        # a one-row tile costs a loop step per path: smaller chunks keep
        # that case fast and still span three of them
        if tile_rows == 1:
            monkeypatch.setattr(analysis, "_CHUNK", 1500)
        paths = 2 * analysis._CHUNK + 1000
    monkeypatch.setattr(analysis, "_tile_rows", lambda cols: tile_rows or analysis._CHUNK)
    curve = QuadraticCurve(2.0)
    want = oracle_secure_latency_mc(honest, adv, 2.0, curve, grid, paths, seed)
    assert secure_latency_mc(honest, adv, 2.0, curve, grid, paths=paths, seed=seed) == want


def test_secure_latency_mc_column_shortfall_is_the_same_at_any_tile_size(monkeypatch):
    # one drawn column falls short of T, so each chunk doubles its columns
    # and moves to the next stream, from whichever tile fell short
    monkeypatch.setattr(analysis, "_draw_cols", lambda mean: 1)
    generator = np.random.Generator
    streams = []
    monkeypatch.setattr(np.random, "Generator", lambda bits: streams.append(bits) or generator(bits))
    got = []
    for tile_rows in (1, analysis._CHUNK):
        monkeypatch.setattr(analysis, "_tile_rows", lambda cols: tile_rows)
        streams.clear()
        got.append(secure_latency_mc(0.09, 0.01, 2.0, QuadraticCurve(2.0), [60.0], paths=3000, seed=2))
        assert len(streams) > 1
    assert got[0] == got[1]


def test_tile_rows_bound_one_array():
    for cols in (1, 77, 229, analysis._draw_cols(analysis.MAX_PATH_ARRIVALS)):
        rows = analysis._tile_rows(cols)
        assert 8 * rows * cols <= analysis._TILE_BYTES < 8 * (rows + 1) * cols
    assert analysis._tile_rows(analysis._TILE_BYTES) == 1


@pytest.mark.parametrize(
    "chunks, rate, t_len, bound_mib",
    [
        # the CLI default grid's longest T: 32,768-path chunks
        (1, 0.09, 990.0, 64),
        # the second chunk's tiles must not overlap the first's
        (2, 0.09, 990.0, 64),
        # the arrivals bound: 6,232-path chunks
        (1, 1.0, analysis.MAX_PATH_ARRIVALS, 128),
    ],
    ids=["cli-default", "cli-default-two-chunks", "arrivals-bound"],
)
def test_secure_point_chunk_memory_is_bounded(chunks, rate, t_len, bound_mib):
    """A thread holds one chunk's trimmed inter-arrivals and masks and one
    tile of each working array, not a chunk of full-width arrays (which
    peaked at 165.7 and 244.0 MiB in the one-chunk cases)."""
    paths = chunks * analysis._chunk_rows(analysis._draw_cols(rate * t_len))
    tracemalloc.start()
    try:
        analysis._secure_point(np.random.Philox(0), 0, t_len, rate, 0.01, 2.0, QuadraticCurve(2.0), paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_secure_latency_mc_error_cancels_the_points_not_started(monkeypatch):
    """A point that raises reaches the caller, the points still queued
    never run, and the call leaves no thread behind."""
    secure_point = analysis._secure_point
    lock = threading.Lock()
    release = threading.Event()
    started = []

    def point_failing_second(base, point_i, *args):
        with lock:
            started.append(point_i)
            second = len(started) == 2
        if second:
            raise RuntimeError("second point fails")
        # no other point finishes before the pool is shut down, so no
        # thread can take a queued point that a working cancel removes
        release.wait(60.0)
        return secure_point(base, point_i, *args)

    class GatedPool(analysis.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(analysis, "_secure_point", point_failing_second)
    monkeypatch.setattr(analysis, "ThreadPoolExecutor", GatedPool)
    monkeypatch.setattr(analysis, "_worker_count", lambda points: 2)
    threads = threading.active_count()
    grid = [20.0 + 10.0 * i for i in range(12)]
    honest, adv = rates_for_share(0.1, 0.1)
    try:
        with pytest.raises(RuntimeError, match="second point fails"):
            secure_latency_mc(honest, adv, 2.0, QuadraticCurve(2.0), grid, paths=20_000, seed=1)
        # the two points running when the second failed, and at most the
        # one its thread took next before the shutdown cancelled the rest
        assert 2 <= len(started) <= 3
        assert threading.active_count() == threads
    finally:
        release.set()


def test_chunk_rows_bound_one_array_and_leave_current_grids_alone():
    # at the arrivals bound a full chunk would hold 32,768 x 1,346 float64
    # values, about 350 MB in one array
    cols = analysis._draw_cols(analysis.MAX_PATH_ARRIVALS)
    assert cols == 1346
    rows = analysis._chunk_rows(cols)
    assert 8 * rows * cols <= analysis._CHUNK_BYTES < 8 * (rows + 1) * cols
    # the CLI default grid (10:10:990 at a rate of 0.1) and criterion 6's
    # grids draw fewer columns, so their paths keep their chunks and streams
    for mean in (0.1 * 990, 0.1 * 600):
        assert analysis._chunk_rows(analysis._draw_cols(mean)) == analysis._CHUNK
    assert analysis._chunk_rows(256) == analysis._CHUNK > analysis._chunk_rows(257)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail a secure_latency_mc call that draws before refusing its input."""

    def refuse(*args, **kwargs):
        raise AssertionError("drew paths before checking the input")

    monkeypatch.setattr(np.random, "Generator", refuse)


def test_secure_latency_mc_refuses_paths_past_its_streams(no_draws):
    """Chunk c of grid point i draws from stream i * 2**20 + c, so the
    paths bound fits in 2**20 chunks even at the arrivals bound with the
    columns doubled, and more paths are refused before any draw."""
    doubled = 2 * analysis._draw_cols(analysis.MAX_PATH_ARRIVALS)
    assert analysis.MAX_PATHS <= analysis._chunk_rows(doubled) * (1 << 20)
    honest, adv = rates_for_share(0.1, 0.1)
    with pytest.raises(ValueError, match="paths"):
        secure_latency_mc(honest, adv, 2.0, QuadraticCurve(2.0), [20.0], paths=analysis.MAX_PATHS + 1)


def test_secure_latency_mc_refuses_a_negative_seed(no_draws):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        secure_latency_mc(0.09, 0.01, 2.0, QuadraticCurve(2.0), [20.0], paths=1000, seed=-5)


@pytest.mark.parametrize("adv", [-0.01, math.nan, math.inf, 1e18], ids=["negative", "nan", "inf", "too-large"])
def test_secure_latency_mc_refuses_bad_adversary_rates(no_draws, adv):
    """A rate numpy's Poisson draw would refuse is refused before any
    draw, naming the parameter (1e18 * T = 2e19 is past numpy's limit)."""
    with pytest.raises(ValueError, match="adversary_rate"):
        secure_latency_mc(0.09, adv, 2.0, QuadraticCurve(2.0), [20.0], paths=1000)


def test_poisson_limit_is_numpys():
    rng = np.random.default_rng(0)
    rng.poisson(analysis._POISSON_LAM_MAX)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(analysis._POISSON_LAM_MAX, np.inf))


def test_catchup_probability_shape():
    assert catchup_probability(0.0, 6) == 0.0
    assert catchup_probability(0.5, 6) == 1.0
    # strictly falling far below float epsilon, where `1 - sum` read 0.0
    probs = [catchup_probability(0.2, d) for d in range(1, 201)]
    assert all(b < a for a, b in zip(probs, probs[1:]))
    assert 0.0 < probs[-1] < probs[0] < 1.0


# Nakamoto 2008, section 11: P for attacker share q at depth z, to 7 places
NAKAMOTO_TABLE = [
    (0.1, 5, 0.0009137),
    (0.1, 10, 0.0000012),
    (0.3, 5, 0.1773523),
    (0.3, 10, 0.0416605),
    (0.3, 20, 0.0024804),
    (0.3, 50, 0.0000006),
]


def catchup_oracle(q_rel: float, depth: int) -> float:
    """Nakamoto's `1 - sum` in 120-digit decimals, where the cancellation
    that ruins it in floats leaves enough digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        q = decimal.Decimal(q_rel)
        ratio = q / (1 - q)
        lam = depth * ratio
        poisson = (-lam).exp()
        prob = decimal.Decimal(1)
        for k in range(depth + 1):
            prob -= poisson * (1 - ratio ** (depth - k))
            poisson *= lam / (k + 1)
        return float(prob)


@pytest.mark.parametrize("q", [0.05, 0.2, 0.4, 0.49])
@pytest.mark.parametrize("depth", [1, 5, 31, 58, 200])
def test_catchup_probability_matches_decimal_oracle(q, depth):
    assert catchup_probability(q, depth) == pytest.approx(catchup_oracle(q, depth), rel=1e-10)


@pytest.mark.parametrize("q, depth, table", NAKAMOTO_TABLE)
def test_catchup_probability_matches_nakamoto_table(q, depth, table):
    assert round(catchup_probability(q, depth), 7) == table


@pytest.mark.parametrize(
    "risk, depth", [(1e-3, 6), (1e-9, 17), (1e-15, 28), (1e-17, 32), (1e-20, 37), (1e-30, 56)]
)
def test_nakamoto_discounted_depth_below_float_epsilon(risk, depth):
    """Depths for risks below about 1e-16 all read 31 while the probability
    was computed as `1 - sum`."""
    assert nakamoto_discounted_depth(0.1, 0.928, risk) == depth


def test_nakamoto_discounted_depth():
    plain = nakamoto_discounted_depth(0.1, 1.0, 1e-3)
    discounted = nakamoto_discounted_depth(0.1, 0.928, 1e-3)
    assert discounted >= plain
    with pytest.raises(AdversaryMajority):
        nakamoto_discounted_depth(0.45, 0.5, 1e-3)
    with pytest.raises(ValueError):
        nakamoto_discounted_depth(0.1, 0.9, 1.5)
