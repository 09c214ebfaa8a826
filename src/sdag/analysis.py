"""Closed-form calculators and the secure-latency Monte Carlo for the
protocol's throughput and latency model.

Quantities covered: the wasted-capacity fraction theta(c), mempool queue
length Q and queueing latency W1, the infection-chain hitting time q1 and
the infection latency W2, the type-1 milestone fraction under the tagging
model, secure-latency failure-frequency curves, and the discounted Nakamoto
confirmation depth.

The Monte Carlo uses numpy's counter-based Philox generator so million-path
runs are replayable bit for bit; independent chunks use Philox jumps and
aggregate by integer counts, so results do not depend on chunk order or on
the threads that run them (they do depend on the chunk size, which is
fixed).  A chunk is worked on in tiles of rows, which bound the memory a
thread holds and do not change the result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import NamedTuple, Sequence

import numpy as np

# at module load, though two functions use it: `bench/run.py` times the import
# with a probe whose first 0.1 s alarm must fall inside it, else every run fails
# with "the probe recorded no burst" (ROADMAP items 1 and 9)
from scipy.integrate import quad

from .curves import DelayCurve

QUAD_TOL = 1e-10


class UnstableQueue(ValueError):
    """Traffic intensity rho/(1-theta) >= 1: the mempool grows without bound."""


class AdversaryMajority(ValueError):
    """Discounted honest power does not exceed adversary power."""


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite")


# -- capacity and queueing -------------------------------------------------


def theta(c: float, mu: float, t_bar: float) -> float:
    """Fraction of block-carrying capacity wasted on duplicate transactions."""
    if not all(math.isfinite(x) and x >= 0 for x in (c, mu, t_bar)):
        raise ValueError("c, mu, t_bar must be finite and >= 0")
    a = (1.0 - math.exp(-mu * t_bar)) * mu * c * t_bar
    # a overflows to inf only where theta rounds to 1 anyway
    return a / (1.0 + a) if a < math.inf else 1.0


def _check_stable(rho: float, theta_val: float) -> float:
    if theta_val >= 1.0:
        raise UnstableQueue("theta = 1: every block's capacity is wasted")
    x = rho / (1.0 - theta_val)
    if x >= 1.0:
        raise UnstableQueue(f"rho/(1-theta) = {x:.6g} >= 1")
    return x


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} overflows for these inputs")
    return value


def queue_length(lam: float, n: int, mu: float, c: float, theta_val: float) -> float:
    """Steady-state mempool size Q = (n/c) ln(n mu / (n mu - lambda/(1-theta)))."""
    _require_positive(lam=lam, n=n, mu=mu, c=c)
    x = _check_stable(lam / (n * mu), theta_val)
    return _finite("Q", (n / c) * -math.log1p(-x))


def w1(lam: float, n: int, mu: float, c: float, theta_val: float) -> float:
    """Mean queueing latency by Little's law, Q / lambda, written as
    (ln(1/(1-x)) / x) / (c mu (1-theta)) with x = rho/(1-theta), which does
    not cancel as lambda, and so x, tends to 0: W1 tends to
    1/(c mu (1-theta))."""
    _require_positive(lam=lam, n=n, mu=mu, c=c)
    x = _check_stable(lam / (n * mu), theta_val)
    growth = -math.log1p(-x) / x if x > 0 else 1.0
    rate = c * mu * (1.0 - theta_val)  # 0 only where it underflows
    return _finite("W1", growth / rate if rate > 0 else math.inf)


def w1_of_theta(theta_val: float, rho: float, t_bar: float, mu: float) -> float:
    """W1 as a function of the wasted fraction: the capacity-latency
    trade-off obtained by eliminating c from theta(c)."""
    if not 0 < theta_val < 1:
        raise ValueError("theta must be in (0, 1)")
    x = _check_stable(rho, theta_val)
    lead = (1.0 - theta_val) * t_bar * (1.0 - math.exp(-mu * t_bar)) / (theta_val * rho)
    return lead * math.log(1.0 / (1.0 - x))


# -- infection latency -----------------------------------------------------


# bounds n in the infection chain: the recursion takes n steps, and n = 10**7
# takes about 3 s on a 2-core machine
MAX_CHAIN_NODES = 10**7


class Q1Result(NamedTuple):
    exact: float
    bound: float


def infection_q1(n: int, p: float) -> Q1Result:
    """Expected jump count for the (X, M) infection chain to confirm,
    starting from one infected miner, by backward recursion in floats
    (within 1e-14 of the same recursion in rationals up to n = 10**4), plus
    the 2n(1+ln n) + 1/p bound."""
    if not 1 <= n <= MAX_CHAIN_NODES:
        raise ValueError(f"n must be in [1, {MAX_CHAIN_NODES}]")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    p = float(p)
    q = 1.0 / p  # q_n
    for x in range(n - 1, 0, -1):
        absorb = p * x / n
        keep_grow = (1.0 - absorb) * (x * (n - x) / (n * n))
        # q_x = 1 + keep*(grow*q_{x+1} + (1-grow)*q_x), solved for q_x; the
        # divisor 1 - keep*(1-grow), written so that it does not cancel
        q = (1.0 + keep_grow * q) / (absorb + keep_grow)
    bound = 2.0 * n * (1.0 + math.log(n)) + 1.0 / p
    return Q1Result(q, bound)


class W2Result(NamedTuple):
    exact: float
    bound: float


def w2_bound(n: int, p: float, mu: float) -> W2Result:
    """Infection latency W2 = q1/(n mu) and its closed-form upper bound."""
    _require_positive(mu=mu)
    q1 = infection_q1(n, p)
    p = float(p)
    exact = q1.exact / (n * mu)
    # n p mu underflows to 0 where 1/(n p) / mu overflows to inf
    bound = (2.0 + 2.0 * math.log(n)) / mu + 1.0 / (n * p) / mu
    if not (math.isfinite(exact) and math.isfinite(bound)):
        raise ValueError("W2 overflows for this n, p and mu")
    return W2Result(exact, bound)


# -- milestone tagging -----------------------------------------------------


def z_success_prob(pn_mu: float, t0: float, curve: DelayCurve) -> float:
    """P(creator of the next milestone saw all prior honest milestones,
    given the previous one was type 1)."""
    integral, _ = quad(
        lambda t: curve.cdf(t) * pn_mu * math.exp(-pn_mu * t), 0.0, t0, epsabs=QUAD_TOL
    )
    return integral + math.exp(-pn_mu * t0)


def type1_fraction(pn_mu: float, t0: float, curve: DelayCurve) -> float:
    """Long-run fraction of honest milestones tagged 1 under the
    regenerative-cycle model."""
    _require_positive(pn_mu=pn_mu)
    head = math.exp(-pn_mu * t0)
    wasted, _ = quad(
        lambda t: pn_mu * (1.0 - curve.cdf(t)) * math.exp(-pn_mu * t),
        0.0,
        t0,
        epsabs=QUAD_TOL,
    )
    if head + wasted == 0.0:
        raise ValueError("pn_mu * t0 too large: both terms of the fraction underflow to 0")
    return head / (head + wasted)


def _tags(u: np.ndarray, w: np.ndarray, t0: float, curve: DelayCurve) -> np.ndarray:
    """Vectorized tag chain: Y_i = B_i or (A_i and Y_{i-1}) with the
    coupling A = {creator saw everything} and B = {inter-arrival exceeded
    t0}; B implies A.  The chain starts in the 0 state (the anchor
    milestone at time 0 carries tag 0).

    One running maximum over event codes gives every tag: index i sets the
    tag (code 2i+1) when B_i, resets it (code 2i) when not A_i, and keeps
    it (code -2) otherwise.  B implies A, so no index both sets and resets;
    the running maximum is the code of the latest set or reset, and the
    tag is its low bit.  The codes use the narrowest integer dtype that
    holds 2n+1 for n columns.
    """
    b = u > t0
    keep = w < curve.cdf(u)
    keep &= ~b
    n = u.shape[-1]
    dtype = np.min_scalar_type(-2 * n - 1)
    code = 2 * np.arange(n, dtype=dtype) + b
    code[keep] = -2
    return (np.maximum.accumulate(code, axis=-1) & 1).astype(bool)


# -- secure latency --------------------------------------------------------


class SecurePoint(NamedTuple):
    horizon: float
    failures: int
    paths: int
    frequency: float
    stderr: float


def rates_for_share(share: float, pn_mu: float) -> tuple[float, float]:
    """(honest, adversary) milestone rates for a hash-power share.

    The combined rate is fixed at pn_mu and split (1-share)/share; this is
    the convention that reproduces the published failure-frequency curves.
    To hold the honest rate at P instead, with the adversary adding
    share/(1-share) of it on top, pass pn_mu = P / (1 - share)."""
    if not 0 <= share < 1:
        raise ValueError("share must be in [0, 1)")
    return (1.0 - share) * pn_mu, share * pn_mu


_CHUNK = 1 << 15
# the most bytes of one float64 array of a chunk: _CHUNK rows up to 256
# columns, more columns than any grid of the CLI, the benchmark or the tests
# draws (at most 229), so the cap leaves their paths in the same chunks
_CHUNK_BYTES = _CHUNK * 256 * 8
# the most bytes of one float64 array of a tile, the rows of a chunk worked
# on at once (see secure_latency_mc).  1 MiB is 572 rows at 229 columns;
# 256 KiB tiles, a loop step each, slowed the benchmark's 2,000-path grid
# by a fifth in one run
_TILE_BYTES = 1 << 20
# bounds the expected honest arrivals per path, mean = rate * T: an infinite
# mean has no column count
MAX_PATH_ARRIVALS = 1000
# bounds the paths per grid point: chunk c of point i draws from stream
# i * 2**20 + c, so a point must fit in 2**20 chunks.  With the columns at
# MAX_PATH_ARRIVALS doubled once, a chunk holds 3,116 rows, so 2**20 chunks
# cover about 3.3e9 paths
MAX_PATHS = 10**9
# numpy's largest Poisson mean: Generator.poisson refuses a larger one
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)
# bounds the threads of one secure_latency_mc call, each working a chunk:
# two threads are the most whose speed and peak memory were measured
_MAX_WORKERS = 2


def _draw_cols(mean_arrivals: float) -> int:
    """Columns drawn per path: mean + 10 sigma + 30 inter-arrivals."""
    return int(mean_arrivals + 10.0 * math.sqrt(mean_arrivals + 1.0) + 30)


def _chunk_rows(cols: int) -> int:
    """Paths per chunk: _CHUNK, or fewer so that one float64 array of
    `cols` columns stays within _CHUNK_BYTES."""
    return max(1, min(_CHUNK, _CHUNK_BYTES // (8 * cols)))


def _tile_rows(cols: int) -> int:
    """Paths per tile: as many as keep one float64 array of `cols`
    columns within _TILE_BYTES, and at least one."""
    return max(1, _TILE_BYTES // (8 * cols))


def _prefix_cols(mean_arrivals: float) -> int:
    """Columns summed first: enough that every row of a chunk passes T
    unless the Poisson count lands beyond mean + 7 sigma."""
    return int(mean_arrivals + 7.0 * math.sqrt(mean_arrivals + 1.0) + 8)


def _worker_count(points: int) -> int:
    """Threads for a grid of `points` points: one per usable CPU, at most
    _MAX_WORKERS and at most one per point."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(points, cpus or 1, _MAX_WORKERS))


def _arrival_tiles(
    rng: np.random.Generator, rows: int, cols: int, prefix: int,
    scale: float, t_len: float, t0: float,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None:
    """Pass 1 of a chunk: its `rows` x `cols` inter-arrivals, drawn tile
    by tile.  Per tile, the inter-arrivals up to its largest count of
    arrivals at or before T and the masks of those arrivals inside
    [t0, T - t0] and [0, T]; None if some path does not pass T."""
    tiles = []
    step = _tile_rows(cols)
    for start in range(0, rows, step):
        u = rng.exponential(scale, size=(min(step, rows - start), cols))
        # a cumsum of non-negative floats never decreases, so a prefix
        # past T in every row settles the full-width check as well
        times = np.cumsum(u[:, :prefix], axis=1)
        if not (times[:, -1] > t_len).all():
            times = np.cumsum(u, axis=1)
            if not (times[:, -1] > t_len).all():
                return None
        # every row passes T, so argmax finds its first arrival after T
        k = int((times > t_len).argmax(axis=1).max())
        times = times[:, :k]
        tiles.append((u[:, :k].copy(), (times >= t0) & (times <= t_len - t0), times <= t_len))
    return tiles


def _secure_point(
    base: np.random.Philox, point_i: int, t_len: float, pn_mu_honest: float,
    adversary_rate: float, t0: float, curve: DelayCurve, paths: int,
) -> SecurePoint:
    """Grid point `point_i` of secure_latency_mc.  Its chunks run in order:
    a chunk that falls short of T moves on to the next stream."""
    mean_arrivals = pn_mu_honest * t_len
    cols = _draw_cols(mean_arrivals)
    prefix = _prefix_cols(mean_arrivals)
    failures = 0
    done = 0
    chunk_i = 0
    while done < paths:
        rows = min(_chunk_rows(cols), paths - done)
        rng = np.random.Generator(base.jumped(point_i * (1 << 20) + chunk_i))
        chunk_i += 1
        tiles = _arrival_tiles(rng, rows, cols, prefix, 1.0 / pn_mu_honest, t_len, t0)
        # enough columns that every path overruns T; Poisson tails make
        # a shortfall at cols = mean + 10 sigma astronomically unlikely
        if tiles is None:
            cols *= 2
            continue
        # pass 2: the uniforms in the same tiles, then the adversary; per
        # path, the 1-tags inside [t0, T - t0] less the 0-tags on [0, T]
        lead = np.empty(rows, dtype=np.int64)
        start = 0
        for u, window, full in tiles:
            n, k = u.shape
            w = rng.random((n, cols))[:, :k]
            y = _tags(u, w, t0, curve)
            lead[start : start + n] = (y & window).sum(axis=1) - (~y & full).sum(axis=1)
            start += n
        # the next chunk's pass 1 must not overlap this chunk's tiles
        del tiles
        adv = rng.poisson(adversary_rate * t_len, rows)
        failures += int((lead <= adv).sum())
        done += rows
    freq = failures / paths
    stderr = math.sqrt(max(freq * (1.0 - freq), 1.0 / paths) / paths)
    return SecurePoint(float(t_len), failures, paths, freq, stderr)


def secure_latency_mc(
    pn_mu_honest: float,
    adversary_rate: float,
    t0: float,
    curve: DelayCurve,
    t_grid: Sequence[float],
    paths: int = 1_000_000,
    seed: int = 0,
) -> list[SecurePoint]:
    """Failure frequency of a depth-T confirmation window.

    Per path: honest milestones arrive Poisson(pn_mu_honest) on [0, T] and
    are tagged by the chain in _tags starting from the 0 state; the
    confirmation fails when the count of 1-tags inside [t0, T - t0] does
    not exceed the total count of 0-tags on [0, T] plus an independent
    Poisson(adversary_rate*T) adversary milestone count.

    Each chunk draws mean + 10 sigma + 30 inter-arrivals and as many
    uniforms per path (doubling the width and moving to the next stream if
    some path does not reach T), but only the arrivals inside [0, T] are
    worked on: arrival times are summed over a prefix of mean + 7 sigma + 8
    columns (the full width when some path has not passed T by then), and
    the tags and counts run over the columns up to the largest count of
    arrivals at or before T in any path of a tile.  A tag depends only on
    earlier columns, and later columns fall outside both counts, so the
    result is that of working on every drawn column.

    A chunk fixes the stream and the draws: all its inter-arrivals, then
    all its uniforms, then its adversary counts.  The draws run tile by
    tile (_TILE_BYTES per float64 array), so a thread holds the chunk's
    trimmed inter-arrivals and masks plus one tile of each working array,
    and the tile size does not change the result.

    Grid points run on up to _MAX_WORKERS threads, largest T first, and
    each draws only from its own streams, so the result does not depend on
    the thread count.  An exception cancels the points not yet started.
    """
    if not 1 <= paths <= MAX_PATHS:
        raise ValueError(f"paths must be in [1, {MAX_PATHS}]")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    _require_positive(honest_rate=pn_mu_honest)
    for t_len in t_grid:
        if t_len <= 2 * t0:
            raise ValueError("every T must exceed 2*t0")
    if pn_mu_honest * max(t_grid, default=0.0) > MAX_PATH_ARRIVALS:
        raise ValueError(f"honest rate * T (expected arrivals per path) must be at most {MAX_PATH_ARRIVALS}")
    if not (math.isfinite(adversary_rate) and adversary_rate >= 0):
        raise ValueError("adversary_rate must be finite and >= 0")
    if adversary_rate * max(t_grid, default=0.0) > _POISSON_LAM_MAX:
        raise ValueError(f"adversary_rate * T (the adversary's Poisson mean) must be at most {_POISSON_LAM_MAX:.6g}")
    base = np.random.Philox(seed)

    def point(i: int) -> SecurePoint:
        return _secure_point(base, i, t_grid[i], pn_mu_honest, adversary_rate, t0, curve, paths)

    out: list[SecurePoint] = [None] * len(t_grid)  # type: ignore[list-item]
    pool = ThreadPoolExecutor(_worker_count(len(t_grid)))
    try:
        # the work of a point grows with its columns, so the longest go first
        order = sorted(range(len(t_grid)), key=lambda i: -t_grid[i])
        futures = {pool.submit(point, i): i for i in order}
        for future in as_completed(futures):
            out[futures[future]] = future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return out


# -- discounted Nakamoto depth ----------------------------------------------

# bounds the depth search on CLI input: a risk that no depth up to here
# reaches is reported as an error
MAX_DEPTH = 10_000


def catchup_probability(q_rel: float, depth: int) -> float:
    """Probability an attacker with relative power q_rel ever overtakes a
    chain that is `depth` blocks ahead (Nakamoto's race with the attacker's
    progress K ~ Poisson(depth * q/p) at the moment of confirmation).

    Evaluated as sum_{k <= depth} Pois(k) (q/p)^(depth-k) + P(K > depth):
    every term is positive, so it is exact down to float underflow, where
    `1 - sum` loses everything below about 1e-16."""
    from scipy.special import gammainc, gammaln, logsumexp

    if q_rel <= 0:
        return 0.0
    if q_rel >= 0.5 or depth <= 0:
        return 1.0
    ratio = q_rel / (1.0 - q_rel)
    lam = depth * ratio
    k = np.arange(depth + 1)
    log_terms = -lam + k * math.log(lam) - gammaln(k + 1) + (depth - k) * math.log(ratio)
    return min(float(np.exp(logsumexp(log_terms)) + gammainc(depth + 1, lam)), 1.0)


def nakamoto_discounted_depth(adversary_share: float, type1_frac: float, target_risk: float) -> int:
    """Smallest confirmation depth with catch-up probability below
    target_risk, with honest power discounted by the type-1 fraction.
    The probability falls strictly with depth, so the depth is found by
    bisection over [1, MAX_DEPTH]."""
    if not 0 <= adversary_share < 1:
        raise ValueError("adversary_share must be in [0, 1)")
    if not 0 < target_risk < 1:
        raise ValueError("target_risk must be in (0, 1)")
    if not 0 < type1_frac <= 1:
        raise ValueError("type1_frac must be in (0, 1]")
    honest = (1.0 - adversary_share) * type1_frac
    if honest <= adversary_share:
        raise AdversaryMajority(
            f"discounted honest power {honest:.4g} <= adversary {adversary_share:.4g}"
        )
    q_rel = adversary_share / (adversary_share + honest)
    if catchup_probability(q_rel, MAX_DEPTH) >= target_risk:
        raise ValueError(f"no depth below {MAX_DEPTH} reaches the target risk")
    lo, hi = 1, MAX_DEPTH  # the answer is in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if catchup_probability(q_rel, mid) < target_risk:
            hi = mid
        else:
            lo = mid + 1
    return lo
