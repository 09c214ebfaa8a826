"""Closed-form calculators and Monte-Carlo cross-checks for the protocol's
throughput and latency model.

Quantities covered: the wasted-capacity fraction theta(c), mempool queue
length Q and queueing latency W1, the infection-chain hitting time q1 and
the infection latency W2, the type-1 milestone fraction under the tagging
model, secure-latency failure-frequency curves, and the discounted Nakamoto
confirmation depth.

All Monte Carlo uses numpy's counter-based Philox generator so million-path
runs are replayable bit for bit; independent chunks use Philox jumps and
aggregate by integer counts, so results do not depend on chunk order (they
do depend on the chunk size, which is fixed).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy.integrate import quad

from .curves import DelayCurve

QUAD_TOL = 1e-10


class UnstableQueue(ValueError):
    """Traffic intensity rho/(1-theta) >= 1: the mempool grows without bound."""


class AdversaryMajority(ValueError):
    """Discounted honest power does not exceed adversary power."""


# -- capacity and queueing -------------------------------------------------


def theta(c: float, mu: float, t_bar: float) -> float:
    """Fraction of block-carrying capacity wasted on duplicate transactions."""
    if c < 0 or mu < 0 or t_bar < 0:
        raise ValueError("c, mu, t_bar must be >= 0")
    a = (1.0 - math.exp(-mu * t_bar)) * mu * c * t_bar
    return a / (1.0 + a)


def _check_stable(rho: float, theta_val: float) -> float:
    x = rho / (1.0 - theta_val)
    if x >= 1.0:
        raise UnstableQueue(f"rho/(1-theta) = {x:.6g} >= 1")
    return x


def queue_length(lam: float, n: int, mu: float, c: float, theta_val: float) -> float:
    """Steady-state mempool size Q = (n/c) ln(n mu / (n mu - lambda/(1-theta)))."""
    rho = lam / (n * mu)
    x = _check_stable(rho, theta_val)
    return (n / c) * math.log(1.0 / (1.0 - x))


def w1(lam: float, n: int, mu: float, c: float, theta_val: float) -> float:
    """Mean queueing latency by Little's law: Q / lambda."""
    rho = lam / (n * mu)
    x = _check_stable(rho, theta_val)
    return (1.0 / c) * (1.0 / (rho * mu)) * math.log(1.0 / (1.0 - x))


def w1_of_theta(theta_val: float, rho: float, t_bar: float, mu: float) -> float:
    """W1 as a function of the wasted fraction: the capacity-latency
    trade-off obtained by eliminating c from theta(c)."""
    if not 0 < theta_val < 1:
        raise ValueError("theta must be in (0, 1)")
    x = _check_stable(rho, theta_val)
    lead = (1.0 - theta_val) * t_bar * (1.0 - math.exp(-mu * t_bar)) / (theta_val * rho)
    return lead * math.log(1.0 / (1.0 - x))


# -- infection latency -----------------------------------------------------


class Q1Result(NamedTuple):
    exact: Fraction
    bound: float


def infection_q1(n: int, p: Fraction) -> Q1Result:
    """Expected jump count for the (X, M) infection chain to confirm,
    starting from one infected miner; exact by backward recursion in
    rational arithmetic, plus the 2n(1+ln n) + 1/p bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = Fraction(p)
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    q = Fraction(1, 1) / p  # q_n
    for x in range(n - 1, 0, -1):
        keep = Fraction(1) - Fraction(p * x, n)
        grow = Fraction(x * (n - x), n * n)
        # q_x = 1 + keep*(grow*q_{x+1} + (1-grow)*q_x)
        q = (1 + keep * grow * q) / (1 - keep * (1 - grow))
    bound = 2.0 * n * (1.0 + math.log(n)) + 1.0 / float(p)
    return Q1Result(q, bound)


class W2Result(NamedTuple):
    exact: float
    bound: float


def w2_bound(n: int, p: Fraction, mu: float) -> W2Result:
    """Infection latency W2 = q1/(n mu) and its closed-form upper bound."""
    q1 = infection_q1(n, p)
    p = float(Fraction(p))
    exact = float(q1.exact) / (n * mu)
    bound = (2.0 + 2.0 * math.log(n)) / mu + 1.0 / (n * p * mu)
    return W2Result(exact, bound)


class MCEstimate(NamedTuple):
    mean: float
    stderr: float
    samples: int


def infection_chain_mc(n: int, p: float, paths: int, seed: int = 0) -> MCEstimate:
    """Monte Carlo of the (X, M) jump chain: jumps to absorption from X=1."""
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.ones(paths, dtype=np.int64)
    jumps = np.zeros(paths, dtype=np.int64)
    alive = np.ones(paths, dtype=bool)
    while alive.any():
        idx = np.flatnonzero(alive)
        xs = x[idx]
        jumps[idx] += 1
        absorbed = rng.random(idx.size) < p * xs / n
        grow = rng.random(idx.size) < xs * (n - xs) / (n * n)
        x[idx] = np.where(~absorbed & grow, xs + 1, xs)
        done = idx[absorbed]
        alive[done] = False
        # once fully infected, the remaining wait is geometric(p)
        full = idx[~absorbed & (x[idx] == n)]
        if full.size:
            jumps[full] += rng.geometric(p, full.size)
            alive[full] = False
    mean = float(jumps.mean())
    stderr = float(jumps.std(ddof=1) / math.sqrt(paths))
    return MCEstimate(mean, stderr, paths)


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
    head = math.exp(-pn_mu * t0)
    wasted, _ = quad(
        lambda t: pn_mu * (1.0 - curve.cdf(t)) * math.exp(-pn_mu * t),
        0.0,
        t0,
        epsabs=QUAD_TOL,
    )
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
    keep = (w < curve.cdf(u)) & ~b
    n = u.shape[-1]
    dtype = np.min_scalar_type(-2 * n - 1)
    code = 2 * np.arange(n, dtype=dtype) + b
    code[keep] = -2
    return (np.maximum.accumulate(code, axis=-1) & 1).astype(bool)


def tag_sequence_mc(
    pn_mu: float, t0: float, curve: DelayCurve, tags: int, seed: int = 0
) -> MCEstimate:
    """Long-run tag average from one simulated chain; the standard error
    uses batch means because consecutive tags are correlated."""
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.exponential(1.0 / pn_mu, size=(1, tags))
    w = rng.random((1, tags))
    y = _tags(u, w, t0, curve)[0, 1:]  # drop the initial-state transient
    mean = float(y.mean())
    batches = 200
    usable = (y.size // batches) * batches
    bm = y[:usable].reshape(batches, -1).mean(axis=1)
    stderr = float(bm.std(ddof=1) / math.sqrt(batches))
    return MCEstimate(mean, stderr, int(y.size))


# -- secure latency --------------------------------------------------------


class SecurePoint(NamedTuple):
    horizon: float
    failures: int
    paths: int
    frequency: float
    stderr: float


def rates_for_share(
    share: float, pn_mu: float, honest_fixed: bool = False
) -> tuple[float, float]:
    """(honest, adversary) milestone rates for a hash-power share.

    Default convention: the combined rate is fixed at pn_mu and split
    (1-share)/share; this is the convention that reproduces the published
    failure-frequency curves.  With honest_fixed the honest rate stays at
    pn_mu and the adversary adds share/(1-share) of it on top (a strictly
    stronger adversary, available for sensitivity analysis)."""
    if not 0 <= share < 1:
        raise ValueError("share must be in [0, 1)")
    if honest_fixed:
        return pn_mu, share / (1.0 - share) * pn_mu
    return (1.0 - share) * pn_mu, share * pn_mu


_CHUNK = 1 << 15


def _prefix_cols(mean_arrivals: float) -> int:
    """Columns summed first: enough that every row of a chunk passes T
    unless the Poisson count lands beyond mean + 7 sigma."""
    return int(mean_arrivals + 7.0 * math.sqrt(mean_arrivals + 1.0) + 8)


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
    arrivals at or before T in any path.  A tag depends only on earlier
    columns, and later columns fall outside both counts, so the result is
    that of working on every drawn column.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    if not (math.isfinite(pn_mu_honest) and pn_mu_honest > 0):
        raise ValueError("the honest milestone rate must be positive and finite")
    for t_len in t_grid:
        if t_len <= 2 * t0:
            raise ValueError("every T must exceed 2*t0")
    base = np.random.Philox(seed)
    out = []
    for point_i, t_len in enumerate(t_grid):
        mean_arrivals = pn_mu_honest * t_len
        cols = int(mean_arrivals + 10.0 * math.sqrt(mean_arrivals + 1.0) + 30)
        prefix = _prefix_cols(mean_arrivals)
        failures = 0
        done = 0
        chunk_i = 0
        while done < paths:
            rows = min(_CHUNK, paths - done)
            rng = np.random.Generator(base.jumped(point_i * (1 << 20) + chunk_i))
            chunk_i += 1
            u = rng.exponential(1.0 / pn_mu_honest, size=(rows, cols))
            # a cumsum of non-negative floats never decreases, so a prefix
            # past T in every row settles the full-width check as well
            times = np.cumsum(u[:, :prefix], axis=1)
            if not (times[:, -1] > t_len).all():
                times = np.cumsum(u, axis=1)
            # enough columns that every path overruns T; Poisson tails make
            # a shortfall at cols = mean + 10 sigma astronomically unlikely
            if not (times[:, -1] > t_len).all():
                cols *= 2
                continue
            w = rng.random((rows, cols))
            # the most arrivals at or before T in any row; every row passes
            # T, so argmax finds its first arrival after T
            k = int((times > t_len).argmax(axis=1).max())
            times = times[:, :k]
            y = _tags(u[:, :k], w[:, :k], t0, curve)
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


# -- discounted Nakamoto depth ----------------------------------------------


def catchup_probability(q_rel: float, depth: int) -> float:
    """Probability an attacker with relative power q_rel ever overtakes a
    chain that is `depth` blocks ahead (Nakamoto's race with the attacker's
    progress Poisson at the moment of confirmation)."""
    if q_rel <= 0:
        return 0.0
    if q_rel >= 0.5:
        return 1.0
    p_rel = 1.0 - q_rel
    lam = depth * q_rel / p_rel
    prob = 1.0
    poisson = math.exp(-lam)
    for k in range(depth + 1):
        prob -= poisson * (1.0 - (q_rel / p_rel) ** (depth - k))
        poisson *= lam / (k + 1)
    return max(prob, 0.0)


def nakamoto_discounted_depth(
    adversary_share: float,
    type1_frac: float,
    target_risk: float,
    max_depth: int = 10_000,
) -> int:
    """Smallest confirmation depth with catch-up probability below
    target_risk, with honest power discounted by the type-1 fraction."""
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
    for depth in range(1, max_depth + 1):
        if catchup_probability(q_rel, depth) < target_risk:
            return depth
    raise ValueError(f"no depth below {max_depth} reaches the target risk")
