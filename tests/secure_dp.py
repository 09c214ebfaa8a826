"""Forward DP for the secure-latency failure probability: the exact
counterpart of `analysis.secure_latency_mc`, which samples it.

The model is a renewal process.  Honest milestones arrive Poisson at the
honest rate from an anchor at time 0 that carries tag 0.  A milestone's
tag depends only on the previous tag and the gap u before it: 1 if
u > t0, else the previous tag with probability F(u), else 0.  A path fails
when its lead, the 1-tags inside [t0, T - t0] less the 0-tags on [0, T],
does not exceed a Poisson(adversary_rate * T) count.

Time moves in steps of h = t0 / m, m = steps_per_t0, with at most one
arrival, at the end of a step, with probability 1 - exp(-rate * h).  The
state is the mass of each (tag of the last arrival, whole steps since it
capped at m, lead).  An arrival a + 1 steps after the last (a < m) reads
F at (a + 1/2) * h, the middle of its last step; one more than m steps
after has a gap over t0.  No arrival before t0 can carry tag 1, so 1-tags
count from time 0 up to T - t0; there each T of the grid forks a copy
that counts only 0-tags for t0 more.  The failure probability is the
expected Poisson upper tail at the lead, P(N >= k) =
gammainc(k, adversary_rate * T), the complement of gammaincc, which keeps
its precision where the tail is small.  The error is O(h).
"""

import math
from typing import Sequence

import numpy as np
from scipy.special import gammainc

from sdag.curves import DelayCurve


def failure_dp(
    honest_rate: float,
    adversary_rate: float,
    t0: float,
    curve: DelayCurve,
    t_grid: Sequence[float],
    steps_per_t0: int,
) -> list[float]:
    """P(failure) at each T of `t_grid`, each a multiple of the step h
    greater than 2 * t0, at step h = t0 / steps_per_t0."""
    m = steps_per_t0
    h = t0 / m
    ends = [round(t / h) for t in t_grid]
    if not all(abs(e * h - t) <= 1e-9 * t and e > 2 * m for e, t in zip(ends, t_grid)):
        raise ValueError("every T must be a multiple of t0 / steps_per_t0 above 2 * t0")
    # the lead stays within +-(arrivals), which Poisson bounds as the
    # Monte Carlo's column count does; the mass check below confirms it
    mean = honest_rate * max(t_grid)
    k = int(mean + 10 * math.sqrt(mean + 1) + 30)
    leads = np.arange(-k, k + 1)
    q = -math.expm1(-honest_rate * h)
    keep = curve.cdf((np.arange(m) + 0.5) * h)

    def step(state: np.ndarray, ones_count: bool) -> np.ndarray:
        tag1 = keep @ state[1, :m] + state[:, m].sum(axis=0)
        tag0 = state[0, :m].sum(axis=0) + (1 - keep) @ state[1, :m]
        out = np.zeros_like(state)
        out[:, 1:m] = state[:, : m - 1]
        out[:, m] = state[:, m - 1] + state[:, m]
        out *= 1 - q
        if ones_count:
            out[1, 0, 1:] = q * tag1[:-1]
        else:
            out[1, 0] = q * tag1
        out[0, 0, :-1] = q * tag0[1:]
        return out

    state = np.zeros((2, m + 1, leads.size))
    state[0, 0, k] = 1.0
    forks: dict[int, list[int]] = {}
    for i, end in enumerate(ends):
        forks.setdefault(end - m, []).append(i)
    result = [0.0] * len(ends)
    for s in range(1, max(ends) - m + 1):
        state = step(state, True)
        for i in forks.get(s, ()):
            tail = state
            for _ in range(m):
                tail = step(tail, False)
            mass = tail.sum(axis=(0, 1))
            # rounding drifts by about 1e-16 a step; a lead range too
            # narrow for the mass would lose far more
            assert abs(mass.sum() - 1.0) < 1e-9, "the lead range lost mass"
            tail_prob = np.where(leads > 0, gammainc(np.maximum(leads, 1), adversary_rate * t_grid[i]), 1.0)
            result[i] = float(mass @ tail_prob)
    return result


def binomial_z(frequency: float, prob: float, paths: int) -> float:
    """How many binomial sigma a failure frequency over `paths` paths lies
    from the failure probability `prob`."""
    return (frequency - prob) / math.sqrt(prob * (1.0 - prob) / paths)


def failure_dp_extrapolated(
    honest_rate: float,
    adversary_rate: float,
    t0: float,
    curve: DelayCurve,
    t_grid: Sequence[float],
) -> list[float]:
    """Richardson's extrapolation of `failure_dp` from h = t0/20 and
    t0/40: 2 p(h/2) - p(h), which cancels the O(h) term."""
    args = (honest_rate, adversary_rate, t0, curve, t_grid)
    coarse = failure_dp(*args, 20)
    fine = failure_dp(*args, 40)
    return [2.0 * f - c for c, f in zip(coarse, fine)]
