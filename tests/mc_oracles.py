"""Monte Carlo oracles for the closed forms: the (X, M) infection chain
behind q1 and W2, and the milestone tag chain behind the type-1 fraction."""

import math
from typing import NamedTuple

import numpy as np

from sdag.analysis import _tags
from sdag.curves import DelayCurve


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
