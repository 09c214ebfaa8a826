"""Broadcast delay curves: F(t) = fraction of peers reached t seconds after
a broadcast, with F(t0) = 1.  Curves support exact CDF evaluation, inverse
sampling, and the mean delay used by the capacity analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DelayCurve:
    """Base: subclasses define cdf on [0, t0] (nondecreasing, cdf(t0)=1)."""

    t0: float

    def cdf(self, t):
        raise NotImplementedError

    def inverse(self, y):
        """Quantile function for inverse-CDF sampling, element by element
        on an array; a float, or any 0-d input, gives a float."""
        raise NotImplementedError

    def mean(self) -> float:
        """E[T] = integral of (1 - F) over [0, t0]."""
        raise NotImplementedError


@dataclass(frozen=True)
class QuadraticCurve(DelayCurve):
    """F(t) = 2u - u^2 with u = t/t0; for t0 = 2 this is t - t^2/4."""

    def cdf(self, t):
        u = np.clip(np.asarray(t, dtype=float), 0.0, self.t0)
        u /= self.t0
        out = 2.0 * u
        u *= u
        out -= u
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        out = self.t0 * (1.0 - np.sqrt(1.0 - y))
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return self.t0 / 3.0


@dataclass(frozen=True)
class UniformCurve(DelayCurve):
    def cdf(self, t):
        u = np.clip(np.asarray(t, dtype=float), 0.0, self.t0)
        u /= self.t0
        return float(u) if np.ndim(u) == 0 else u

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        out = self.t0 * y
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return self.t0 / 2.0


@dataclass(frozen=True)
class InstantCurve(DelayCurve):
    """Everyone reached immediately: F = 1 on [0, t0]."""

    def cdf(self, t):
        out = np.ones_like(np.asarray(t, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return 0.0


@dataclass(frozen=True)
class StepCurve(DelayCurve):
    """Nobody reached before t0, everyone at t0: F = 0 on [0, t0)."""

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= self.t0, 1.0, 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        out = np.full_like(y, self.t0)
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return self.t0


_FAMILIES = {
    "quadratic": QuadraticCurve,
    "uniform": UniformCurve,
    "instant": InstantCurve,
    "step": StepCurve,
}


def make_curve(name: str, t0: float) -> DelayCurve:
    try:
        cls = _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown delay curve {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    if not (t0 > 0 and math.isfinite(t0)):
        raise ValueError("t0 must be a positive finite time")
    return cls(t0)
