"""The forward DP of `tests/secure_dp.py` against the secure-latency Monte
Carlo on the delay curves criterion 6 does not use, and its step-size
error.  Criterion 6's own counts are checked against it in
`tests/test_acceptance.py`, which reads criterion 6's run."""

import pytest

from sdag.analysis import rates_for_share, secure_latency_mc
from sdag.curves import make_curve

from secure_dp import binomial_z, failure_dp, failure_dp_extrapolated

T0 = 2.0


@pytest.mark.parametrize("name, seed", [("uniform", 1), ("step", 2), ("instant", 3)])
def test_dp_matches_the_monte_carlo(name, seed):
    """At a combined rate of 0.3, 42% of honest gaps are shorter than t0,
    so the curve decides many tags.  Each frequency of 200,000 paths lies
    within 4 binomial sigma of the DP, a bound fixed in advance."""
    curve = make_curve(name, T0)
    honest, adversary = rates_for_share(0.1, 0.3)
    grid = [20.0, 40.0]
    exact = failure_dp_extrapolated(honest, adversary, T0, curve, grid)
    points = secure_latency_mc(honest, adversary, T0, curve, grid, paths=200_000, seed=seed)
    for point, prob in zip(points, exact):
        z = binomial_z(point.frequency, prob, point.paths)
        assert abs(z) <= 4.0, (name, point.horizon, point.failures, prob, z)


def test_dp_error_is_first_order_in_the_step():
    """Halving h = t0/20 twice moves the answer by about half as much the
    second time, the O(h) error that Richardson's extrapolation cancels;
    the extrapolations from (t0/20, t0/40) and (t0/40, t0/80) then agree
    to 1e-3 relative, far inside the 10% relative sampling error of a
    million paths at a probability of 1e-4."""
    curve = make_curve("quadratic", T0)
    honest, adversary = rates_for_share(0.3, 0.1)
    grid = [50.0, 100.0]
    p20, p40, p80 = (failure_dp(honest, adversary, T0, curve, grid, s) for s in (20, 40, 80))
    for a, b, c in zip(p20, p40, p80):
        assert b != c and 1.8 <= (a - b) / (b - c) <= 2.2
        assert abs((2 * b - a) - (2 * c - b)) <= 1e-3 * (2 * c - b)

