"""Broadcast delay curves: CDF shape, inverse sampling, means."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdag.curves import (
    InstantCurve,
    QuadraticCurve,
    StepCurve,
    UniformCurve,
    make_curve,
)

CURVES = ["quadratic", "uniform", "instant", "step"]


@pytest.mark.parametrize("name", CURVES)
def test_cdf_shape(name):
    curve = make_curve(name, 2.0)
    ts = np.linspace(0.0, 2.0, 101)
    vals = np.array([curve.cdf(t) for t in ts])
    assert (np.diff(vals) >= -1e-12).all()  # nondecreasing
    assert curve.cdf(2.0) == pytest.approx(1.0)
    assert curve.cdf(5.0) == pytest.approx(1.0)  # saturates past t0
    assert 0.0 <= curve.cdf(0.0) <= 1.0


@pytest.mark.parametrize("name", ["quadratic", "uniform"])
@given(st.floats(0.0, 0.999999))
def test_inverse_is_cdf_inverse(name, y):
    curve = make_curve(name, 2.0)
    t = curve.inverse(y)
    assert 0.0 <= t <= 2.0
    assert curve.cdf(t) == pytest.approx(y, abs=1e-9)


@pytest.mark.parametrize(
    "name,mean", [("quadratic", 2.0 / 3.0), ("uniform", 1.0), ("instant", 0.0), ("step", 2.0)]
)
def test_means(name, mean):
    curve = make_curve(name, 2.0)
    assert curve.mean() == pytest.approx(mean, abs=1e-9)


def test_quadratic_matches_published_form():
    # t0 = 2: F(t) = t - t^2/4
    curve = QuadraticCurve(2.0)
    for t in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert curve.cdf(t) == pytest.approx(t - t * t / 4.0, abs=1e-12)


def test_inverse_accepts_arrays():
    curve = QuadraticCurve(2.0)
    y = np.array([0.0, 0.5, 0.99])
    t = curve.inverse(y)
    assert t.shape == y.shape
    assert np.allclose([curve.cdf(x) for x in t], y)


def test_sampled_mean_matches_curve_mean():
    rng = np.random.default_rng(0)
    curve = QuadraticCurve(2.0)
    draws = curve.inverse(rng.random(200_000))
    assert draws.mean() == pytest.approx(curve.mean(), abs=0.01)


def test_make_curve_rejects_bad_input():
    with pytest.raises(ValueError):
        make_curve("nope", 1.0)
    with pytest.raises(ValueError):
        make_curve("quadratic", 0.0)
    with pytest.raises(ValueError):
        make_curve("quadratic", float("inf"))


@pytest.mark.parametrize("name", CURVES)
@pytest.mark.parametrize("t0", [0.5, 2.0])
def test_scalar_inverse_matches_array_path_bitwise(name, t0):
    """A float's quantile has the bits of its element in an array's, as the
    simulator draws one array per broadcast and its oracle one float per
    delivery."""
    curve = make_curve(name, t0)
    rng = random.Random(17)
    ys = [0.0, 0.5, 1.0 - 2.0**-53] + [rng.random() for _ in range(1000)]
    drawn = curve.inverse(np.array(ys))
    for y, want in zip(ys, drawn):
        got = curve.inverse(y)
        assert type(got) is float
        assert got.hex() == float(want).hex()
