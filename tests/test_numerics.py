"""Quadrature unit tests.

Expected values are either closed forms or were frozen from independent
oracles (numpy.polynomial.legendre.leggauss, exact antiderivatives,
scipy's exponential integral, step-halving refinement).
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import exp1

from pinchnet.errors import InvalidParameterError, NumericError
from pinchnet.numerics import gauss_legendre_rule, integrate_semi_infinite



def _legendre_on(n, lo, hi):
    """The n-point Gauss-Legendre rule mapped onto [lo, hi]."""
    x, w = gauss_legendre_rule(n)
    return lo + 0.5 * (hi - lo) * (x + 1.0), 0.5 * (hi - lo) * w


# ---------------- Gauss-Legendre ----------------

def test_legendre_midpoint():
    nodes, weights = _legendre_on(1, 0.0, 2.0)
    assert nodes[0] == pytest.approx(1.0, abs=1e-15)
    assert weights[0] == pytest.approx(2.0, abs=1e-15)
    # Newton lands the one-point rule exactly on the midpoint rule
    x, w = gauss_legendre_rule(1)
    assert x.tolist() == [0.0] and w.tolist() == [2.0]


def test_legendre_degree_exactness():
    nodes, weights = _legendre_on(5, 0.0, 1.0)
    assert np.sum(weights * nodes ** 8) == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_legendre_exp():
    nodes, weights = _legendre_on(64, 0.0, 1.0)
    assert np.sum(weights * np.exp(nodes)) == pytest.approx(np.e - 1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64, 100])
def test_legendre_weights_positive_and_sum(n):
    nodes, weights = _legendre_on(n, -1.5, 4.0)
    assert np.all(weights > 0)
    assert np.sum(weights) == pytest.approx(5.5, rel=1e-12)
    # nodes strictly inside and ascending
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > -1.5 and nodes[-1] < 4.0


def test_legendre_matches_reference_tables():
    # cross-check against an independent implementation
    leggauss = np.polynomial.legendre.leggauss
    for n in (4, 10, 37, 128):
        nodes, weights = gauss_legendre_rule(n)
        x_ref, w_ref = leggauss(n)
        assert np.max(np.abs(nodes - x_ref)) < 5e-15
        assert np.max(np.abs(weights - w_ref)) < 5e-14


def test_legendre_invalid_interval():
    # the rule is cached: True must not reach the cached one-point rule
    gauss_legendre_rule(1)
    with pytest.raises(InvalidParameterError):
        gauss_legendre_rule(0)
    with pytest.raises(InvalidParameterError):
        gauss_legendre_rule(True)


# ---------------- semi-infinite integrals ----------------

# the default step of the rate's sum, and ends far enough out that the
# mass past them is below the tolerances below
STEP = 0.35


def _semi_infinite(f, z_hi, z_lo=1e-16, h=STEP):
    return integrate_semi_infinite(f, z_lo, z_hi, h)


def test_semi_infinite_exponential():
    # z e^-z is analytic in |Im ln z| < pi/2: the error is near e^(-pi^2/h)
    assert _semi_infinite(lambda z: np.exp(-z), 40.0) == pytest.approx(1.0, abs=1e-11)


def test_semi_infinite_rational():
    # the tail past z_hi holds 1/z_hi
    val = _semi_infinite(lambda z: (1.0 + z) ** -2, 1e14)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_semi_infinite_slow_tail():
    # integral of (1+z)^(-3/2) = 2; mass spans many decades, and the tail
    # past z_hi holds 2 / sqrt(z_hi)
    val = _semi_infinite(lambda z: (1.0 + z) ** -1.5, 1e20)
    assert val == pytest.approx(2.0, abs=1e-9)


def test_semi_infinite_vectorized_matches_scalar():
    # one call of f over the whole grid gives the closed form.  e^-z cos z
    # decays only for |Im ln z| < pi/4, half the strip of e^-z, so it takes
    # half the step for the same error
    calls = []

    def f(z):
        calls.append(z.shape)
        return np.exp(-z) * np.cos(z)

    assert _semi_infinite(f, 40.0, h=0.5 * STEP) == pytest.approx(0.5, abs=1e-11)
    assert len(calls) == 1 and len(calls[0]) == 1


def test_semi_infinite_nonfinite_raises_with_eps():
    def bad(z):
        return np.where(z > 3.0, np.nan, (1.0 + z) ** -2)

    with pytest.raises(NumericError, match=r"at z=") as exc:
        _semi_infinite(bad, 1e14)
    assert float(str(exc.value).rpartition("z=")[2]) > 3.0


def test_semi_infinite_end_term_too_large_raises():
    # e^-z cut at z = 1 leaves an end term h e^-1, and (1 + z)^-2 cut at
    # z = 1e-3 one of h 1e-3: both far above 1e-9 of the sum
    with pytest.raises(NumericError, match="end term"):
        _semi_infinite(lambda z: np.exp(-z), 1.0)
    with pytest.raises(NumericError, match="end term"):
        _semi_infinite(lambda z: (1.0 + z) ** -2, 1e14, z_lo=1e-3)


def test_semi_infinite_grid_past_double_range_raises():
    # the ends are doubles but their ratio 1e400 is not, so neither is the
    # grid's last node: NumericError, before the integrand runs, and numpy
    # warns of nothing
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="double range"):
            integrate_semi_infinite(lambda z: calls.append(z) or np.exp(-z), 1e-200, 1e200, STEP)
    assert calls == []


@pytest.mark.parametrize("z_lo,z_hi,h", [
    (0.0, 1.0, STEP), (-1.0, 1.0, STEP), (2.0, 1.0, STEP), (1e-3, np.inf, STEP),
    (1e-3, 1.0, 0.0), (1e-3, 1.0, -STEP), (1e-3, 1.0, np.inf), (1e-3, 1.0, np.nan)],
    ids=["zero-start", "negative-start", "reversed", "infinite-end", "zero-step",
         "negative-step", "infinite-step", "nan-step"])
def test_semi_infinite_rejects_bad_grid(z_lo, z_hi, h):
    with pytest.raises(InvalidParameterError):
        integrate_semi_infinite(lambda z: np.exp(-z), z_lo, z_hi, h)


def test_semi_infinite_order_doubling_converges():
    # a rate-like integrand: the Shannon rate of unit-mean Rayleigh fading
    # at SNR 1/xi, int e^{-z xi} (1 - (1 + z)^-1) / z dz = e^xi E1(xi),
    # with ends placed as ergodic_rate places them.  Halving the step
    # moves the sum by under 1e-12, and both steps give the closed form
    xi = 1e-3

    def rate(z):
        return np.exp(-z * xi) * -np.expm1(-np.log1p(z)) / z

    coarse, fine = (integrate_semi_infinite(rate, 1e-13, 40.0 / xi, h)
                    for h in (STEP, 0.5 * STEP))
    assert abs(coarse - fine) < 1e-12
    assert coarse == pytest.approx(math.exp(xi) * exp1(xi), abs=1e-12)
