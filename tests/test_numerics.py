"""Quadrature unit tests.

Expected values are either closed forms or were frozen from independent
oracles (numpy.polynomial.legendre.leggauss, exact antiderivatives,
order-doubling refinement).
"""

import numpy as np
import pytest

from pinchnet.errors import InvalidParameterError, NumericError
from pinchnet.numerics import gauss_legendre_rule, integrate_semi_infinite

ORDER = 32


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

def test_semi_infinite_exponential():
    val = integrate_semi_infinite(lambda e: np.exp(-e), ORDER)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_semi_infinite_rational():
    val = integrate_semi_infinite(lambda e: (1.0 + e) ** -2, ORDER)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_semi_infinite_slow_tail():
    # integral of (1+eps)^(-3/2) = 2; mass spans many decades
    val = integrate_semi_infinite(lambda e: (1.0 + e) ** -1.5, ORDER)
    assert val == pytest.approx(2.0, abs=1e-8)


def test_semi_infinite_vectorized_matches_scalar():
    a = integrate_semi_infinite(lambda e: np.exp(-e) * np.cos(e), ORDER)
    assert a == pytest.approx(0.5, abs=1e-10)


def test_semi_infinite_nonfinite_raises_with_eps():
    def bad(e):
        return np.where(e > 3.0, np.nan, (1.0 + e) ** -2)

    with pytest.raises(NumericError, match=r"at x=") as exc:
        integrate_semi_infinite(bad, ORDER)
    assert float(str(exc.value).rpartition("x=")[2]) > 3.0


@pytest.mark.parametrize("order", [0, True, 2.7])
def test_semi_infinite_rejects_bad_order(order):
    # checked like gauss_legendre_rule's: unchecked, order 0 ends in numpy's
    # ValueError, and int() runs True or 2.7 silently as orders 1 and 2
    with pytest.raises(InvalidParameterError):
        integrate_semi_infinite(lambda e: np.exp(-e), order)


def test_semi_infinite_order_doubling_converges():
    # order-doubling oracle on a heavy-tailed integrand
    prev = None
    for order in (8, 16, 32, 64):
        val = integrate_semi_infinite(lambda e: 1.0 / ((1 + e) * (1 + e ** 1.5)), order)
        if prev is not None:
            assert abs(val - prev) < 1e-6
        prev = val

