"""Central finite differences: the derivative oracle of the analysis tests.

Other test modules import ``finite_difference`` from here; the tests below
pin the helper itself.
"""

import math

import pytest

from pinchnet.errors import InvalidParameterError


def finite_difference(f, x: float, order: int, h: float) -> float:
    """Central finite-difference derivative estimate.

    order 1: (f(x+h) - f(x-h)) / (2h)
    order 2: (f(x+h) - 2 f(x) + f(x-h)) / h^2

    The caller owns the step-size tradeoff between truncation and roundoff.
    """
    if order not in (1, 2):
        raise InvalidParameterError(f"order must be 1 or 2, got {order!r}")
    if not (h > 0 and math.isfinite(h)):
        raise InvalidParameterError(f"step h must be positive, got {h!r}")
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def test_fd_first_order_cubic():
    d = finite_difference(lambda x: x ** 3, 2.0, 1, 1e-3)
    assert d == pytest.approx(12.0, abs=1e-5)


def test_fd_square():
    d = finite_difference(lambda x: x ** 2, 3.0, 1, 1e-4)
    assert d == pytest.approx(6.0, abs=1e-8)


def test_fd_second_order_exp():
    d = finite_difference(math.exp, 0.0, 2, 1e-4)
    assert d == pytest.approx(1.0, abs=1e-6)


def test_fd_invalid_order():
    with pytest.raises(InvalidParameterError):
        finite_difference(math.exp, 0.0, 3, 1e-4)
    with pytest.raises(InvalidParameterError):
        finite_difference(math.exp, 0.0, 1, 0.0)
