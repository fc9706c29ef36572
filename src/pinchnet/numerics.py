"""Quadrature rules for the closed-form engine.

Two rules serve the analysis layer:

* The Gauss-Legendre rule on [-1, 1], built by Newton iteration on the
  Legendre recurrence; callers map it onto their own intervals (the
  interference transform through r = H tan^2(phi)).
* A semi-infinite rule for integrals over [0, inf), such as the ergodic
  rate's z-integral: the trapezoid rule in t = ln z on a geometric grid
  between two ends, which resolves integrands whose mass spans many
  decades of z with a few nodes per decade.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NumericError, _integer

__all__ = ["gauss_legendre_rule", "integrate_semi_infinite"]

_NEWTON_TOL = 1e-15
# largest end term the trapezoid sum accepts: relative to the sum, plus an
# absolute floor for integrals near zero
_END_RTOL = 1e-9
_END_ATOL = 1e-13


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and its derivative, by the three-term Legendre recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2.0 * j - 1.0) * x * p - (j - 1.0) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=64, typed=True)  # typed: True must not hit the cached n = 1
def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Computed by Newton iteration on the Legendre recurrence, stopping when
    every node moves by less than 1e-15.  Only the lower half is iterated;
    the upper half is mirrored so the rule is exactly symmetric.  Raises
    InvalidParameterError unless n is an integer >= 1.  The arrays are
    cached, so callers must not write to them.
    """
    n = _integer(n, "order", 1)
    m = (n + 1) // 2
    i = np.arange(1, m + 1, dtype=np.float64)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))  # Tricomi initial guess
    for _ in range(100):
        p, dp = _legendre(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:  # pragma: no cover - Newton converges in a handful of steps
        raise NumericError(f"Legendre Newton iteration failed for n={n}")
    # recompute the derivative at the converged nodes for the weights
    dp = _legendre(n, x)[1]
    w_half = 2.0 / ((1.0 - x * x) * dp * dp)

    # x holds the positive half in descending order; mirror it (an odd rule's
    # middle node once) so the full rule is exactly symmetric about 0
    nodes = np.concatenate([-x, x[::-1][n % 2:]])
    weights = np.concatenate([w_half, w_half[::-1][n % 2:]])
    if n % 2 == 1:
        nodes[m - 1] = 0.0
    return nodes, weights


def integrate_semi_infinite(f: Callable, z_lo: float, z_hi: float, h: float) -> float:
    """Approximate integral of f over [0, inf): h sum_j z_j f(z_j) on the
    grid z_j = z_lo e^(j h), j = 0 ... n, the first n with z_n >= z_hi.

    That is the trapezoid rule of step h in t = ln z, where the integral is
    int z f(z) dt.  Where z f(z) is analytic in a strip about the real t
    axis, the rule converges geometrically in 1/h (Trefethen & Weideman,
    SIAM Review 56(3), 2014), with a few nodes per decade of z.

    ``f`` must be vectorized over the grid array.  Ends and step outside
    0 < z_lo <= z_hi < inf, 0 < h < inf raise InvalidParameterError.  A
    grid whose last node passes the double range raises NumericError, and
    so do a non-finite integrand value, naming its z, and an end term
    h z_j f(z_j) above 1e-9 |sum| + 1e-13, where the ends cut off mass.
    np.sum reduces pairwise inside numpy, so the result
    does not depend on the BLAS thread count.
    """
    if not (0.0 < z_lo <= z_hi < math.inf and 0.0 < h < math.inf):
        raise InvalidParameterError(f"trapezoid grid z_lo={z_lo!r}, z_hi={z_hi!r}, h={h!r}")
    # the ends' ratio may pass the double range where their logs do not
    n = math.ceil((math.log(z_hi) - math.log(z_lo)) / h)
    with np.errstate(over="ignore"):
        z = z_lo * np.exp(h * np.arange(n + 1))
    if not math.isfinite(z[-1]):
        raise NumericError(f"trapezoid grid from z_lo={z_lo!r} to z_hi={z_hi!r}: its last "
                           f"node z_lo e^({n} h) passes the double range")
    vals = np.asarray(f(z), dtype=np.float64)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise NumericError(f"integrand is not finite at z={float(z[np.argmax(bad)])!r}")
    terms = h * z * vals
    total = float(np.sum(terms))
    end = float(max(abs(terms[0]), abs(terms[-1])))
    if end > _END_RTOL * abs(total) + _END_ATOL:
        raise NumericError(f"trapezoid end term {end!r} against sum {total!r} on "
                           f"[{z_lo!r}, {float(z[-1])!r}]: the ends cut off mass")
    return total
