"""Quadrature rules for the closed-form engine.

One quadrature family serves the analysis layer:

* The Gauss-Legendre rule on [-1, 1], built by Newton iteration on the
  Legendre recurrence; callers map it onto their own intervals (the
  interference transform through r = H tan^2(phi)).
* A semi-infinite rule for integrals over [0, inf), such as the ergodic
  rate's z-integral, built on it from the substitution x = u / (1 - u) with
  panels refined toward u = 1 so integrands whose mass spans many decades
  of x are still resolved.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericError, _integer

__all__ = ["gauss_legendre_rule", "integrate_semi_infinite"]

_NEWTON_TOL = 1e-15
_MAX_PANELS = 64
# the semi-infinite rule stops once two consecutive panels each add less
# than this fraction of the running total
_PANEL_TOL = 1e-9


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


def integrate_semi_infinite(f: Callable, order: int) -> float:
    """Approximate integral of f over [0, inf).

    The substitution x = u/(1-u) (Jacobian 1/(1-u)^2) maps the half line
    onto (0, 1).  A single fixed-order rule cannot resolve integrands whose
    mass is spread over many decades of x, so the u interval is split
    into panels [0, 1/2], [1/2, 3/4], ... refined geometrically toward
    u = 1 (panel j covers x in [2^j - 1, 2^(j+1) - 1], about one octave)
    and a Gauss-Legendre rule of ``order`` nodes is applied per panel.
    Panels stop once two consecutive contributions fall below 1e-9
    relative to the running total.

    ``f`` must be vectorized: it maps the panel's x array to an array of
    the same shape.  An order that is not an integer >= 1 raises
    InvalidParameterError, and a non-finite integrand value NumericError
    naming the offending x.  Panel sums use np.sum, which reduces pairwise
    inside numpy, so the result does not depend on the BLAS thread count.
    """
    base_x, base_w = gauss_legendre_rule(order)

    # work in s = 1 - u so the dyadic panel edges stay exact; then
    # x = 1/s - 1 and the Jacobian is 1/s^2
    total = 0.0
    small_streak = 0
    for j in range(_MAX_PANELS):
        s_hi = 2.0 ** (-j)        # panel covers s in [s_hi/2, s_hi]
        s_lo = 0.5 * s_hi
        half = 0.5 * (s_hi - s_lo)
        s = (s_lo + half) - half * base_x  # descending s = ascending x
        x = 1.0 / s - 1.0
        vals = np.asarray(f(x), dtype=np.float64)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            x_bad = float(x[np.argmax(bad)])
            raise NumericError(
                f"integrand returned a non-finite value at x={x_bad!r}")
        contrib = half * float(np.sum(base_w * (vals / (s * s))))
        total += contrib
        if abs(contrib) <= _PANEL_TOL * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    else:
        raise NumericError(
            f"semi-infinite integral not converged after {_MAX_PANELS} "
            f"panels (last contribution {contrib!r} against total {total!r})")
    return total

