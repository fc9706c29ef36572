"""Closed-form outage and rate engine.

Everything here evaluates the analytical side of the model: the Laplace
transform of the aggregate interference seen at the origin, the Taylor
terms of its logarithm, the conditional and spatially averaged outage
probability of the typical pinched-antenna link, the fixed-antenna /
continuum bounds, and the ergodic rate.

The interference transform is a Gauss-Legendre sum over the substitution
r = H tan^2(phi) of the radial interference integral (_tables); everything
downstream (outage, rate) reuses the same node tables.  With L-bar = e^zeta,
the outage's coverage sum sum_{j<N_B} (-w)^j/j! L-bar^(j)(w), at
w = N_B eps d0^alpha_B, is e^zeta(w) sum_{m<N_B} a_m: the first column of
the exponential of the lower-triangular Toeplitz matrix of the nonnegative
t_k = (-w)^k/k! zeta^(k)(w) (C. Li, J. Zhang and K. B. Letaief, IEEE Trans.
Wireless Commun. 13(5), 2014).  No term cancels, and no factorial leaves
the double range.

Every quantity averaged over the user position (the outage, both bounds,
the rate) depends on that position only through rho, its horizontal
distance to the serving point, since d0 = sqrt(rho^2 + H^2).  So each
average is a 1-D measure in rho (_polar_rule): about each Voronoi cell's
preset, or about the waveguide tip for the lower bound, the density is
rho theta(rho) drho with theta the closed-form angle of the circle of
radius rho inside the region, split into panels at the kinks of theta.
The presets and their cells mirror about the disc centre, so the outage's
measure holds rows only for the cells at x >= 0 and counts each row off
the centre twice (_serving_rule).
That measure, a few hundred points per cell, is reduced once per call to a
short rule of Chebyshev nodes in ln d0 (_distance_rule), and the integrand
is evaluated only at those nodes: the outage runs the a_m recursion there.

P, sigma2 and f_c reach the outage only through the noise term xi, and xi
only through L-bar = L_I e^{-w xi} and the w xi it adds to t_1.  So each
average is two steps: a xi-free transform (_transform: the distance rule,
and log L_I with the interference part of the t_k at the nodes), then a
reduction at one xi (_average).  The transform is a value a caller may pass
to several reductions; nothing is kept between calls, so every result is a
pure function of (params, AnalysisConfig): eps and xi are params properties.

The ergodic rate needs no Taylor terms.  Hamdi's lemma (IEEE Trans.
Commun. 58(2), 2010) gives
E[ln(1 + S/(I + xi))] = int_0^inf z^-1 e^{-z xi} (1 - M_S(z)) L_I(z) dz for
independent S and I, where M_S is the Laplace transform of the serving
power.  Given the serving distance d0, M_S is a blockage mix of Gamma
transforms, averaged over the same rule in ln d0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import NumericError, NumericInstabilityError, _integer
from .geometry import SystemParams, preset_offsets, voronoi_cells
from .numerics import gauss_legendre_rule, integrate_semi_infinite

__all__ = ["AnalysisConfig", "ergodic_rate"]

# Rounding window of a probability (and of the rate below 0): a value up to
# this far outside [0, 1] is rounded onto it; anything further, or not
# finite, signals that a quadrature order is too low.
_CLAMP = 1e-9


@dataclass(frozen=True)
class AnalysisConfig:
    """Quadrature orders.

    K: Gauss-Legendre order of the interference transform
    gl_order_rate: order of every 1-D rule: each rho-panel of the polar
        measure, and the Chebyshev nodes of every serving-distance rule;
        the rate's trapezoid step in ln z is 33.6 / gl_order_rate
    """

    # defaults sized so that doubling any order moves results by well
    # under 1e-5 even at the dense-cluster rate geometry (lam=1e-5, R=100);
    # 128 transform nodes keep log L_I within 1e-11 of mpmath for omega up
    # to 1e8 at the default and rate geometries, where 96 leave 1e-9;
    # 96 serving-distance nodes keep the averages 1.3e-11 off independent
    # quadrature at R = 1000, L = 100, where 48 nodes leave 3e-7
    K: int = 128
    gl_order_rate: int = 96

    def __post_init__(self):
        for name in ("K", "gl_order_rate"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))


# ---------------------------------------------------------------------------
# node tables


def _tables(params: SystemParams, cfg: AnalysisConfig):
    """Node data of the interference transform: (pref, ((a_L, D_L, N_L),
    (a_N, D_N, N_N))).

    The radial integral over r in (0, inf) runs through r = H tan^2(phi)
    with phi = (pi/4)(1 + x), on the K-point Gauss-Legendre rule in x.
    There a far-field tail r^(1 - alpha) dr behaves like
    (pi/2 - phi)^(2 alpha - 5): a polynomial at every half-integer alpha,
    vanishing at phi = pi/2 for alpha > 5/2.  a_L/a_N fold the weight of
    r dr, (pi/2) H^2 w tan^3(phi) / cos^2(phi), together with the blockage
    split exp(-beta d) / 1 - exp(-beta d); D_L/D_N are d^alpha per state.
    pref is 2 pi lam.  Where interferers exist but the far field decays
    like r^-2 (the NLoS exponent, or the LoS one at beta = 0), the
    interference is infinite almost surely and NumericError is raised.
    So it is where H^alpha_N, the least node D, leaves the normal double
    range, where the ratios w/(N D) lose their digits or divide by zero.
    """
    if not params.H >= sys.float_info.min ** (1.0 / params.alpha_N):
        raise NumericError(f"interference transform: H^alpha_N = {params.H!r}^"
                           f"{params.alpha_N!r} underflows the double range")
    far_alpha = params.alpha_N if params.beta > 0.0 else params.alpha_L
    if params.lam > 0.0 and far_alpha <= 2.0:
        raise NumericError(
            f"interference diverges: lam = {params.lam!r} > 0 with far-field "
            f"path-loss exponent {far_alpha!r} <= 2")
    x, w = gauss_legendre_rule(cfg.K)
    phi = 0.25 * math.pi * (1.0 + x)
    tan = np.tan(phi)
    d = np.hypot(params.H * tan * tan, params.H)
    c = (0.5 * math.pi * params.H ** 2) * w * tan ** 3 / np.cos(phi) ** 2
    p_los = np.exp(-params.beta * d)
    return (2.0 * math.pi * params.lam,
            ((c * p_los, d ** params.alpha_L, params.N_L),
             (c * (1.0 - p_los), d ** params.alpha_N, params.N_N)))


def _xi_free(omega, max_order: int, tab):
    """log L_I and the interference part of t_1..t_max_order at omega, where
    t_k = (-w)^k/k! zeta^(k)(w).  A node term -a (1 - (1 + x)^-N) of log L_I,
    x = w/(N D), gives t_k = a C(N + k - 1, k) x^k (1 + x)^(-N-k), a times a
    negative-binomial weight; each follows from the one before by the factor
    (N + k - 1)/k x/(1 + x), which needs no power and no factorial.  omega
    may be a scalar or an ndarray (broadcast over the nodes)."""
    pref, branches = tab
    w = np.asarray(omega, dtype=float)[..., None]
    log_l = 0.0
    ts = [0.0] * max_order
    for a, D, N in branches:
        x = w / (N * D)
        n_log = -N * np.log1p(x)
        log_l = log_l + np.sum(a * np.expm1(n_log), axis=-1)
        if max_order:
            term, x = a * np.exp(n_log), x / (x + 1.0)
        for k in range(1, max_order + 1):
            term = term * x * ((N + k - 1) / k)
            ts[k - 1] = ts[k - 1] + np.sum(term, axis=-1)
    return pref * log_l, [pref * t for t in ts]


def _lbar_series(omega, log_l, ts: list, xi: float):
    """log L-bar(w) = log L_I(w) - w xi, a scale s >= 1 and b_0..b_len(ts),
    b_m = a_m / s^m, at omega from the xi-free parts there (_xi_free):
    (-w)^m/m! L-bar^(m)(w) = L-bar(w) a_m.  As L-bar(w (1 - u)) =
    L-bar(w) exp(sum_k t_k u^k), a_0 = 1 and m a_m = sum_{k=1}^m k t_k a_{m-k},
    where xi adds w xi to t_1.  The b_m follow the same recursion in the
    t_k / s^k.  With n = len(ts) and s = max(1, t_1 / min(n, 700)), neither
    they nor L-bar s^n overflow where the a_m would: b_m <= exp(sum_k t_k /
    s^k), about e^700 at most where t_1 dominates, and t_1 <= -log L-bar
    gives L-bar s^n <= e^-n for n <= 700 and (n / (700 e))^n beyond, finite
    up to n near 2500.  At s = 1 the b_m are the a_m.  Each order is one
    numpy reduction over k; across a node array it adds in order of k."""
    kt = [k * t for k, t in enumerate(ts, 1)]
    s = 1.0
    if kt:
        kt[0] = kt[0] + omega * xi
        s = np.maximum(1.0, kt[0] / min(len(kt), 700))
        kt = np.array([t / s ** k for k, t in enumerate(kt, 1)])
    b = np.ones((len(kt) + 1,) + np.shape(omega))
    for m in range(1, len(b)):
        b[m] = np.sum(kt[:m] * b[m - 1::-1], axis=0) / m
    return log_l - omega * xi, s, b


# ---------------------------------------------------------------------------
# conditional outage


def _clamp_probability(value: float, context: str) -> float:
    """value rounded onto [0, 1] if it lies within _CLAMP of it."""
    # written so that NaN fails the test too
    if not -_CLAMP <= value <= 1.0 + _CLAMP:
        raise NumericInstabilityError(
            f"{context} evaluated to {value!r}; quadrature order too low "
            "or floating-point overflow")
    return min(max(value, 0.0), 1.0)


# the params fields that reach the outage only through the noise term
# xi = sigma2 / (eta P): _transform reads none of them
_XI_FIELDS = frozenset({"P", "sigma2", "f_c"})


def _transform_key(params: SystemParams) -> tuple:
    """The params fields _transform reads: under one AnalysisConfig, equal
    keys give equal transforms of the rules built from params."""
    return tuple(getattr(params, f.name) for f in fields(params)
                 if f.name not in _XI_FIELDS)


class _Transform(NamedTuple):
    """The xi-free part of a mean conditional outage: the rule's nodes d0
    and weights and, per blockage state B, the tuple (p_B(d0), omega_B,
    log L_I(omega_B), [interference part of t_k(omega_B) for 1 <= k < N_B])
    with t_k as in _xi_free."""

    d0: np.ndarray
    weight: np.ndarray
    branches: tuple


def _transform(rule, params: SystemParams, cfg: AnalysisConfig) -> _Transform:
    """The xi-free part of the mean conditional outage over a (d0, weight)
    rule, at its nodes (an average's rule comes from _average_rule).

    It reads params only through eps and the geometry (_transform_key), so
    a caller may reduce one transform at several noise terms.  An omega
    past the double range shows as inf or NaN here and fails the
    reduction, so numpy's warnings about it are silenced.
    """
    d0, weight = rule
    tab = _tables(params, cfg)
    p_los = np.exp(-params.beta * d0)
    branches = []
    with np.errstate(over="ignore", invalid="ignore"):
        for p_b, alpha, n in ((p_los, params.alpha_L, params.N_L),
                              (1.0 - p_los, params.alpha_N, params.N_N)):
            omega = n * params.epsilon * d0 ** alpha
            branches.append((p_b, omega, *_xi_free(omega, n - 1, tab)))
    return _Transform(d0, weight, tuple(branches))


def _outage_batch(transform: _Transform, params: SystemParams) -> np.ndarray:
    """Conditional outage 1 - sum_B p_B sum_{j<N_B} (-w)^j/j! L-bar^(j)(w),
    that is 1 - sum_B p_B L-bar(w) sum_{m<N_B} a_m, at the transform's nodes
    at the noise term params.xi, unclamped.  With a_m = b_m s^m and n = N_B - 1
    (_lbar_series), L-bar sum_m a_m = e^{log L-bar + n log s} sum_m b_m s^(m-n),
    whose sum has no term above b_m.  An omega past the double range makes
    -inf + inf = NaN in the exponent, which _clamp_probability rejects, so
    numpy's warnings about it are silenced."""
    if params.epsilon == 0.0:
        return np.zeros_like(transform.d0)
    coverage = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for p_b, omega, log_l, ts in transform.branches:
            log_lbar, s, b = _lbar_series(omega, log_l, ts, params.xi)
            total = 0.0
            for b_m in b:
                total = total / s + b_m
            coverage += p_b * np.exp(log_lbar + (len(b) - 1) * np.log(s)) * total
    return 1.0 - coverage


def _average(transform: _Transform, params: SystemParams, context: str) -> float:
    """Mean conditional outage over the transform's rule at params.xi.

    np.sum reduces pairwise inside numpy, so unlike a BLAS dot the result
    does not depend on the BLAS thread count.
    """
    p = _outage_batch(transform, params)
    return _clamp_probability(float(np.sum(transform.weight * p)), context)


# ---------------------------------------------------------------------------
# spatial averages


def _panel_rule(kinks: np.ndarray, order: int):
    """Points and weights of order nodes per panel between the sorted kinks
    on the last axis.  Each panel is mapped by t = lo + (hi - lo) sin^2(phi),
    which makes square-root ends analytic; a panel that starts off the
    origin takes the map in ln t instead, so that a panel reaching far past
    its start still resolves the scale of its start.  A panel whose width
    over its start overflows (a start near the subnormal range) takes its
    span and nodes from the logs of its ends instead.  Zero-width panels
    carry zero weight."""
    x, w = (0.25 * math.pi * v for v in gauss_legendre_rule(order))
    phi = 0.25 * math.pi + x  # the [-1, 1] rule mapped onto [0, pi/2]
    s = np.sin(phi) ** 2
    lo = kinks[..., :-1, None]
    width = np.diff(kinks)[..., None]
    # a panel from the origin takes the plain map; its log span is unused
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = width / lo
        near = np.isfinite(ratio)
        span = np.where(near, np.log1p(ratio), np.log(lo + width) - np.log(lo))
        # lo e^(span s), with lo moved into the exponent on a far panel
        t = np.exp(np.where(near, 0.0, np.log(lo)) + span * s) * np.where(near, lo, 1.0)
        t = np.where(lo > 0.0, t, width * s)
        jac = np.where(lo > 0.0, t * span, width)
    return t, np.where(width > 0.0, jac * w * np.sin(2.0 * phi), 0.0)


def _polar_rule(xc, a, b, R: float, H: float, order: int):
    """Serving distances and area weights of the regions {a <= x <= b,
    y >= 0, x^2 + y^2 <= R^2}, one per row of the broadcast (xc, a, b),
    each measured about its serving point (xc, 0).

    In polar coordinates about (xc, 0) the area element is rho theta(rho)
    drho, theta = asin(hi) - asin(lo) the angle of the circle of radius rho
    inside the region: each bound confines cos(theta) to [lo, hi], the rim
    through xc^2 + 2 xc rho cos(theta) + rho^2 <= R^2.  theta kinks where a
    bound starts or stops to bind: at |a - xc| and |b - xc|, and at the two
    rim corners; the farther corner is the region's farthest point, where
    theta falls to 0.  (The rim alone starts to bind at R - |xc| only where
    the region ends on the rim, at |a - xc| or |b - xc|.)
    """
    xc, a, b = (np.reshape(np.asarray(v, dtype=float), (-1, 1)) for v in (xc, a, b))
    ends = np.concatenate([a, b], axis=1)
    corners = np.sqrt((ends - xc) ** 2 + (R - ends) * (R + ends))
    kinks = np.sort(np.concatenate(
        [np.zeros_like(xc), np.abs(ends - xc), corners], axis=1), axis=1)
    rho, drho = _panel_rule(kinks, order)
    xc, a, b = xc[:, :, None], a[:, :, None], b[:, :, None]
    # the zero-width panel at rho = 0 divides 0 by 0, and a row about
    # xc = 0 has no rim bound; neither value is used
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.maximum((a - xc) / rho, -1.0)
        hi = np.minimum((b - xc) / rho, 1.0)
        rim = ((R - rho) * (R + rho) - xc * xc) / (2.0 * xc * rho)
        lo = np.where(xc < 0.0, np.maximum(lo, rim), lo)
        hi = np.maximum(np.where(xc > 0.0, np.minimum(hi, rim), hi), lo)
        # asin rather than acos: lo <= 0 <= hi over most of a thin cell, so
        # its thin angle is a sum, not a difference of two near pi/2
        weight = np.where(drho > 0.0, rho * (np.arcsin(hi) - np.arcsin(lo)) * drho, 0.0)
    return np.sqrt(rho * rho + H * H).ravel(), weight.ravel()


def _serving_rule(params: SystemParams, order: int):
    """Serving distances and user-density weights of the outage average:
    the y > 0 half disc (density 2/(pi R^2) by symmetry), one polar row per
    Voronoi cell about its preset; a single preset's is (0, -R, R).

    The presets and cells are symmetric about x = 0, and the row of the
    cell (-b, -a) about -xc is bit for bit that of (a, b) about xc: the
    kinks are |a - xc|, |b - xc| and commuting products, lo and hi swap
    with a change of sign, and asin is odd.  So only the rows from the
    centre preset outward (xc >= 0) are built, and each but the centre row
    counts twice."""
    R, half = params.R, params.Np // 2
    xc, a, b = (v[half:] for v in (preset_offsets(params.L, params.Np),
                                   *voronoi_cells(params.L, params.Np, R)))
    d0, weight = _polar_rule(xc, a, b, R, params.H, order)
    density = np.where(np.arange(xc.size) > 0, 4.0, 2.0) / (math.pi * R * R)
    return d0, (weight.reshape(xc.size, -1) * density[:, None]).ravel()


def _continuum_rule(params: SystemParams, order: int):
    """Serving distances and user-density weights of the continuum-feed
    lower bound over the x > 0, y > 0 quarter disc (density 4/(pi R^2)).

    Users beyond the waveguide tip are served from the tip: the polar row
    (L/2, L/2, R).  Users alongside it are served from the perpendicular
    foot at distance sqrt(y^2 + H^2), over a width min(L/2, sqrt(R^2 - y^2))
    that kinks at y = sqrt(R^2 - L^2/4).
    """
    R, H, tip = params.R, params.H, 0.5 * params.L
    d_tip, w_tip = _polar_rule(tip, tip, R, R, H, order)
    y, dy = _panel_rule(np.array([0.0, math.sqrt((R - tip) * (R + tip)), R]), order)
    w_side = np.minimum(tip, np.sqrt((R - y) * (R + y))) * dy
    return (np.concatenate([d_tip, np.sqrt(y * y + H * H).ravel()]),
            np.concatenate([w_tip, w_side.ravel()]) * (4.0 / (math.pi * R * R)))


# the (d0, weight) measure of each spatial average of a user uniform on the
# disc, by its name in errors: the outage serves the user from its Voronoi
# strip's preset, the upper bound from one antenna fixed at the centre, the
# lower bound from an antenna anywhere on the waveguide (the nearest point
# of the segment).  Each average is _average(_transform(_average_rule(name,
# params, cfg), params, cfg), params, name), reduced at params.xi
_MEASURES = {
    "outage probability": _serving_rule,
    "outage upper bound": lambda params, order: _serving_rule(params.with_(Np=1), order),
    "outage lower bound": _continuum_rule,
}


def _average_rule(name: str, params: SystemParams, cfg: AnalysisConfig):
    """The distance rule of the named average's measure.  A measure whose
    squared distances or areas pass the double range (R or H past about
    1e153 m) raises NumericError."""
    # a ratio over a rho near 0 overflows to an infinity that the measure's
    # clips to [-1, 1] absorb; any other overflow leaves a distance or a
    # weight that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        d0, weight = _MEASURES[name](params, cfg.gl_order_rate)
    if not (np.all(np.isfinite(d0)) and np.all(np.isfinite(weight))):
        raise NumericError(f"{name}: squared serving distances or areas overflow at "
                           f"R = {params.R!r}, L = {params.L!r}, H = {params.H!r}")
    return _distance_rule(d0, weight, cfg.gl_order_rate)


def _distance_rule(d0: np.ndarray, weight: np.ndarray,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """Serving distances and weights of an m-point rule in ln d0 that
    averages like the (d0, weight) rule for any integrand depending on d0
    alone.

    The nodes are Chebyshev points of ln d0 over the rule's range.  The
    weights integrate the degree m - 1 Chebyshev interpolant exactly
    against the rule's measure: Chebyshev moments from the three-term
    recurrence (one pass over the points per degree, so no m x n matrix),
    turned into point weights by the discrete cosine sum.  The weights sum
    to the rule's total mass, which is 1.  A range of ln d0 within 1e-12
    (1 + max |ln d0|) of one point, where rounding alone sets the nodes'
    positions in it (H >> R), raises NumericError.
    """
    ln_d = np.log(d0)
    lo, hi = float(np.min(ln_d)), float(np.max(ln_d))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    if not half > 1e-12 * (1.0 + max(abs(lo), abs(hi))):
        raise NumericError(f"serving distances span only ln d0 in [{lo!r}, {hi!r}]: "
                           f"too narrow for a rule in ln d0")
    t = (ln_d - mid) / half
    two_t, prev, cheb = 2.0 * t, 1.0, t
    moments = [np.sum(weight)]
    for _ in range(1, m):
        moments.append(np.sum(weight * cheb))
        prev, cheb = cheb, two_t * cheb - prev
    theta = math.pi * (np.arange(m) + 0.5) / m
    coef = np.full(m, 2.0 / m)
    coef[0] = 1.0 / m
    weights = np.sum((coef * moments)[:, None]
                     * np.cos(np.arange(m)[:, None] * theta), axis=0)
    return np.exp(mid + half * np.cos(theta)), weights


def ergodic_rate(params: SystemParams, cfg: AnalysisConfig) -> float:
    """(1/ln2) int_0^inf z^-1 e^{-z xi} L_I(z) (1 - E[M_S(z | d0)]) dz.

    This is E[log2(1 + SINR)] of the typical user (Hamdi's lemma).
    M_S(z | d0) = sum_B p_B(d0) (1 + z d0^-alpha_B / N_B)^-N_B is the
    Laplace transform of the serving power; its mean over user positions
    runs through the outage's distance rule, built once per call.
    In ln z the integrand is analytic, rising like z E[d0^-alpha] and
    falling doubly exponentially past 1/xi: one trapezoid sum of step
    33.6 / gl_order_rate takes it from 1e-13 / max(E[d0^-alpha], xi) (the
    nats below are 1e-13 of the rate, or of 1 nat, whichever is less) to
    40 / xi (e^{-z xi} < 5e-18 beyond).  A xi so small that 40 / xi
    overflows raises NumericError.  A non-finite rate, or one below zero by
    more than rounding, raises NumericInstabilityError.
    """
    xi = params.xi
    z_hi = 40.0 / xi
    if not math.isfinite(z_hi):
        raise NumericError(f"noise term xi = {xi!r}: the rate's cut-off 40/xi overflows")
    tab = _tables(params, cfg)
    d0, weight = _average_rule("outage probability", params, cfg)
    p_los = np.exp(-params.beta * d0)
    branches = ((weight * p_los, d0 ** -params.alpha_L / params.N_L, params.N_L),
                (weight * (1.0 - p_los), d0 ** -params.alpha_N / params.N_N, params.N_N))

    def integrand(z: np.ndarray) -> np.ndarray:
        zc = z[:, None]
        # 1 - (1 + x)^-N as -expm1(-N log1p(x)) keeps its digits at small z
        miss = 0.0
        for w, gain, n in branches:
            miss = miss + np.sum(w * -np.expm1(-n * np.log1p(zc * gain)), axis=-1)
        # a ratio z / (N D) past the double range (H near its floor) is inf,
        # whose node term -a (1 - (1 + x)^-N) is then the exact limit -a
        with np.errstate(over="ignore"):
            log_l = _xi_free(z, 0, tab)[0]
        return np.exp(log_l - z * xi) * miss / z

    # below z_lo the integrand is about E[d0^-alpha], so the sum cuts off
    # 1e-13 min(E[d0^-alpha] / xi, 1) nats: 1e-13 of the rate at low SNR
    mean_gain = sum(n * float(np.sum(w * gain)) for w, gain, n in branches)
    nats = integrate_semi_infinite(integrand, 1e-13 / max(mean_gain, xi), z_hi,
                                   33.6 / cfg.gl_order_rate)
    rate = (1.0 / math.log(2.0)) * nats
    if not (math.isfinite(rate) and rate >= -_CLAMP):
        raise NumericInstabilityError(
            f"ergodic rate evaluated to {rate!r}; quadrature order too low")
    return max(rate, 0.0)
