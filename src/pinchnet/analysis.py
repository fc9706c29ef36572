"""Closed-form outage and rate engine.

Everything here evaluates the analytical side of the model: the Laplace
transform of the aggregate interference seen at the origin, its
log-derivatives, the conditional and spatially averaged outage probability
of the typical pinched-antenna link, the fixed-antenna / continuum bounds,
and the ergodic rate.

The interference transform is a Gauss-Chebyshev sum over a half-angle
substitution r = tan(phi) of the radial interference integral; everything
downstream (derivatives, outage, rate) reuses the same node tables.  Outage
needs L-bar and its first N_B - 1 derivatives at omega = N_B eps d0^alpha_B;
the derivative recursion is cancellation-free because the j-th derivative
terms all share the sign (-1)^j.

Spatial averaging integrates the conditional outage over Voronoi strips of
the serving waveguide.  The per-strip integrand is smooth, but the two edge
strips touch the disc boundary where y_max(x) = sqrt(R^2 - x^2) has a
vertical tangent; those strips are integrated x-inner under an outer rule
in the rim angle, so both quadrature directions see an analytic integrand.

Every quantity averaged over the user position (the outage, both bounds,
the rate) depends on that position only through the serving distance d0.
So each decomposition's 12k-200k points are reduced once per call to a
short rule of Chebyshev nodes in ln d0 (_distance_rule), and the integrand
is evaluated only at those nodes: the outage runs the derivative recursion
directly there.  Nothing is cached between calls, so every result is a pure
function of (params, AnalysisConfig).

The ergodic rate needs no derivatives.  Hamdi's lemma (IEEE Trans.
Commun. 58(2), 2010) gives
E[ln(1 + S/(I + xi))] = int_0^inf z^-1 e^{-z xi} (1 - M_S(z)) L_I(z) dz for
independent S and I, where M_S is the Laplace transform of the serving
power.  Given the serving distance d0, M_S is a blockage mix of Gamma
transforms, averaged over the same rule in ln d0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import link_budget, sinr_threshold
from .errors import InvalidParameterError, NumericInstabilityError
from .geometry import SystemParams, preset_offsets, voronoi_cell_bounds
from .numerics import gauss_chebyshev_nodes, gauss_legendre_rule, integrate_semi_infinite

__all__ = [
    "RATE_PREFACTOR_BITS",
    "RATE_PREFACTOR_HALF",
    "AnalysisConfig",
    "OutageInputs",
    "laplace_interference",
    "zeta_derivative",
    "lbar_derivatives",
    "conditional_outage",
    "outage_probability",
    "outage_upper_bound",
    "outage_lower_bound",
    "ergodic_rate",
]

# Prefactor of the rate integral, which equals E[ln(1 + SINR)]: 1/ln2
# makes the rate E[log2(1 + SINR)] exactly; 0.5 is kept selectable for
# models that charge a half resource to the link.
RATE_PREFACTOR_BITS = 1.0 / math.log(2.0)
RATE_PREFACTOR_HALF = 0.5

# Rounding window of a probability (and of the rate below 0): a value up to
# this far outside [0, 1] is rounded onto it; anything further, or not
# finite, signals that a quadrature order is too low.
_CLAMP = 1e-9


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AnalysisConfig:
    """Quadrature orders and the rate-integral prefactor.

    K: Gauss-Chebyshev order of the interference transform
    gl_order_2d: Gauss-Legendre order per axis of the Voronoi-strip average
    gl_order_radial: order for the radial fixed-antenna bound
    gl_order_rate: order per octave panel of the rate's z-integral, and
        the number of Chebyshev nodes of every serving-distance rule (the
        outage, both bounds and the rate)
    rate_prefactor: multiplier of the rate integral (1/ln2 or 0.5)
    tolerance: relative convergence target of the rate panels
    """

    # defaults sized so that doubling any order moves results by well
    # under 1e-5 even at the dense-cluster rate geometry (lam=1e-5, R=100)
    K: int = 400
    gl_order_2d: int = 64
    gl_order_radial: int = 256
    gl_order_rate: int = 48
    rate_prefactor: float = RATE_PREFACTOR_BITS
    tolerance: float = 1e-9

    def __post_init__(self):
        for name in ("K", "gl_order_2d", "gl_order_radial", "gl_order_rate"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
        if not (self.rate_prefactor > 0 and math.isfinite(self.rate_prefactor)):
            raise InvalidParameterError(
                f"rate_prefactor must be positive, got {self.rate_prefactor!r}")
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise InvalidParameterError(
                f"tolerance must be positive, got {self.tolerance!r}")


@dataclass(frozen=True)
class OutageInputs:
    """SINR threshold, normalized noise, and the system parameters."""

    epsilon: float
    xi: float
    params: SystemParams

    def __post_init__(self):
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):
            raise InvalidParameterError(
                f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        if not (self.xi >= 0 and math.isfinite(self.xi)):
            raise InvalidParameterError(f"xi must be finite and >= 0, got {self.xi!r}")

    @classmethod
    def from_system(cls, params: SystemParams) -> "OutageInputs":
        """Threshold 2^Rbar - 1 and noise term sigma2/(eta P) from params."""
        return cls(epsilon=sinr_threshold(params.Rbar),
                   xi=link_budget(params).xi, params=params)


# ---------------------------------------------------------------------------
# node tables


class _NodeTables:
    """Gauss-Chebyshev node data of the interference transform.

    a_L/a_N fold the node weight w_k sin(phi)/cos^3(phi) together with the
    blockage split exp(-beta d) / 1 - exp(-beta d); D_L/D_N are d^alpha per
    state.  pref is pi^3 lam / (2K).
    """

    __slots__ = ("pref", "a_L", "a_N", "D_L", "D_N", "N_L", "N_N")

    def __init__(self, K: int, lam: float, H: float, beta: float,
                 alpha_L: float, alpha_N: float, N_L: int, N_N: int):
        nodes = gauss_chebyshev_nodes(K)
        tan_phi = np.tan(nodes.phi)
        d = np.hypot(tan_phi, H)
        c = nodes.weight * np.sin(nodes.phi) / np.cos(nodes.phi) ** 3
        p_los = np.exp(-beta * d)
        self.pref = math.pi ** 3 * lam / (2.0 * K)
        self.a_L = c * p_los
        self.a_N = c * (1.0 - p_los)
        self.D_L = d ** alpha_L
        self.D_N = d ** alpha_N
        self.N_L = N_L
        self.N_N = N_N

    def branches(self):
        return ((self.a_L, self.D_L, self.N_L), (self.a_N, self.D_N, self.N_N))


def _tables(params: SystemParams, cfg: AnalysisConfig) -> _NodeTables:
    return _NodeTables(cfg.K, params.lam, params.H, params.beta,
                       params.alpha_L, params.alpha_N, params.N_L, params.N_N)


def _log_laplace(s, tab: _NodeTables):
    """log L_I(s); s may be a scalar or an ndarray (broadcast over nodes)."""
    s_arr = np.asarray(s, dtype=float)[..., None]
    acc = 0.0
    for a, D, N in tab.branches():
        acc = acc + np.sum(a * -np.expm1(-N * np.log1p(s_arr / (N * D))), axis=-1)
    return -tab.pref * acc


def _zeta_vec(j: int, omega, xi: float, tab: _NodeTables):
    """j-th derivative of zeta(w) = log L_I(w) - w xi, vectorized in omega."""
    w = np.asarray(omega, dtype=float)[..., None]
    acc = 0.0
    for a, D, N in tab.branches():
        rising = math.factorial(N + j - 1) // math.factorial(N - 1)
        coef = (-1.0) ** j * rising / float(N ** j)
        acc = acc + coef * np.sum(a / D ** j * (1.0 + w / (N * D)) ** (-N - j), axis=-1)
    out = tab.pref * acc
    if j == 1:
        out = out - xi
    return out


def _lbar_vec(omega, max_order: int, xi: float, tab: _NodeTables) -> list:
    """L-bar(w) = L_I(w) e^{-w xi} and derivatives 0..max_order, vectorized.

    The recursion L^(j) = sum_i C(j-1, i) zeta^(j-i) L^(i) only ever adds
    terms of one sign at a given j, so no precision is lost to cancellation.
    """
    w = np.asarray(omega, dtype=float)
    vals = [np.exp(_log_laplace(w, tab) - w * xi)]
    if max_order == 0:
        return vals
    zetas = [None] + [_zeta_vec(j, w, xi, tab) for j in range(1, max_order + 1)]
    for j in range(1, max_order + 1):
        acc = 0.0
        for i in range(j):
            acc = acc + math.comb(j - 1, i) * zetas[j - i] * vals[i]
        vals.append(acc)
    return vals


# ---------------------------------------------------------------------------
# transform and derivatives (public, scalar)


def laplace_interference(s: float, params: SystemParams, cfg: AnalysisConfig) -> float:
    """Laplace transform of the aggregate interference at argument s.

    Decreasing in s, equal to 1 at s = 0, and independent of Np and L (the
    interferer field does not know about the serving waveguide's presets).
    """
    if not (s >= 0 and math.isfinite(s)):
        raise InvalidParameterError(f"s must be finite and >= 0, got {s!r}")
    return float(np.exp(_log_laplace(float(s), _tables(params, cfg))))


def zeta_derivative(j: int, omega: float, xi: float, params: SystemParams,
                    cfg: AnalysisConfig) -> float:
    """j-th derivative (j >= 1) of zeta(w) = log L_I(w) - w xi at w = omega.

    The -xi term survives only in the first derivative; each further
    derivative of the node sum multiplies in -(N_Q + i)/(N_Q D_k), which
    collapses to the (-1)^j (N_Q + j - 1)!/((N_Q - 1)! N_Q^j D_k^j) pattern.
    """
    j = _positive_int(j, "derivative order j")
    if not (omega >= 0 and math.isfinite(omega)):
        raise InvalidParameterError(f"omega must be finite and >= 0, got {omega!r}")
    return float(_zeta_vec(j, float(omega), float(xi), _tables(params, cfg)))


def lbar_derivatives(omega: float, max_order: int, xi: float,
                     params: SystemParams, cfg: AnalysisConfig) -> list[float]:
    """L-bar(omega) = L_I(omega) e^{-omega xi} and derivatives up to max_order.

    Returns orders 0..max_order inclusive.  Outage needs orders up to
    N_B - 1; the recursion accepts any nonnegative order.
    """
    if isinstance(max_order, bool) or not isinstance(max_order, (int, np.integer)):
        raise InvalidParameterError(f"max_order must be an integer, got {max_order!r}")
    if max_order < 0:
        raise InvalidParameterError(f"max_order must be >= 0, got {max_order!r}")
    if not (omega >= 0 and math.isfinite(omega)):
        raise InvalidParameterError(f"omega must be finite and >= 0, got {omega!r}")
    vals = _lbar_vec(float(omega), int(max_order), float(xi), _tables(params, cfg))
    return [float(v) for v in vals]


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


def _outage_batch(d0: np.ndarray, inputs: OutageInputs,
                  tab: _NodeTables) -> np.ndarray:
    """conditional_outage at an array of serving distances, unvalidated
    and unclamped.  Every term of a coverage sum is nonnegative, since
    L-bar^(j) has the sign (-1)^j."""
    if inputs.epsilon == 0.0:
        return np.zeros_like(d0)
    params = inputs.params
    p_los = np.exp(-params.beta * d0)
    coverage = 0.0
    for weight, alpha, n in ((p_los, params.alpha_L, params.N_L),
                             (1.0 - p_los, params.alpha_N, params.N_N)):
        omega = n * inputs.epsilon * d0 ** alpha
        lbars = _lbar_vec(omega, n - 1, inputs.xi, tab)
        term = 1.0
        c = lbars[0]
        for j in range(1, n):
            term *= -omega / j
            c += term * lbars[j]
        coverage += weight * c
    return 1.0 - coverage


def conditional_outage(d0: float, inputs: OutageInputs, cfg: AnalysisConfig) -> float:
    """Outage probability of a user served from distance d0.

    Per blockage state B the coverage sum is sum_{j<N_B} ((-w)^j / j!)
    L-bar^(j)(w) at w = N_B eps d0^alpha_B; the states are mixed with
    exp(-beta d0) / 1 - exp(-beta d0) and subtracted from 1.  A value that
    is not finite, or leaves [0, 1] by more than rounding, raises
    NumericInstabilityError.
    """
    params = inputs.params
    if not (d0 >= params.H and math.isfinite(d0)):
        raise InvalidParameterError(
            f"d0 must be finite and >= H={params.H!r}, got {d0!r}")
    p = _outage_batch(np.array([float(d0)]), inputs, _tables(params, cfg))
    return _clamp_probability(float(p[0]), f"conditional outage at d0={d0!r}")


# ---------------------------------------------------------------------------
# spatial averages


@dataclass(frozen=True)
class _Decomposition:
    """Flattened quadrature points of a spatial average over user positions.

    d0 holds the serving distances and weight every Jacobian, so weight sums
    to the measure of the region; scale is the reciprocal of that measure
    (the uniform user density), which makes scale * sum(weight * f) the
    mean of f.
    """

    d0: np.ndarray
    weight: np.ndarray
    scale: float


def _radial_rule(params: SystemParams, order: int) -> _Decomposition:
    """Antenna fixed at the disc center: the radial density of a uniform
    user on the disc is 2r/R^2, so the r dr weights carry scale 2/R^2."""
    rule = gauss_legendre_rule(order, 0.0, params.R)
    return _Decomposition(np.sqrt(rule.nodes ** 2 + params.H ** 2),
                          rule.weights * rule.nodes, 2.0 / params.R ** 2)


def _rim_rule(R: float, x_min: float, order: int):
    """Outer rule over y in [0, sqrt(R^2 - x_min^2)] for a region bounded by
    the rim x = sqrt(R^2 - y^2), taken in the angle y = R sin phi, where both
    the rim and dy = R cos phi dphi are analytic: nodes y, weights dy and the
    rim abscissae x_rim at the nodes."""
    rule = gauss_legendre_rule(order, 0.0, math.acos(x_min / R))
    cos_phi = np.cos(rule.nodes)
    return R * np.sin(rule.nodes), rule.weights * R * cos_phi, R * cos_phi


def _half_disc_strips(params: SystemParams, order: int) -> _Decomposition:
    """Voronoi-strip quadrature of the upper half disc, serving preset per strip.

    Interior strips are x-outer / y-inner.  The two edge strips reach the
    disc rim where sqrt(R^2 - x^2) has a vertical tangent, so they swap to
    x-inner and an outer rule in the rim angle phi (y = R sin phi, rim at
    x = R cos phi): a y-outer rule would end next to the branch point of
    sqrt(R^2 - y^2) at y = R and lose digits once R >> L.  The y > 0 half
    carries the whole average by symmetry, so scale is 2/(pi R^2).
    """
    R, L, Np, H = params.R, params.L, params.Np, params.H
    offsets = preset_offsets(L, Np)
    base = gauss_legendre_rule(order, -1.0, 1.0)
    # axis 0 is the strip n - 1
    d0 = np.empty((Np, order, order))
    weight = np.empty((Np, order, order))
    for n in (1, Np):
        a, b = voronoi_cell_bounds(n, Np, L, R)
        edge = b if n == 1 else a
        y, dy, x_rim = _rim_rule(R, abs(edge), order)
        if n == 1:
            x_lo, x_hi = -x_rim, np.full(order, b)
        else:
            x_lo, x_hi = np.full(order, a), x_rim
        half = 0.5 * (x_hi - x_lo)
        mid = 0.5 * (x_hi + x_lo)
        x = mid[:, None] + half[:, None] * base.nodes[None, :]
        weight[n - 1] = (dy * half)[:, None] * base.weights[None, :]
        d0[n - 1] = np.sqrt((x - offsets[n - 1]) ** 2 + y[:, None] ** 2 + H * H)
    # interior strips n = 2..Np-1 in one pass: the arithmetic of
    # voronoi_cell_bounds and gauss_legendre_rule repeated elementwise, so
    # each strip's points equal those of a rule built on its cell alone,
    # bit for bit
    n = np.arange(2, Np, dtype=np.float64)[:, None]
    delta = L / (Np - 1)
    a = delta * (n - Np / 2.0 - 1.0)
    b = delta * (n - Np / 2.0)
    x_nodes = 0.5 * (b + a) + 0.5 * (b - a) * base.nodes
    x_weights = 0.5 * (b - a) * base.weights
    ymax = np.sqrt(R * R - x_nodes ** 2)
    unit = gauss_legendre_rule(order, 0.0, 1.0)
    np.multiply((x_weights * ymax)[:, :, None], unit.weights, out=weight[1:-1])
    # (x - xn)^2 + y^2 + H^2, in place
    inner = d0[1:-1]
    np.multiply(ymax[:, :, None], unit.nodes, out=inner)
    np.square(inner, out=inner)
    inner += ((x_nodes - offsets[1:-1, None]) ** 2)[:, :, None]
    inner += H * H
    np.sqrt(inner, out=inner)
    return _Decomposition(d0.ravel(), weight.ravel(), 2.0 / (math.pi * R * R))


def _continuum_strips(params: SystemParams, order: int) -> _Decomposition:
    """Quadrature of the continuum-feed lower bound over the x > 0, y > 0
    quarter disc (scale 4/(pi R^2) by symmetry).

    Users beyond the waveguide tip (x > L/2) are served from the tip; users
    alongside it from the perpendicular foot.  The x > L/2 lobe touches the
    rim at (R, 0) and is integrated x-inner under an outer rim-angle rule,
    as the edge strips are.
    """
    R, L, H = params.R, params.L, params.H
    half_l = 0.5 * L
    # tip lobe: y in [0, sqrt(R^2 - (L/2)^2)], x in [L/2, sqrt(R^2 - y^2)]
    y, dy, x_rim = _rim_rule(R, half_l, order)
    half = 0.5 * (x_rim - half_l)
    mid = 0.5 * (x_rim + half_l)
    base = gauss_legendre_rule(order, -1.0, 1.0)
    x = mid[:, None] + half[:, None] * base.nodes[None, :]
    w_tip = (dy * half)[:, None] * base.weights[None, :]
    d_tip = np.sqrt((x - half_l) ** 2 + y[:, None] ** 2 + H * H)
    # side lobe: z in [0, L/2], y in [0, sqrt(R^2 - z^2)], served at distance
    # sqrt(y^2 + H^2) regardless of z
    zr = gauss_legendre_rule(order, 0.0, half_l)
    ymax = np.sqrt(R * R - zr.nodes ** 2)
    base01 = gauss_legendre_rule(order, 0.0, 1.0)
    y = ymax[:, None] * base01.nodes[None, :]
    w_side = (zr.weights * ymax)[:, None] * base01.weights[None, :]
    d_side = np.sqrt(y ** 2 + H * H)
    return _Decomposition(np.concatenate([d_tip.ravel(), d_side.ravel()]),
                          np.concatenate([w_tip.ravel(), w_side.ravel()]),
                          4.0 / (math.pi * R * R))


def _serving_decomposition(params: SystemParams, cfg: AnalysisConfig) -> _Decomposition:
    """Voronoi strips of the presets; a single preset is the radial rule."""
    if params.Np == 1:
        return _radial_rule(params, cfg.gl_order_radial)
    return _half_disc_strips(params, cfg.gl_order_2d)


def _spatial_average(dec: _Decomposition, inputs: OutageInputs,
                     cfg: AnalysisConfig, context: str) -> float:
    """Mean conditional outage over a decomposition, through its distance rule.

    np.sum reduces pairwise inside numpy, so unlike a BLAS dot the result
    does not depend on the BLAS thread count.
    """
    d0, weight = _distance_rule(dec, cfg.gl_order_rate)
    p = _outage_batch(d0, inputs, _tables(inputs.params, cfg))
    return _clamp_probability(float(np.sum(weight * p)), context)


def outage_probability(inputs: OutageInputs, cfg: AnalysisConfig) -> float:
    """Spatially averaged outage of the typical user.

    Averages conditional_outage over the user position, uniform on the disc,
    with the serving preset fixed per Voronoi strip of the waveguide.
    Np = 1 reduces to the radial fixed-antenna form.
    """
    return _spatial_average(_serving_decomposition(inputs.params, cfg), inputs,
                            cfg, "outage probability")


def outage_upper_bound(inputs: OutageInputs, cfg: AnalysisConfig) -> float:
    """Outage of a single antenna fixed at the disc center's preset.

    (2/R^2) int_0^R P_out(sqrt(r^2 + H^2)) r dr.
    """
    return _spatial_average(_radial_rule(inputs.params, cfg.gl_order_radial),
                            inputs, cfg, "outage upper bound")


def outage_lower_bound(inputs: OutageInputs, cfg: AnalysisConfig) -> float:
    """Outage when the antenna can sit anywhere on the waveguide.

    The serving point is the nearest point of the segment: the perpendicular
    foot alongside it, the tip beyond it.
    """
    return _spatial_average(_continuum_strips(inputs.params, cfg.gl_order_2d),
                            inputs, cfg, "outage lower bound")


def _distance_rule(dec: _Decomposition, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Serving distances and weights of an m-point rule in ln d0 that
    averages like dec for any integrand depending on d0 alone.

    The nodes are Chebyshev points of ln d0 over the decomposition's range.
    The weights integrate the degree m - 1 Chebyshev interpolant exactly
    against dec's measure: Chebyshev moments from the three-term recurrence
    (one pass over the points per degree, so no m x n matrix), turned into
    point weights by the discrete cosine sum.  The weights sum to dec's
    total mass, which is 1.
    """
    ln_d = np.log(dec.d0)
    lo, hi = float(np.min(ln_d)), float(np.max(ln_d))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    t = (ln_d - mid) / half if half > 0.0 else np.zeros_like(ln_d)
    w = dec.scale * dec.weight
    moments = np.empty(m)
    moments[0] = np.sum(w)
    # T_k in three rotating buffers: a fresh array per degree would have
    # its pages faulted in anew
    two_t = 2.0 * t
    prev, cheb, spare = np.ones_like(t), t, np.empty_like(t)
    for k in range(1, m):
        moments[k] = np.sum(np.multiply(w, cheb, out=spare))
        np.multiply(two_t, cheb, out=spare)
        spare -= prev
        prev, cheb, spare = cheb, spare, prev
    theta = math.pi * (np.arange(m) + 0.5) / m
    coef = np.full(m, 2.0 / m)
    coef[0] = 1.0 / m
    weights = np.sum((coef * moments)[:, None]
                     * np.cos(np.arange(m)[:, None] * theta), axis=0)
    return np.exp(mid + half * np.cos(theta)), weights


def ergodic_rate(params: SystemParams, cfg: AnalysisConfig) -> float:
    """rate_prefactor * int_0^inf z^-1 e^{-z xi} L_I(z) (1 - E[M_S(z | d0)]) dz.

    With the default prefactor 1/ln2 this is E[log2(1 + SINR)] of the
    typical user (Hamdi's lemma).  M_S(z | d0) = sum_B p_B(d0)
    (1 + z d0^-alpha_B / N_B)^-N_B is the Laplace transform of the serving
    power; its mean over user positions runs through _distance_rule, built
    once per call from the serving decomposition.  Octave panels in z
    resolve the integrand's log-wide plateau between the mean signal power
    and the noise level.  A non-finite rate, or one below zero by more
    than rounding, raises NumericInstabilityError.
    """
    xi = link_budget(params).xi
    tab = _tables(params, cfg)
    d0, weight = _distance_rule(_serving_decomposition(params, cfg), cfg.gl_order_rate)
    p_los = np.exp(-params.beta * d0)
    branches = ((weight * p_los, d0 ** -params.alpha_L / params.N_L, params.N_L),
                (weight * (1.0 - p_los), d0 ** -params.alpha_N / params.N_N, params.N_N))

    def integrand(z: np.ndarray) -> np.ndarray:
        zc = z[:, None]
        # 1 - (1 + x)^-N as -expm1(-N log1p(x)) keeps its digits at small z
        miss = 0.0
        for w, gain, n in branches:
            miss = miss + np.sum(w * -np.expm1(-n * np.log1p(zc * gain)), axis=-1)
        return np.exp(_log_laplace(z, tab) - z * xi) * miss / z

    rate = cfg.rate_prefactor * integrate_semi_infinite(integrand, cfg)
    if not (math.isfinite(rate) and rate >= -_CLAMP):
        raise NumericInstabilityError(
            f"ergodic rate evaluated to {rate!r}; quadrature order too low")
    return max(rate, 0.0)
