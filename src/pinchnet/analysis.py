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
vertical tangent; those strips are integrated y-outer / x-inner so both
quadrature directions see an analytic integrand.

A spatial average would otherwise re-evaluate the derivative stack at every
one of its 12k-200k strip points, so the per-branch coverage sum C_B(omega)
is tabulated on a log-omega grid with exact slopes (the derivative of the
truncated sum telescopes to a single term) and read back through cubic
Hermite interpolation.  A value read from the table depends only on omega
and the table inputs, never on how far earlier calls widened the grid.  The
table pair is the only cached state: one lru_cache whose key is the complete
list of inputs the tables are computed from, so sweeps over Np, L or R reuse
it and no stale entry can match a different input.  The scalar
conditional_outage path stays direct, which the tests use to pin the table
error.

The ergodic rate needs neither the tables nor the derivatives.  Hamdi's
lemma (IEEE Trans. Commun. 58(2), 2010) gives
E[ln(1 + S/(I + xi))] = int_0^inf z^-1 e^{-z xi} (1 - M_S(z)) L_I(z) dz for
independent S and I, where M_S is the Laplace transform of the serving
power.  Given the serving distance d0, M_S is a blockage mix of Gamma
transforms, so the user position enters only through d0, and the serving
decomposition collapses to a short rule in ln d0 once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

# Probabilities produced by the coverage sum are clamped inside this window;
# anything worse signals that a quadrature order is too low.
_CLAMP = 1e-9

# Coverage-table resolution, points per decade of omega.
_GRID_PER_DECADE = 128
_H_GRID = math.log(10.0) / _GRID_PER_DECADE


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
        the number of Chebyshev nodes of its serving-distance rule
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
    N_B - 1; the exact table slope additionally uses order N_B, so the
    recursion accepts any nonnegative order.
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
    if value < 0.0:
        if value >= -_CLAMP:
            return 0.0
        raise NumericInstabilityError(
            f"{context} evaluated to {value!r}; quadrature order too low")
    if value > 1.0:
        if value <= 1.0 + _CLAMP:
            return 1.0
        raise NumericInstabilityError(
            f"{context} evaluated to {value!r}; quadrature order too low")
    return value


def conditional_outage(d0: float, inputs: OutageInputs, cfg: AnalysisConfig) -> float:
    """Outage probability of a user served from distance d0.

    Per blockage state B the coverage sum is sum_{j<N_B} ((-w)^j / j!)
    L-bar^(j)(w) at w = N_B eps d0^alpha_B; the states are mixed with
    exp(-beta d0) / 1 - exp(-beta d0) and subtracted from 1.
    """
    params = inputs.params
    if not (d0 >= params.H and math.isfinite(d0)):
        raise InvalidParameterError(
            f"d0 must be finite and >= H={params.H!r}, got {d0!r}")
    tab = _tables(params, cfg)
    p_los = math.exp(-params.beta * d0)
    coverage = 0.0
    for weight, alpha, n in ((p_los, params.alpha_L, params.N_L),
                             (1.0 - p_los, params.alpha_N, params.N_N)):
        omega = n * inputs.epsilon * d0 ** alpha
        lbars = _lbar_vec(omega, n - 1, inputs.xi, tab)
        term = 1.0
        c = float(lbars[0])
        for j in range(1, n):
            term *= -omega / j
            c += term * float(lbars[j])
        coverage += weight * c
    return _clamp_probability(1.0 - coverage, f"conditional outage at d0={d0!r}")


class _CoverageTable:
    """Cubic-Hermite table of one branch coverage sum over log(omega).

    Values carry exact slopes: d/dw of the truncated sum telescopes to
    ((-w)^{N-1}/(N-1)!) L-bar^(N)(w), so each grid point stores C and
    w C'(w) (the log-omega derivative).  The grid grows geometrically on
    demand; queries outside it clamp to the end values, which is safe
    because C has flat tails (1 at small omega, its large-omega limit at
    the high end, reached to ~omega^{-N} long before the grid cap).
    """

    __slots__ = ("n", "xi", "tab", "i_lo", "i_hi", "val", "slope", "cap_hi")

    def __init__(self, n: int, xi: float, tab: _NodeTables):
        self.n = n
        self.xi = xi
        self.tab = tab
        self.i_lo = 0
        self.i_hi = -1
        self.val = None
        self.slope = None
        # keep omega^{n-1} representable on the grid
        self.cap_hi = int(math.floor(min(60.0, 290.0 / max(1, n - 1))
                                     * math.log(10.0) / _H_GRID))

    def _build(self, i_lo: int, i_hi: int) -> None:
        if i_hi <= i_lo:
            i_lo = i_hi - 1
        idx = np.arange(i_lo, i_hi + 1)
        omega = np.exp(idx * _H_GRID)
        lbars = _lbar_vec(omega, self.n, self.xi, self.tab)
        cov = lbars[0].copy()
        term = np.ones_like(omega)
        for j in range(1, self.n):
            term *= -omega / j
            cov += term * lbars[j]
        # after the loop term = (-w)^{n-1}/(n-1)!, so C' telescopes to
        # term * L-bar^(n); the extra omega converts d/dw to d/dln(w)
        slope = omega * term * lbars[self.n]
        worst = float(max(np.max(cov) - 1.0, -np.min(cov), 0.0))
        if worst > _CLAMP:
            raise NumericInstabilityError(
                f"coverage sum left [0, 1] by {worst!r}; quadrature order too low")
        np.clip(cov, 0.0, 1.0, out=cov)
        self.i_lo, self.i_hi = i_lo, i_hi
        self.val, self.slope = cov, slope

    def _ensure(self, ln_lo: float, ln_hi: float) -> None:
        lo = max(int(math.floor(ln_lo / _H_GRID)) - 1, -self.cap_hi)
        hi = min(int(math.ceil(ln_hi / _H_GRID)) + 1, self.cap_hi)
        if self.val is not None and lo >= self.i_lo and hi <= self.i_hi:
            return
        if self.val is None:
            # first build: pad 2 decades down, 4 up, so that later
            # thresholds at the same noise level mostly read built points
            lo -= 2 * _GRID_PER_DECADE
            hi += 4 * _GRID_PER_DECADE
        else:
            # geometric growth keeps the number of rebuilds logarithmic
            span = self.i_hi - self.i_lo
            lo = min(lo, self.i_lo - span if lo < self.i_lo else self.i_lo)
            hi = max(hi, self.i_hi + span if hi > self.i_hi else self.i_hi)
        self._build(max(lo, -self.cap_hi), min(hi, self.cap_hi))

    def eval(self, omega: np.ndarray) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        ln = np.log(w)
        self._ensure(float(np.min(ln)), float(np.max(ln)))
        # cell and offset from the absolute grid position: relative to
        # i_lo they would round differently once the grid has grown
        # (in place: at Np = 51 each array here is 1.7 MB)
        pos = np.divide(ln, _H_GRID, out=ln)
        cell = np.clip(np.floor(pos), self.i_lo, self.i_hi - 1)
        u = np.clip(pos - cell, 0.0, 1.0, out=pos)
        i = cell.astype(np.intp) - self.i_lo
        y0, y1 = self.val[i], self.val[i + 1]
        m0, m1 = self.slope[i], self.slope[i + 1]
        u2 = u * u
        u3 = u2 * u
        out = ((2.0 * u3 - 3.0 * u2 + 1.0) * y0 + (-2.0 * u3 + 3.0 * u2) * y1
               + _H_GRID * ((u3 - 2.0 * u2 + u) * m0 + (u3 - u2) * m1))
        return np.clip(out, 0.0, 1.0)


@lru_cache(maxsize=64)
def _coverage_tables(K: int, xi: float, lam: float, H: float, beta: float,
                     alpha_L: float, alpha_N: float, N_L: int, N_N: int):
    """LoS and NLoS coverage tables; the arguments are all they depend on."""
    tab = _NodeTables(K, lam, H, beta, alpha_L, alpha_N, N_L, N_N)
    return _CoverageTable(N_L, xi, tab), _CoverageTable(N_N, xi, tab)


def _outage_batch(d0: np.ndarray, inputs: OutageInputs,
                  cfg: AnalysisConfig) -> np.ndarray:
    """conditional_outage over an array of serving distances (table path)."""
    if inputs.epsilon == 0.0:
        return np.zeros_like(d0)
    params = inputs.params
    table_l, table_n = _coverage_tables(
        cfg.K, inputs.xi, params.lam, params.H, params.beta,
        params.alpha_L, params.alpha_N, params.N_L, params.N_N)
    p_los = np.exp(-params.beta * d0)
    cov = p_los * table_l.eval(params.N_L * inputs.epsilon * d0 ** params.alpha_L)
    cov += (1.0 - p_los) * table_n.eval(params.N_N * inputs.epsilon * d0 ** params.alpha_N)
    return 1.0 - cov


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


def _half_disc_strips(params: SystemParams, order: int) -> _Decomposition:
    """Voronoi-strip quadrature of the upper half disc, serving preset per strip.

    Interior strips are x-outer / y-inner.  The two edge strips reach the
    disc rim where sqrt(R^2 - x^2) has a vertical tangent, so they swap to
    y-outer / x-inner; the circular bound sqrt(R^2 - y^2) is analytic there
    because the strips stay clear of x = 0.  The y > 0 half carries the
    whole average by symmetry, so scale is 2/(pi R^2).
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
        yr = gauss_legendre_rule(order, 0.0, math.sqrt(R * R - edge * edge))
        x_rim = np.sqrt(R * R - yr.nodes ** 2)
        if n == 1:
            x_lo, x_hi = -x_rim, np.full(order, b)
        else:
            x_lo, x_hi = np.full(order, a), x_rim
        half = 0.5 * (x_hi - x_lo)
        mid = 0.5 * (x_hi + x_lo)
        x = mid[:, None] + half[:, None] * base.nodes[None, :]
        weight[n - 1] = (yr.weights * half)[:, None] * base.weights[None, :]
        d0[n - 1] = np.sqrt((x - offsets[n - 1]) ** 2 + yr.nodes[:, None] ** 2 + H * H)
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
    rim at (R, 0) and is integrated y-outer / x-inner for smoothness.
    """
    R, L, H = params.R, params.L, params.H
    half_l = 0.5 * L
    # tip lobe: y in [0, sqrt(R^2 - (L/2)^2)], x in [L/2, sqrt(R^2 - y^2)]
    yr = gauss_legendre_rule(order, 0.0, math.sqrt(R * R - half_l * half_l))
    x_rim = np.sqrt(R * R - yr.nodes ** 2)
    half = 0.5 * (x_rim - half_l)
    mid = 0.5 * (x_rim + half_l)
    base = gauss_legendre_rule(order, -1.0, 1.0)
    x = mid[:, None] + half[:, None] * base.nodes[None, :]
    w_tip = (yr.weights * half)[:, None] * base.weights[None, :]
    d_tip = np.sqrt((x - half_l) ** 2 + yr.nodes[:, None] ** 2 + H * H)
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
    """Mean conditional outage over a decomposition.

    np.sum reduces pairwise inside numpy, so unlike a BLAS dot the result
    does not depend on the BLAS thread count.
    """
    p = _outage_batch(dec.d0, inputs, cfg)
    return _clamp_probability(dec.scale * float(np.sum(dec.weight * p)), context)


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
    prev, cheb = np.ones_like(t), t
    moments[0] = np.sum(w)
    for k in range(1, m):
        moments[k] = np.sum(w * cheb)
        prev, cheb = cheb, 2.0 * t * cheb - prev
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
