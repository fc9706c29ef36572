"""Closed-form engine: transform, coverage sum, outage, bounds, rate.

Derivative formulas are checked against central finite differences of the
transform itself, and the transform against its closed form at alpha = 4
and split scipy quadrature elsewhere;
the lambda = 0 cases against the Poisson/Gamma closed forms they
degenerate to, both pointwise and averaged over the disc by scipy's
adaptive quadrature; large shapes against the derivative series in
mpmath; the distance-rule averages at lambda > 0
against scipy integrals of the pointwise conditional outage; the z-integral
rate against the threshold integral of the spatially averaged outage.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammainc, gammaincc
from hypothesis import assume, given, settings, strategies as st

from pinchnet import analysis as an
from pinchnet.errors import InvalidParameterError, NumericError, NumericInstabilityError
from pinchnet.geometry import SPEED_OF_LIGHT, SystemParams, preset_offsets, voronoi_cells
from test_finite_difference import finite_difference

CFG = an.AnalysisConfig()
PARAMS = SystemParams()
XI = PARAMS.xi

# lam = 1e-2 keeps the transform's curvature large enough for sharp
# finite-difference checks (at lam = 1e-6 the second derivative sits nine
# orders below L-bar itself and plain central differences lose digits)
PARAMS_FD = SystemParams(lam=1e-2)

# README rate-figure geometry at 30 dBm
RATE_PARAMS = SystemParams(alpha_N=4.0, lam=1e-5, R=100.0, L=100.0, H=4.0, P=1.0)


def _at(eps, params=PARAMS):
    """params whose SINR threshold epsilon is eps, up to rounding."""
    return params.with_(Rbar=math.log2(1 + eps))


# The pointwise quantities, reached through the private seam the averages
# use: the node tables, the xi-free transform and its reduction at xi.
# test_acceptance and test_montecarlo import them from here.

def laplace_interference(s, params, cfg):
    """L_I(s), the Laplace transform of the aggregate interference."""
    return float(np.exp(an._xi_free(float(s), 0, an._tables(params, cfg))[0]))


def zeta_derivative(j, omega, params, cfg):
    """j-th derivative (j >= 1) of zeta(w) = log L_I(w) - w xi at omega,
    j! t_j / (-w)^j from the engine's t_j, whose noise part is w xi at j = 1."""
    t = float(an._xi_free(float(omega), j, an._tables(params, cfg))[1][j - 1])
    if j == 1:
        t += omega * params.xi
    return math.factorial(j) * t / (-omega) ** j


def lbar_derivatives(omega, max_order, params, cfg):
    """L-bar(w) = L_I(w) e^{-w xi} and its derivatives 0..max_order at omega,
    L-bar m! a_m / (-w)^m from the engine's coverage-sum terms a_m = b_m s^m."""
    xi_free = an._xi_free(float(omega), max_order, an._tables(params, cfg))
    log_lbar, s, b = an._lbar_series(float(omega), *xi_free, params.xi)
    return [float(math.exp(log_lbar) * math.factorial(m) * b_m * s ** m / (-omega) ** m)
            for m, b_m in enumerate(b)]


def conditional_outage(d0, params, cfg):
    """Outage of a user served from distance d0: the average over a
    one-point rule."""
    rule = (np.array([float(d0)]), np.array([1.0]))
    return an._average(an._transform(rule, params, cfg), params,
                       f"conditional outage at d0={d0!r}")


# The spatial averages, composed as cli.run composes them: the named
# measure's distance rule, its xi-free transform, the reduction at xi.
# test_acceptance, test_cli and test_montecarlo import them from here.

def _spatial_average(name, params, cfg):
    return an._average(an._transform(an._average_rule(name, params, cfg), params, cfg),
                       params, name)


def outage_probability(params, cfg):
    """Outage of a user uniform on the disc, served by the preset of its
    Voronoi strip; Np = 1 is the radial fixed-antenna form."""
    return _spatial_average("outage probability", params, cfg)


def outage_upper_bound(params, cfg):
    """Outage of one antenna fixed at the disc centre's preset:
    (2/R^2) int_0^R P_out(sqrt(r^2 + H^2)) r dr."""
    return _spatial_average("outage upper bound", params, cfg)


def outage_lower_bound(params, cfg):
    """Outage of an antenna that can sit anywhere on the waveguide: the
    user is served from the nearest point of the segment."""
    return _spatial_average("outage lower bound", params, cfg)


# ---------------------------------------------------------------------------
# config


def test_config_rejects_bad_orders():
    with pytest.raises(InvalidParameterError):
        an.AnalysisConfig(K=0)
    with pytest.raises(InvalidParameterError):
        an.AnalysisConfig(K=True)
    with pytest.raises(InvalidParameterError):
        an.AnalysisConfig(gl_order_rate=-3)
    with pytest.raises(InvalidParameterError):
        an.AnalysisConfig(gl_order_rate=1.5)


def test_outage_inputs_from_system():
    # the engine reads Rbar, sigma2, P and f_c only through epsilon and xi
    eta = (SPEED_OF_LIGHT / (4 * math.pi * PARAMS.f_c)) ** 2
    assert PARAMS.epsilon == 2.0 ** PARAMS.Rbar - 1.0
    assert PARAMS.xi == pytest.approx(PARAMS.sigma2 / (eta * PARAMS.P), rel=1e-14)
    same_xi = PARAMS.with_(sigma2=2 * PARAMS.sigma2, P=2 * PARAMS.P)
    assert same_xi.xi == PARAMS.xi
    for d0 in (3.5, 7.5, 40.0):
        assert (conditional_outage(d0, same_xi, CFG)
                == conditional_outage(d0, PARAMS, CFG))


# ---------------------------------------------------------------------------
# Laplace transform


def test_laplace_at_zero_is_one():
    assert laplace_interference(0.0, PARAMS, CFG) == 1.0


def test_laplace_no_interferers_is_one():
    p0 = PARAMS.with_(lam=0.0)
    for s in (0.0, 0.3, 7.0, 1e4):
        assert laplace_interference(s, p0, CFG) == 1.0


def test_laplace_decreasing_and_bounded():
    grid = np.logspace(-4, 4, 33)
    vals = [laplace_interference(float(s), PARAMS, CFG) for s in grid]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_laplace_ignores_waveguide_layout():
    # the interferer field knows nothing about the serving presets
    ref = [laplace_interference(s, PARAMS, CFG) for s in (0.1, 1.0, 10.0)]
    for variant in (PARAMS.with_(Np=1), PARAMS.with_(Np=51),
                    PARAMS.with_(L=2.0), PARAMS.with_(L=30.0, R=40.0)):
        got = [laplace_interference(s, variant, CFG) for s in (0.1, 1.0, 10.0)]
        assert got == ref


def _gamma_miss(z, d, alpha, shape):
    """1 - E[exp(-z G d^-alpha)] for G ~ Gamma(shape, 1/shape)."""
    return -np.expm1(-shape * np.log1p(z * d ** -alpha / shape))


def _quad_log_laplace(z, params):
    """log L_I(z) = -2 pi lam int_0^inf E_{G,B}[1 - exp(-z G d^-alpha_B)] r dr
    with d = sqrt(r^2 + H^2), by scipy's adaptive quadrature over r, split
    at H, at 1/beta and at each branch's z^(1/alpha_B), where the integrand
    turns from its near plateau to its far tail."""
    def at_radius(r):
        d = math.hypot(r, params.H)
        p_los = math.exp(-params.beta * d)
        return r * (p_los * _gamma_miss(z, d, params.alpha_L, params.N_L)
                    + (1.0 - p_los) * _gamma_miss(z, d, params.alpha_N, params.N_N))

    edges = sorted({0.0, params.H, *(z ** (1.0 / a) for a in (params.alpha_L, params.alpha_N)),
                    *([1.0 / params.beta] if params.beta > 0.0 else [])})
    return -2.0 * math.pi * params.lam * sum(
        integrate.quad(at_radius, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for lo, hi in zip(edges, [*edges[1:], np.inf]))


# alpha = 4, unit shapes and beta = 0: every interferer is LoS with an
# exponential gain, and the radial integral has a closed form,
# log L_I(s) = -lam pi sqrt(s) atan(sqrt(s)/H^2), whose -s d/ds is t_1.
# The pinned errors are about twice those measured at K = 128, and at least
# 1e-14; they grow past s = 1e8, where the knee of the integrand at
# r = s^(1/4) moves out to where the nodes thin
@pytest.mark.parametrize("s,log_rel,t1_rel", [
    (0.1, 1e-14, 1e-14), (10.0, 1e-14, 1e-14), (1e4, 1e-14, 1e-14),
    (1e8, 1e-14, 2e-13), (1e12, 1.5e-8, 5e-7)],
    ids=["s=0.1", "s=10", "s=1e4", "s=1e8", "s=1e12"])
def test_transform_matches_closed_form_at_alpha_4(s, log_rel, t1_rel):
    params = PARAMS.with_(alpha_L=4.0, alpha_N=4.0, N_L=1, N_N=1, beta=0.0)
    tab = an._tables(params, CFG)
    root, h2 = math.sqrt(s), params.H ** 2
    log_l = -params.lam * math.pi * root * math.atan(root / h2)
    t1 = params.lam * math.pi * s * (math.atan(root / h2) / (2.0 * root)
                                     + h2 / (2.0 * (h2 * h2 + s)))
    got_log_l, got_t = an._xi_free(s, 1, tab)
    assert float(got_log_l) == pytest.approx(log_l, rel=log_rel)
    assert float(got_t[0]) == pytest.approx(t1, rel=t1_rel)


@pytest.mark.parametrize("s", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("params", [PARAMS, RATE_PARAMS, PARAMS.with_(alpha_N=3.2)],
                         ids=["default", "rate", "alpha_N=3.2"])
def test_transform_matches_quadrature_oracle(params, s):
    # the split quadrature is within 3e-13 of mpmath at 30 digits here, and
    # the transform within 8e-9 of it (alpha_N = 3.2 at s = 1e8); a rule
    # converging like K^-2 in the tail is 6.8e-7 off on the default
    # geometry at s = 1 at K = 400, and 7.4e-4 at s = 1e8
    got = float(an._xi_free(s, 0, an._tables(params, CFG))[0])
    assert got == pytest.approx(_quad_log_laplace(s, params), rel=2e-8)


# a far-field path-loss exponent of 2 (the NLoS one, or the LoS one at
# beta = 0) makes the interference integral diverge like log r, so I is
# infinite almost surely; unchecked, each K would give its own finite
# outage (7.5e-4, 7.8e-4 and 8.2e-4 at K = 100, 400 and 1600, alpha_N = 2)
_FAR_FIELD_2 = pytest.mark.parametrize("changes", [{"alpha_N": 2.0}, {"beta": 0.0}],
                                       ids=["alpha_N=2", "beta=0"])


@_FAR_FIELD_2
def test_divergent_interference_raises(changes):
    params = PARAMS.with_(**changes)
    for average in (outage_probability, outage_lower_bound, an.ergodic_rate):
        with pytest.raises(NumericError, match="interference diverges"):
            average(params, CFG)


@_FAR_FIELD_2
def test_far_field_exponent_2_without_interferers_is_gamma_tail(changes):
    # at lam = 0 nothing diverges: the outage is the noise-only gamma tail
    p0 = _at(1e4, PARAMS.with_(lam=0.0, **changes))
    d0 = 5.0
    p_los = math.exp(-p0.beta * d0)
    want = 1.0 - (
        p_los * gammaincc(p0.N_L, p0.N_L * p0.epsilon * d0 ** p0.alpha_L * XI)
        + (1.0 - p_los) * gammaincc(p0.N_N, p0.N_N * p0.epsilon * d0 ** p0.alpha_N * XI))
    assert conditional_outage(d0, p0, CFG) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# derivatives


def test_zeta_no_interferers_closed_form():
    p0 = PARAMS.with_(lam=0.0)
    assert zeta_derivative(1, 0.5, p0, CFG) == -XI
    assert zeta_derivative(2, 0.5, p0, CFG) == 0.0


@pytest.mark.parametrize("omega", [0.1, 0.5, 2.0])
@pytest.mark.parametrize("order,h", [(1, 1e-3), (2, 2e-3)])
def test_zeta_matches_finite_difference(omega, order, h):
    xi = PARAMS_FD.xi

    def zeta(w):
        return math.log(laplace_interference(w, PARAMS_FD, CFG)) - w * xi

    fd = finite_difference(zeta, omega, order, h)
    got = zeta_derivative(order, omega, PARAMS_FD, CFG)
    assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("order,h", [(1, 1e-3), (2, 2e-3)])
def test_zeta_matches_finite_difference_default_density(order, h):
    # at lam = 1e-6 the exp/log round trip of the public transform costs
    # ~1e-16 absolute, which finite differences amplify past 1e-6 relative;
    # differencing the exponent itself (the same function, evaluated
    # stably) restores the headroom
    tab = an._tables(PARAMS, CFG)

    def zeta(w):
        return float(an._xi_free(w, 0, tab)[0]) - w * XI

    fd = finite_difference(zeta, 0.5, order, h)
    got = zeta_derivative(order, 0.5, PARAMS, CFG)
    assert got == pytest.approx(fd, rel=1e-6)


def test_zeta_scales_linearly_in_density():
    # the node sum is proportional to lam by construction, so the default
    # density case is pinned by the well-conditioned lam = 1e-2 case
    tab_lo = an._tables(PARAMS, CFG)
    tab_hi = an._tables(PARAMS.with_(lam=1e-2), CFG)
    for w in (0.1, 0.7, 3.0):
        lo = float(an._xi_free(w, 0, tab_lo)[0])
        hi = float(an._xi_free(w, 0, tab_hi)[0])
        assert lo == pytest.approx(1e-4 * hi, rel=1e-12)


def test_lbar_order_zero_at_origin():
    assert lbar_derivatives(0.0, 0, PARAMS, CFG)[0] == 1.0


def test_lbar_no_interferers_closed_form():
    p0 = PARAMS.with_(lam=0.0)
    omega = 0.7
    got = lbar_derivatives(omega, 3, p0, CFG)
    base = math.exp(-omega * XI)
    for j, v in enumerate(got):
        assert v == pytest.approx((-XI) ** j * base, rel=1e-13)


def test_lbar_consistent_with_laplace():
    omega = 1.3
    got = lbar_derivatives(omega, 0, PARAMS, CFG)[0]
    want = laplace_interference(omega, PARAMS, CFG) * math.exp(-omega * XI)
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("omega", [0.1, 0.5, 2.0])
@pytest.mark.parametrize("order,h", [(1, 1e-3), (2, 2e-3)])
def test_lbar_matches_finite_difference(omega, order, h):
    def lbar(w):
        return lbar_derivatives(w, 0, PARAMS_FD, CFG)[0]

    fd = finite_difference(lbar, omega, order, h)
    got = lbar_derivatives(omega, order, PARAMS_FD, CFG)[order]
    assert got == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# conditional outage


def test_conditional_outage_zero_threshold():
    assert conditional_outage(5.0, _at(0.0), CFG) == 0.0


def test_conditional_outage_huge_threshold():
    assert conditional_outage(5.0, _at(1e12), CFG) == pytest.approx(1.0, abs=1e-6)


def test_conditional_outage_monotone_in_threshold():
    vals = [conditional_outage(6.0, _at(e), CFG)
            for e in np.logspace(-2, 2, 17)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_conditional_outage_monotone_in_distance():
    grid = np.linspace(PARAMS.H, 2 * PARAMS.R, 25)
    vals = [conditional_outage(float(d), _at(1.0), CFG) for d in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(N_L=st.integers(1, 40), N_N=st.integers(1, 40),
       lam=st.floats(0.0, 1e-3),
       d0=st.floats(PARAMS.H, 2 * PARAMS.R),
       log_eps=st.floats(-3.0, 4.0),
       log_step=st.floats(0.0, 2.0))
def test_conditional_outage_is_a_probability_monotone_in_threshold(
        N_L, N_N, lam, d0, log_eps, log_step):
    # over shapes 1..40, densities up to 1e-3 and thresholds 1e-3..1e6
    # (past 1e6 the outage is 1 to rounding at every d0 here): the outage
    # lies in [0, 1] and a higher threshold does not lower it
    params = PARAMS.with_(N_L=N_L, N_N=N_N, lam=lam)
    low = conditional_outage(d0, _at(10.0 ** log_eps, params), CFG)
    high = conditional_outage(d0, _at(10.0 ** (log_eps + log_step), params), CFG)
    assert 0.0 <= low <= high + 1e-12 and high <= 1.0


def test_conditional_outage_no_interferers_gamma_tail():
    # with no interference the coverage sum is the regularized upper
    # incomplete gamma of the scaled noise: P(Gamma(N, 1/N) > eps d^a xi).
    # Shapes 170 and 200 run at a threshold that puts d0 = 9 at the mean of
    # their narrow NLoS gain, where the tail is neither 0 nor 1
    for shapes, threshold in (((PARAMS.N_L, PARAMS.N_N), 2.0), ((170, 170), 250.0),
                              ((200, 200), 250.0)):
        p0 = _at(threshold, PARAMS.with_(lam=0.0, N_L=shapes[0], N_N=shapes[1]))
        eps = p0.epsilon
        for d0 in (4.0, 9.0, 17.0):
            p_los = math.exp(-p0.beta * d0)
            want = 1.0 - (
                p_los * gammaincc(p0.N_L, p0.N_L * eps * d0 ** p0.alpha_L * XI)
                + (1.0 - p_los) * gammaincc(p0.N_N, p0.N_N * eps * d0 ** p0.alpha_N * XI))
            got = conditional_outage(d0, p0, CFG)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-15)


def _mp_conditional_outage(d0, params, cfg):
    """Conditional outage at d0 by the alternating derivative series in
    mpmath at 30 digits: 1 - sum_B p_B sum_{j<N_B} (-w)^j/j! L-bar^(j)(w),
    with zeta^(j) summed per node term through the derivative ratio
    -(N + j - 1)/(N D (1 + x)), and L-bar^(j) = sum_i C(j-1, i)
    zeta^(j-i) L-bar^(i).  It shares only the node tables with analysis."""
    mp = mpmath.mp.clone()
    mp.dps = 30
    pref, tables = an._tables(params, cfg)
    xi = mp.mpf(params.xi)
    p_los = math.exp(-params.beta * d0)
    outage = mp.mpf(1)
    for p_b, alpha, shape in ((p_los, params.alpha_L, params.N_L),
                              (1.0 - p_los, params.alpha_N, params.N_N)):
        w = mp.mpf(shape * params.epsilon * d0 ** alpha)
        log_l = mp.mpf(0)
        zeta = [mp.mpf(0)] * shape
        for a, D, n in tables:
            for a_k, D_k in zip(a.tolist(), D.tolist()):
                a_k, nd = mp.mpf(a_k), n * mp.mpf(D_k)
                base = (1 + w / nd) ** -n
                log_l -= a_k * (1 - base)
                deriv = a_k * base
                for j in range(1, shape):
                    deriv *= -(n + j - 1) / (nd + w)
                    zeta[j] += deriv
        zeta = [z * mp.mpf(pref) for z in zeta]
        if shape > 1:
            zeta[1] -= xi
        lbar = [mp.exp(mp.mpf(pref) * log_l - w * xi)]
        for j in range(1, shape):
            lbar.append(mp.fsum(math.comb(j - 1, i) * zeta[j - i] * lbar[i]
                                for i in range(j)))
        outage -= mp.mpf(p_b) * mp.fsum((-w) ** j / mp.factorial(j) * lbar[j]
                                        for j in range(shape))
    return float(outage)


@pytest.mark.parametrize("shape", [170, 200])
def test_large_shapes_match_mpmath_series(shape):
    # from shape 170 on, N^j and (N + j - 1)!/(N - 1)! leave the double
    # range; the coverage sum forms neither, and matches the series in
    # mpmath at outages near 0.29 and 0.92 that the interferers alone cause
    # (without them both read 0).  K = 40 keeps the oracle under a second
    # per threshold: both sides use the same nodes
    cfg = an.AnalysisConfig(K=40)
    for eps in (30.0, 300.0):
        params = _at(eps, PARAMS.with_(lam=1e-4, N_L=shape, N_N=shape))
        want = _mp_conditional_outage(5.0, params, cfg)
        assert conditional_outage(5.0, params, cfg) == pytest.approx(want, rel=0, abs=1e-14)


@pytest.mark.parametrize("shape", [720, 1000, 1500])
def test_shapes_past_700_match_gamma_tail(shape):
    # without interferers t_1 = w xi; where w xi < N - 1 the scale
    # t_1 / (N - 1) is below 1, and unscaled the a_m sum to e^(w xi), past
    # 1e308 once w xi passes ~710, while L-bar underflows.  The scale
    # s = t_1 / min(N - 1, 700) keeps them finite.  With
    # alpha_N = alpha_L both branches share w, and the outage is the lower
    # regularized gamma P(N, w xi), so the coverage is Q(N, w xi), here at
    # w xi = 0.9 N and N (outages 2.8e-3 and 0.50 at N = 720, 5.5e-4 and
    # 0.50 at N = 1000, 3.1e-5 and 0.50 at N = 1500)
    params = PARAMS.with_(lam=0.0, N_L=shape, N_N=shape, alpha_N=PARAMS.alpha_L)
    d0 = 5.0
    for ratio in (0.9, 1.0):
        p = _at(ratio / (d0 ** params.alpha_L * params.xi), params)
        want = gammaincc(shape, shape * p.epsilon * d0 ** p.alpha_L * p.xi)
        assert 1.0 - conditional_outage(d0, p, CFG) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("shape,lam,eps", [(3, 1e-4, 1e3), (8, 1e-6, 1e4),
                                           (40, 1e-4, 1e4)])
def test_scaled_coverage_terms_match_mpmath_series(shape, lam, eps):
    # t_1 exceeds N - 1 on both blockage branches here, so the coverage
    # terms are carried scaled (s > 1); the outages are 0.990, 0.877 and
    # 1 - 4e-14
    cfg = an.AnalysisConfig(K=40)
    params = _at(eps, PARAMS.with_(lam=lam, N_L=shape, N_N=shape))
    want = _mp_conditional_outage(5.0, params, cfg)
    assert conditional_outage(5.0, params, cfg) == pytest.approx(want, rel=0, abs=1e-14)


@pytest.mark.parametrize("eps", [1e40, 1e42, 1e47])
def test_conditional_outage_overflowing_threshold_is_one(eps):
    # (-w)^j/j! and L-bar^(j) leave the double range here while L-bar
    # underflows, so a series that forms them reads inf * 0 = NaN at 1e42;
    # unscaled coverage terms a_m overflow too from about 8.6e46; the
    # scaled ones stay finite, and the outage reads 1
    params = _at(eps, PARAMS.with_(N_L=8, N_N=8))
    assert conditional_outage(5.0, params, CFG) == 1.0


@pytest.mark.parametrize("shapes,eps,d0", [
    ((3, 2), 1e160, 5.0), ((3, 2), 1e300, 5.0), ((200, 200), 2.1e4, 5.0),
    ((200, 200), 1e5, 5.0), ((40, 40), 1e8, 40.0)],
    ids=["default-1e160", "default-1e300", "N200-2.1e4", "N200-1e5", "N40-d40"])
def test_conditional_outage_is_one_where_coverage_terms_overflow(shapes, eps, d0):
    # unscaled, the a_m reach inf while L-bar reads 0 at each of these
    # (0 * inf = NaN); the true outage is 1 to double precision
    params = _at(eps, PARAMS.with_(N_L=shapes[0], N_N=shapes[1]))
    assert conditional_outage(d0, params, CFG) == 1.0


# ---------------------------------------------------------------------------
# spatial averages and bounds


def test_outage_zero_threshold_everywhere():
    p = _at(0.0)
    assert outage_probability(p, CFG) == 0.0
    assert outage_upper_bound(p, CFG) == 0.0
    assert outage_lower_bound(p, CFG) == 0.0


def test_single_preset_equals_upper_bound():
    p1 = _at(1.0, PARAMS.with_(Np=1))
    # one rule, the polar row (0, -R, R), serves both
    assert outage_probability(p1, CFG) == outage_upper_bound(p1, CFG)


@pytest.mark.parametrize("eps", [0.5, 1.0, 3.0, 7.0])
def test_bound_sandwich_and_monotone_in_presets(eps):
    vals = [outage_probability(_at(eps, PARAMS.with_(Np=n)), CFG)
            for n in (3, 11, 51)]
    lower = outage_lower_bound(_at(eps), CFG)
    upper = outage_upper_bound(_at(eps), CFG)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert lower <= vals[-1] and vals[0] <= upper
    assert lower <= outage_probability(_at(eps), CFG) <= upper


@settings(max_examples=40, deadline=None, derandomize=True)
@given(geometry=st.sampled_from(["default", "rate"]),
       rbar=st.floats(0.0, 16.0), step=st.floats(0.0, 4.0))
def test_outage_monotone_in_target_rate(geometry, rbar, step):
    # a higher target rate raises the SINR threshold, so the averaged
    # outage does not fall, up to rounding, over target rates of 0 to 20
    # bits, across which it runs from 0 to 1 at both geometries
    params = {"default": PARAMS, "rate": RATE_PARAMS}[geometry]
    low = outage_probability(params.with_(Rbar=rbar), CFG)
    high = outage_probability(params.with_(Rbar=rbar + step), CFG)
    assert low <= high + 1e-12


def test_dense_presets_reach_lower_bound():
    got = outage_probability(_at(1.0, PARAMS.with_(Np=201)), CFG)
    lower = outage_lower_bound(_at(1.0), CFG)
    assert got == pytest.approx(lower, abs=1e-3)
    assert got >= lower - 1e-12


# R >> L: the edge cells and the tip lobe meet the rim hundreds of
# half-lengths from their serving point; at Np = 1001 an interior cell is
# 1e-6 R wide, so it holds only a thin angle of each far circle about its
# preset, and that angle varies on the scale of the cell's width
AREA_GEOMETRIES = [PARAMS, PARAMS.with_(R=1000.0, L=100.0),
                   PARAMS.with_(R=5000.0, L=10.0, Np=3),
                   PARAMS.with_(R=1000.0, L=1.0, Np=1001)]


def _cell_area(a, b, R):
    """Area of {a <= x <= b, y >= 0, x^2 + y^2 <= R^2} by scipy over x,
    which keeps its relative digits for a thin cell (a difference of
    closed-form primitives of size R^2 would not)."""
    return integrate.quad(lambda x: math.sqrt((R - x) * (R + x)), a, b,
                          epsabs=0.0, epsrel=1e-13)[0]


def test_strip_weights_cover_half_disc():
    # the weights carry the user density 2/(pi R^2) over the half disc, and
    # each polar row measures its own Voronoi cell
    for params in AREA_GEOMETRIES:
        d0, weight = an._serving_rule(params, CFG.gl_order_rate)
        assert weight.sum() == pytest.approx(1.0, rel=1e-13)
        assert np.all(d0 >= params.H)
        R, Np = params.R, params.Np
        for xn, a, b in zip(preset_offsets(params.L, Np), *voronoi_cells(params.L, Np, R)):
            _, row = an._polar_rule(xn, a, b, R, params.H, CFG.gl_order_rate)
            assert row.sum() == pytest.approx(_cell_area(a, b, R), rel=1e-13)


def test_mirrored_cells_give_bytewise_equal_polar_rows():
    # the fold of _serving_rule: the presets and cells mirror exactly about
    # x = 0, and the polar row of cell Np - 1 - i about its preset is that
    # of cell i, byte for byte, up to Np = 1001
    for params in AREA_GEOMETRIES:
        xc = preset_offsets(params.L, params.Np)
        a, b = voronoi_cells(params.L, params.Np, params.R)
        half = params.Np // 2
        assert np.array_equal(xc[::-1], -xc)
        assert np.array_equal(a[::-1], -b) and np.array_equal(b[::-1], -a)
        rows = [an._polar_rule(x[:half], y[:half], z[:half], params.R, params.H,
                               CFG.gl_order_rate)
                for x, y, z in ((xc, a, b), (xc[::-1], a[::-1], b[::-1]))]
        for left, right in zip(*rows):
            assert left.tobytes() == right.tobytes()


def _full_serving_rule(params, order):
    """The outage measure with one polar row per Voronoi cell, none folded:
    the oracle of _serving_rule's mirror fold."""
    R = params.R
    rows = (preset_offsets(params.L, params.Np), *voronoi_cells(params.L, params.Np, R))
    d0, weight = an._polar_rule(*rows, R, params.H, order)
    return d0, weight * (2.0 / (math.pi * R * R))


@pytest.mark.parametrize("Np", [1, 3, 11, 51])
@pytest.mark.parametrize("base", [PARAMS, RATE_PARAMS], ids=["default", "rate"])
def test_folded_measure_matches_full_cell_oracle(monkeypatch, base, Np):
    # folding the mirrored cells only reorders the distance rule's moment
    # sums: the outage and the rate stay within 1e-14 of the unfolded
    # measure's, and at one preset, where nothing folds, bit for bit
    params = base.with_(Np=Np)
    folded = outage_probability(params, CFG), an.ergodic_rate(params, CFG)
    monkeypatch.setitem(an._MEASURES, "outage probability", _full_serving_rule)
    full = outage_probability(params, CFG), an.ergodic_rate(params, CFG)
    if Np == 1:
        assert [v.hex() for v in folded] == [v.hex() for v in full]
    else:
        assert folded == pytest.approx(full, rel=1e-14, abs=0.0)


def test_outage_rule_memory():
    # the folded measure holds half the polar rows: building the Np = 201
    # outage rule peaks at 2.5 MB of traced allocations, against 5.0 MB
    # with a row per cell
    params = SystemParams(Np=201)
    an._average_rule("outage probability", params, CFG)  # the cached node rules
    tracemalloc.start()
    try:
        an._average_rule("outage probability", params, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_continuum_weights_cover_quarter_disc():
    # the density 4/(pi R^2) over the quarter disc: tip lobe plus side lobe
    for params in AREA_GEOMETRIES:
        d0, weight = an._continuum_rule(params, CFG.gl_order_rate)
        assert weight.sum() == pytest.approx(1.0, rel=1e-13)
        assert np.all(d0 >= params.H)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(L=st.floats(0.1, 1000.0),
       spread=st.floats(1.0, 2e4, exclude_min=True),
       half_np=st.integers(0, 500),
       H=st.floats(0.1, 100.0))
def test_measure_is_a_probability_over_the_geometry_domain(L, spread, half_np, H):
    # Np from 1 to 1001 and R up to 2e4 half-lengths: every weight is
    # nonnegative, every serving distance at least H, and both averages'
    # weights sum to 1 two orders inside the clamp window
    R = spread * 0.5 * L
    assume(R > 0.5 * L)  # a spread next to 1 can round onto the tip
    params = SystemParams(L=L, R=R, Np=2 * half_np + 1, H=H)
    for build in (an._serving_rule, an._continuum_rule):
        d0, weight = build(params, CFG.gl_order_rate)
        assert np.all(weight >= 0.0)
        assert np.all(d0 >= H)
        assert abs(np.sum(weight) - 1.0) <= 1e-11


def test_outage_near_one_at_large_radius():
    # an outage close to 1 stays inside [0, 1] only if the serving weights
    # sum to 1 well inside the 1e-9 clamp window; a rule off by 3.9e-9 here
    # made the average raise
    params = _at(1e7, SystemParams(lam=1e-7, H=1.0, alpha_N=6.0, R=1000.0, L=100.0))
    assert outage_probability(params, CFG) == pytest.approx(1.0, abs=1e-9)


def test_nonfinite_outage_raises():
    # NaN compares false both ways, so it must not pass as a probability:
    # at eps = 1e307 omega itself leaves the double range
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericInstabilityError):
            conditional_outage(5.0, _at(1e307), CFG)
        with pytest.raises(NumericInstabilityError):
            outage_probability(_at(1e307), CFG)


@pytest.mark.parametrize("level,raises", [(1.0 + 1e-6, True), (1.0 + 1e-12, False)],
                         ids=["raises", "rounds"])
def test_spatial_averages_clamp_only_rounding(monkeypatch, level, raises):
    # an average more than 1e-9 outside [0, 1] is a numerical failure, not
    # a probability to be clamped; rounding-level excess reads exactly 1
    monkeypatch.setattr(an, "_outage_batch",
                        lambda transform, params: np.full(transform.d0.shape, level))
    for average in (outage_probability, outage_upper_bound,
                    outage_lower_bound):
        if raises:
            with pytest.raises(NumericInstabilityError):
                average(_at(1.0), CFG)
        else:
            assert average(_at(1.0), CFG) == 1.0


def _noise_only_outage(d0, eps, params):
    """Exact conditional outage without interferers: a blockage-weighted
    mix of Gamma(N, 1/N) distribution functions at the scaled noise level,
    summed as they are, so that an outage far below 1 keeps its digits
    (1 minus the tails leaves it rounding noise of 1e-16)."""
    xi = params.xi
    p_los = math.exp(-params.beta * d0)
    return (p_los * gammainc(params.N_L, params.N_L * eps * d0 ** params.alpha_L * xi)
            + (1.0 - p_los) * gammainc(params.N_N,
                                       params.N_N * eps * d0 ** params.alpha_N * xi))


def _coverage_edges(params):
    """Horizontal distances rho at which a blockage branch's lam = 0 Gamma
    tail crosses about 1/2, at d0 = (eps xi)^(-1/alpha_B), and at twice
    that d0, by where the tail has mostly gone: the covered disc about a
    serving point and its rim.  The outage climbs from near 0 to near 1
    across the rim, which can be too thin for quad to see on a long
    interval, so each oracle breaks its rho or y range at both."""
    scale = params.epsilon * params.xi
    edges = []
    for alpha in (params.alpha_L, params.alpha_N):
        edge = scale ** (-1.0 / alpha) if scale > 0.0 else math.inf
        for d0 in (edge, 2.0 * edge):
            if params.H < d0 < math.inf:
                edges.append(math.sqrt((d0 - params.H) * (d0 + params.H)))
    return edges


def _radial_mean(params, f):
    """Mean of f(d0) over a user uniform on the disc, served from above
    the center: scipy over the radius."""
    R, H = params.R, params.H
    val = integrate.quad(lambda r: f(math.hypot(r, H)) * r, 0.0, R,
                         points=_coverage_edges(params),
                         epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    return 2.0 / R ** 2 * val


def _strip_mean(params, f, epsabs=1e-11):
    """Mean of f(d0) over a user uniform on the disc, served by the nearest
    preset: scipy over the upper half disc, one Voronoi strip at a time, over
    y inside over x; each coverage edge, a circle about the preset, breaks
    the y range where it crosses the column, and the x range where it
    crosses the axis."""
    R, H = params.R, params.H
    edges = _coverage_edges(params)

    def column(x, xn):
        top = math.sqrt(max(R * R - x * x, 0.0))
        dx = abs(x - xn)
        cuts = [math.sqrt((e - dx) * (e + dx)) for e in edges if dx < e]
        return integrate.quad(lambda y: f(math.hypot(math.hypot(dx, y), H)), 0.0, top,
                              points=cuts, epsabs=epsabs, epsrel=1e-11, limit=200)[0]

    # quad drops the break points outside its interval
    total = sum(integrate.quad(column, a, b, args=(xn,),
                               points=[xn + s * e for e in edges for s in (-1.0, 1.0)],
                               epsabs=epsabs, epsrel=1e-11, limit=200)[0]
                for xn, a, b in zip(preset_offsets(params.L, params.Np),
                                    *voronoi_cells(params.L, params.Np, R)))
    return 2.0 / (math.pi * R ** 2) * total


def _segment_mean(params, f):
    """Mean of f(d0) over a user uniform on the disc, served from the
    nearest point of the waveguide segment: scipy over the x > 0, y > 0
    quarter disc, over y inside over x, split at the tip where the distance
    has a kink; each coverage edge breaks the y range where it crosses the
    column, and the x range where it leaves the axis beyond the tip."""
    R, H, tip = params.R, params.H, 0.5 * params.L
    edges = _coverage_edges(params)

    def column(x):
        top = math.sqrt(max(R * R - x * x, 0.0))
        dx = max(x - tip, 0.0)
        cuts = [math.sqrt((e - dx) * (e + dx)) for e in edges if dx < e]
        return integrate.quad(lambda y: f(math.hypot(math.hypot(dx, y), H)), 0.0, top,
                              points=cuts, epsabs=1e-11, epsrel=1e-11, limit=200)[0]

    # quad drops the break points outside its interval
    total = sum(integrate.quad(column, lo, hi, points=[tip + e for e in edges],
                               epsabs=1e-11, epsrel=1e-11, limit=200)[0]
                for lo, hi in ((0.0, tip), (tip, R)))
    return 4.0 / (math.pi * R ** 2) * total


def _polar_integral(f, xc, a, b, R, H, edges=()):
    """Integral of f(sqrt(rho^2 + H^2)) over {a <= x <= b, y >= 0, inside
    the disc of radius R}, rho the distance to (xc, 0): one scipy quad over
    rho of rho times the angle of the circle of radius rho about (xc, 0)
    inside the region, broken also at the radii edges (_coverage_edges).
    Each bound confines cos(theta) to an interval; the rim bound
    x^2 + y^2 <= R^2 reads xc^2 + 2 xc rho cos(theta) + rho^2 <= R^2.
    The angle has kinks where a bound starts or stops to bind; kinks within
    a relative 1e-12 of each other are one (a preset at its cell's centre
    puts |a - xc| and |b - xc| an ulp apart, and a break between them
    makes quad give up)."""
    def angle(rho):
        lo = max(-1.0, (a - xc) / rho)
        hi = min(1.0, (b - xc) / rho)
        if xc > 0.0:
            hi = min(hi, (R * R - xc * xc - rho * rho) / (2.0 * xc * rho))
        elif xc < 0.0:
            lo = max(lo, (R * R - xc * xc - rho * rho) / (2.0 * xc * rho))
        elif rho > R:
            return 0.0
        return math.acos(lo) - math.acos(hi) if lo < hi else 0.0

    top = R + abs(xc)
    kinks = {abs(a - xc), abs(b - xc), R - abs(xc), *edges}
    kinks |= {math.sqrt((x - xc) ** 2 + R * R - x * x) for x in (a, b)}
    points = []
    for k in sorted(k for k in kinks if 0.0 < k < top):
        if not points or k > points[-1] * (1.0 + 1e-12):
            points.append(k)
    value, error = integrate.quad(lambda r: f(math.hypot(r, H)) * r * angle(r), 0.0, top,
                                  points=points, epsabs=0.0, epsrel=1e-11, limit=200)
    assert error <= 1e-11 * abs(value), f"quad missed its tolerance: {value!r} +- {error!r}"
    return value


def _polar_strip_mean(params, f):
    """_strip_mean by one radial quad per strip, about the strip's preset:
    fast enough for an f that costs a transform evaluation per call."""
    R, edges = params.R, _coverage_edges(params)
    total = sum(_polar_integral(f, xn, a, b, R, params.H, edges)
                for xn, a, b in zip(preset_offsets(params.L, params.Np),
                                    *voronoi_cells(params.L, params.Np, R)))
    return 2.0 / (math.pi * R ** 2) * total


def _polar_segment_mean(params, f):
    """_segment_mean by radial quads: alongside the waveguide the distance
    is |y| over a width min(L/2, sqrt(R^2 - y^2)); beyond the tip, polar
    about the tip."""
    R, H, tip = params.R, params.H, 0.5 * params.L
    edges = _coverage_edges(params)
    side = integrate.quad(
        lambda y: f(math.hypot(y, H)) * min(tip, math.sqrt(max(R * R - y * y, 0.0))),
        0.0, R, points=[math.sqrt(R * R - tip * tip), *edges],
        epsabs=0.0, epsrel=1e-11, limit=200)[0]
    return 4.0 / (math.pi * R ** 2) * (side + _polar_integral(f, tip, tip, R, R, H, edges))


@pytest.mark.parametrize("rbar", [8.0, 10.0])
def test_noise_only_averages_match_quadrature_oracle(rbar):
    # lam = 0 makes the conditional outage an exact Gamma-tail mix, so the
    # distance rules and the planar decompositions are pinned end to end
    params = PARAMS.with_(lam=0.0, Rbar=rbar)
    eps = 2.0 ** rbar - 1.0

    def outage(d0):
        return _noise_only_outage(d0, eps, params)

    assert outage_upper_bound(params, CFG) == pytest.approx(
        _radial_mean(params, outage), abs=1e-8)
    assert outage_lower_bound(params, CFG) == pytest.approx(
        _segment_mean(params, outage), abs=1e-8)
    single = params.with_(Np=1)
    assert outage_probability(single, CFG) \
        == pytest.approx(_radial_mean(single, outage), abs=1e-8)
    for n in (11, 51):
        p = params.with_(Np=n)
        assert outage_probability(p, CFG) \
            == pytest.approx(_strip_mean(p, outage), abs=1e-8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_R=st.floats(0.0, 3.0), log_H=st.floats(-1.0, 2.0),
       N_L=st.integers(1, 10), N_N=st.integers(1, 10),
       alpha_L=st.floats(2.0, 5.0), alpha_step=st.floats(0.0, 3.0),
       log_margin=st.floats(-2.0, 2.0))
def test_noise_only_upper_bound_over_the_geometry_domain(
        log_R, log_H, N_L, N_N, alpha_L, alpha_step, log_margin):
    # R from 1 to 1000, H from 0.1 to 100, shapes 1..10 and exponents up to
    # 5, at a threshold 1e-2..1e2 times the mean SNR of a user at the
    # median radius: the lam = 0 upper bound against scipy over the radius.
    # The gate is the 1e-5 resolution AnalysisConfig states: over 1500
    # random geometries the 96-node distance rule missed 1e-8 at 3.5 %, by
    # up to 1.4e-6 where R / H and alpha are large (3.2e-10 at
    # gl_order_rate = 192)
    R = 10.0 ** log_R
    params = SystemParams(lam=0.0, R=R, L=min(10.0, R), H=10.0 ** log_H, N_L=N_L,
                          N_N=N_N, alpha_L=alpha_L, alpha_N=min(alpha_L + alpha_step, 5.0))
    median_snr = math.hypot(R / math.sqrt(2.0), params.H) ** -params.alpha_N / params.xi
    params = _at(10.0 ** log_margin * median_snr, params)

    def outage(d0):
        return _noise_only_outage(d0, params.epsilon, params)

    assert outage_upper_bound(params, CFG) == pytest.approx(
        _radial_mean(params, outage), abs=1e-5)


# the upper-bound property's lam = 0 domain, for the properties below
_NOISE_ONLY_DOMAIN = st.fixed_dictionaries(dict(
    log_R=st.floats(0.0, 3.0), log_H=st.floats(-1.0, 2.0),
    N_L=st.integers(1, 10), N_N=st.integers(1, 10),
    alpha_L=st.floats(2.0, 5.0), alpha_step=st.floats(0.0, 3.0),
    log_margin=st.floats(-2.0, 2.0)))


def _noise_only_domain_params(log_R, log_H, N_L, N_N, alpha_L, alpha_step, log_margin,
                              Np=1):
    """A geometry of _NOISE_ONLY_DOMAIN with Np presets, built as the
    upper-bound property builds it: at a threshold 10^log_margin times the
    mean SNR of a user at the median radius."""
    R = 10.0 ** log_R
    params = SystemParams(lam=0.0, R=R, L=min(10.0, R), Np=Np, H=10.0 ** log_H, N_L=N_L,
                          N_N=N_N, alpha_L=alpha_L, alpha_N=min(alpha_L + alpha_step, 5.0))
    median_snr = math.hypot(R / math.sqrt(2.0), params.H) ** -params.alpha_N / params.xi
    return _at(10.0 ** log_margin * median_snr, params)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(domain=_NOISE_ONLY_DOMAIN, Np=st.sampled_from([3, 5]))
def test_noise_only_outage_over_the_geometry_domain(domain, Np):
    # the upper-bound property's domain and 1e-5 gate, with three or five
    # presets: the lam = 0 outage against scipy over the radius about each
    # Voronoi strip's preset
    params = _noise_only_domain_params(Np=Np, **domain)

    def outage(d0):
        return _noise_only_outage(d0, params.epsilon, params)

    assert outage_probability(params, CFG) == pytest.approx(
        _polar_strip_mean(params, outage), abs=1e-5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(domain=_NOISE_ONLY_DOMAIN)
def test_noise_only_lower_bound_over_the_geometry_domain(domain):
    # the upper-bound property's domain and 1e-5 gate: the lam = 0 lower
    # bound against scipy beside the waveguide and about its tip
    params = _noise_only_domain_params(**domain)

    def outage(d0):
        return _noise_only_outage(d0, params.epsilon, params)

    assert outage_lower_bound(params, CFG) == pytest.approx(
        _polar_segment_mean(params, outage), abs=1e-5)


def test_noise_only_outage_matches_planar_oracle_far_rim():
    # R >> L: each edge cell meets the rim a thousand half-lengths out,
    # where a rule that misses the rim's square root is ~3e-7 off
    params = PARAMS.with_(lam=0.0, Rbar=1.0, R=5000.0, L=10.0, Np=3)
    eps = 2.0 ** params.Rbar - 1.0

    def outage(d0):
        return _noise_only_outage(d0, eps, params)

    assert outage_probability(params, CFG) \
        == pytest.approx(_strip_mean(params, outage), abs=1e-8)


# presets at their cells' centres, with |a - xc| and |b - xc| an ulp apart
_ULP_KINKS = PARAMS.with_(R=44.91361793930314, L=8.412754764289524, Np=11)


@pytest.mark.parametrize("params", [
    PARAMS, PARAMS.with_(R=300.0, L=100.0), _ULP_KINKS,
    _ULP_KINKS.with_(H=0.3200589444587485, alpha_L=4.9435620598482215, alpha_N=5.0,
                     N_L=8, N_N=1),
], ids=["default", "R300", "ulp-kinks", "ulp-kinks-steep"])
def test_polar_oracles_match_planar_oracles(params):
    # the radial-quad oracles of the lam > 0 test against the planar
    # dblquad ones, on the noise-only outage where both are cheap.  Kinks
    # an ulp apart made quad give up, 1.9e-9 and 4.8e-5 off in the last two
    eps = 2.0 ** 10 - 1.0
    single = params.with_(lam=0.0)

    def outage(d0):
        return _noise_only_outage(d0, eps, single)

    assert _polar_strip_mean(single, outage) == pytest.approx(
        _strip_mean(single, outage), abs=1e-12)
    assert _polar_segment_mean(single, outage) == pytest.approx(
        _segment_mean(single, outage), abs=1e-12)


def test_oracles_resolve_the_coverage_edge():
    # lam = 0 and a threshold of 1 / (the mean SNR at the median radius),
    # as in the upper-bound property above: the outage is near 1, and the
    # covered sliver beside the waveguide is about 0.6 m wide.  Without
    # breaks at the coverage edges the quad oracles stepped across it and
    # read 1.0000000000, 1.2e-5 off.  With them the planar and polar
    # oracles agree, and the averages meet them within 1e-8 at the doubled
    # gl_order_rate; the default 96-node rules stay within the 1e-5
    # resolution AnalysisConfig states (measured 2.3e-7 for the lower bound
    # and 1.9e-8 for the outage: ROADMAP item 6)
    params = SystemParams(lam=0.0, R=529.07, L=9.22, Np=5, H=0.159, alpha_L=3.62,
                          alpha_N=4.44, N_L=7, N_N=4)
    params = _at(math.hypot(params.R / math.sqrt(2.0), params.H) ** params.alpha_N
                 * params.xi, params)

    def outage(d0):
        return _noise_only_outage(d0, params.epsilon, params)

    lower = _segment_mean(params, outage)
    assert _polar_segment_mean(params, outage) == pytest.approx(lower, abs=1e-12)
    mean = _polar_strip_mean(params, outage)
    assert _strip_mean(params, outage) == pytest.approx(mean, abs=1e-12)
    assert lower < mean < 1.0 - 1e-6
    for cfg, gate in ((an.AnalysisConfig(gl_order_rate=2 * CFG.gl_order_rate), 1e-8),
                      (CFG, 1e-5)):
        assert outage_lower_bound(params, cfg) == pytest.approx(lower, abs=gate)
        assert outage_probability(params, cfg) == pytest.approx(mean, abs=gate)


def test_averages_match_quadrature_oracle_with_interference():
    # lam > 0: the outage and both bounds, each a sum over a rule in ln d0,
    # against scipy integrals of the pointwise conditional outage over the
    # disc (which test_conditional_outage_* and the derivative tests pin);
    # R = 1000 needs the 96-node distance rule
    for params in (PARAMS, PARAMS.with_(R=300.0, L=100.0),
                   PARAMS.with_(R=1000.0, L=100.0)):
        def outage(d0):
            return conditional_outage(d0, params, CFG)

        assert outage_probability(params, CFG) == pytest.approx(
            _polar_strip_mean(params, outage), abs=1e-8)
        assert outage_upper_bound(params, CFG) == pytest.approx(
            _radial_mean(params, outage), abs=1e-8)
        assert outage_lower_bound(params, CFG) == pytest.approx(
            _polar_segment_mean(params, outage), abs=1e-8)


def _run_fresh(script, *args, threads="1"):
    """Stdout of script run in a new interpreter on this checkout's src."""
    src = str(Path(an.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


_HEX_SCRIPT = """
from pinchnet import analysis as an
from pinchnet.geometry import SystemParams
cfg = an.AnalysisConfig()
def average(name, p):
    return an._average(an._transform(an._average_rule(name, p, cfg), p, cfg), p, name)
for n in (11, 51):
    print(average("outage probability", SystemParams(Np=n)).hex())
p = SystemParams()
print(average("outage upper bound", p).hex(), average("outage lower bound", p).hex())
rate = SystemParams(alpha_N=4.0, lam=1e-5, R=100.0, L=100.0, H=4.0, P=1.0, Np=3)
print(an.ergodic_rate(rate, cfg).hex())
"""


def test_analysis_bit_identical_across_blas_threads():
    # analytic results are a pure function of (params, AnalysisConfig),
    # bit for bit, whatever the BLAS thread count: every reduction (the
    # distance rule's moments and weights, the averages, the rate panels)
    # is an np.sum, never a BLAS dot
    outputs = [_run_fresh(_HEX_SCRIPT, threads=threads) for threads in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 5


_HISTORY_SCRIPT = """
import math, sys
from pinchnet import analysis as an
from pinchnet.geometry import SystemParams
cfg = an.AnalysisConfig()
def outage(p):
    rule = an._average_rule("outage probability", p, cfg)
    return an._average(an._transform(rule, p, cfg), p, "outage probability")
p = SystemParams()
if sys.argv[1] == "widened":
    # an earlier call at the same noise level and a far higher threshold
    outage(p.with_(Rbar=math.log2(1 + 1e4 * p.epsilon)))
print(outage(p).hex())
"""


def test_outage_independent_of_call_history():
    # analysis keeps no state between calls, so an earlier call cannot
    # move a later value (a grown coverage-table grid once did)
    outputs = [_run_fresh(_HISTORY_SCRIPT, order) for order in ("fresh", "widened")]
    assert outputs[0] == outputs[1]


# one changed value per SystemParams field; the transform reads every
# field but the first three, which enter only through xi
_FIELD_CHANGES = {"P": 1.0, "sigma2": 1e-10, "f_c": 3.5e9, "Rbar": 3.0,
                  "lam": 2e-6, "R": 25.0, "L": 12.0, "Np": 13, "H": 4.0,
                  "beta": 0.02, "alpha_L": 2.5, "alpha_N": 3.5, "N_L": 4,
                  "N_N": 3}


def _transform_bytes(params):
    """The bytes of every array in the transforms of the three averages."""
    arrays = []
    for name in an._MEASURES:
        t = an._transform(an._average_rule(name, params, CFG), params, CFG)
        arrays += [t.d0, t.weight]
        for p_b, omega, log_l, zetas in t.branches:
            arrays += [p_b, omega, log_l, *zetas]
    return b"".join(a.tobytes() for a in arrays)


@pytest.mark.parametrize("field", [f.name for f in fields(SystemParams)])
def test_transform_key_matches_transform_bytes(field):
    # the key stays put exactly when the transforms keep their bytes, and
    # both stay put only for the three noise fields (Rbar moves omega): a
    # transform that starts reading a new field, or a new field with no
    # entry above, fails here
    params = SystemParams()
    changed = params.with_(**{field: _FIELD_CHANGES[field]})
    same_bytes = _transform_bytes(changed) == _transform_bytes(params)
    same_key = an._transform_key(changed) == an._transform_key(params)
    assert same_bytes == same_key == (field in ("P", "sigma2", "f_c"))


def test_outage_stable_under_order_doubling():
    fine = an.AnalysisConfig(K=2 * CFG.K, gl_order_rate=2 * CFG.gl_order_rate)
    for eps in (0.5, 1.0, 3.0):
        assert abs(outage_probability(_at(eps), CFG)
                   - outage_probability(_at(eps), fine)) < 1e-5


# ---------------------------------------------------------------------------
# ergodic rate


def _quad_rate(params, m=24):
    """E[log2(1 + SINR)] by scipy alone: the conditional rate
    g(d0) = int z^-1 e^{-z xi} L_I(z) (1 - M_S(z | d0)) dz / ln 2 by adaptive
    quadrature over ln z at m Chebyshev points of ln d0, with L_I from
    _quad_log_laplace; its Chebyshev interpolant averaged over the strips
    by _strip_mean.  Shares no code with analysis beyond params.xi."""
    xi = params.xi
    lo = math.log(params.H)
    hi = math.log(math.hypot(params.R + 0.5 * params.L, params.H))
    nodes = np.cos(math.pi * (np.arange(m) + 0.5) / m)
    d0 = np.exp(0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes)
    p_los = np.exp(-params.beta * d0)

    def integrand(ln_z):
        z = math.exp(ln_z)
        miss = (p_los * _gamma_miss(z, d0, params.alpha_L, params.N_L)
                + (1.0 - p_los) * _gamma_miss(z, d0, params.alpha_N, params.N_N))
        return math.exp(_quad_log_laplace(z, params) - z * xi) * miss

    g = integrate.quad_vec(integrand, -40.0, 5.0, epsabs=1e-16, epsrel=1e-10,
                           limit=500)[0] / math.log(2.0)
    coef = np.polynomial.chebyshev.chebfit(nodes, g, m - 1)
    return _strip_mean(params, lambda d: np.polynomial.chebyshev.chebval(
        (math.log(d) - 0.5 * (hi + lo)) / (0.5 * (hi - lo)), coef), epsabs=1e-15)


def test_rate_vanishes_under_dense_interference():
    # the model's rate at lam = 10 is 1.1633e-4 bits: the independent
    # oracle gives the same value at 16, 24 and 32 points of ln d0, and
    # ergodic_rate is within 5e-15 of it from K = 128 on (the relative gap
    # is 4.4e-15 at K = 128, 5.6e-16 at 256 and 1.3e-15 at 1600)
    dense = SystemParams(lam=10.0)
    rate = an.ergodic_rate(dense, CFG)
    assert rate == pytest.approx(_quad_rate(dense), rel=1e-5)
    assert rate < 2e-4


@pytest.mark.parametrize("params", [RATE_PARAMS.with_(Np=3), SystemParams(lam=10.0)],
                         ids=["rate-Np3", "dense"])
def test_rate_sum_resolved_at_its_ends_and_step(monkeypatch, params):
    # the rate's trapezoid sum in ln z moves by under 1e-12 bits when its
    # step is halved and each end moved a decade further out, at a rate of
    # 4.7 bits and at one of 1.2e-4 bits
    rate = an.ergodic_rate(params, CFG)
    trapezoid = an.integrate_semi_infinite
    monkeypatch.setattr(an, "integrate_semi_infinite", lambda f, z_lo, z_hi, h: trapezoid(
        f, 0.1 * z_lo, 10.0 * z_hi, 0.5 * h))
    assert abs(an.ergodic_rate(params, CFG) - rate) < 1e-12


def test_rate_monotone_in_power_without_interference():
    p0 = SystemParams(lam=0.0)
    rates = [an.ergodic_rate(p0.with_(P=10 ** (dbm / 10) / 1000), CFG)
             for dbm in (40.0, 50.0, 60.0)]
    assert rates[0] < rates[1] < rates[2]


def _octave_panels(f, order):
    """int_0^inf f(x) dx by octave panels: x = 1/s - 1 over s in (0, 1],
    split into panels [2^-(j+1), 2^-j] (panel j covers x in
    [2^j - 1, 2^(j+1) - 1]), each taken by numpy's order-point
    Gauss-Legendre rule, until two panels in a row add under 1e-9 of the
    running total.  A rule of its own, so the threshold oracle shares no
    quadrature with ergodic_rate's trapezoid sum."""
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    small_streak = 0
    for j in range(64):
        s_hi = 2.0 ** (-j)
        half = 0.25 * s_hi
        s = 3.0 * half - half * base_x  # descending s = ascending x
        contrib = half * float(np.sum(base_w * f(1.0 / s - 1.0) / (s * s)))
        total += contrib
        small_streak = small_streak + 1 if abs(contrib) <= 1e-9 * abs(total) else 0
        if small_streak == 2:
            return total
    raise AssertionError(f"octave panels not converged: total {total!r}")


def _threshold_rate(params, cfg):
    """(1/ln2) int_0^inf (1 - P_out(eps)) / (1 + eps) d eps, with the
    outage averaged by the coverage sum over the serving-distance
    rule: the rate by a route that shares only L_I and the distance rule
    with the z-integral.  The rule is built once per call, as the rate
    builds it; each threshold moves the nodes omega, so takes a transform."""
    rule = an._average_rule("outage probability", params, cfg)

    def outage(eps):
        at_eps = _at(eps, params)
        return an._average(an._transform(rule, at_eps, cfg), at_eps, "outage probability")

    def integrand(eps):
        return np.array([(1.0 - outage(float(e))) / (1.0 + e) for e in eps])

    return _octave_panels(integrand, cfg.gl_order_rate) / math.log(2.0)


@pytest.mark.parametrize("params", [RATE_PARAMS.with_(Np=1), RATE_PARAMS.with_(Np=3),
                                    PARAMS], ids=["rate-Np1", "rate-Np3", "default"])
def test_rate_matches_threshold_integral(params):
    # at 48 nodes, a third of the default's time, the oracle agrees within
    # 1.5e-12 at the default geometry and 3.4e-6 (Np = 1) and 1.4e-6
    # (Np = 3) at the rate geometry, where its own octave panels are the
    # less resolved rule: at 96 nodes the Np = 3 gap falls to 8.3e-8
    assert an.ergodic_rate(params, CFG) == pytest.approx(
        _threshold_rate(params, an.AnalysisConfig(gl_order_rate=48)), abs=1e-5)


def _noise_only_rate(params):
    """(2/R^2) int_0^R E[log2(1 + G d^-alpha_B / xi)] r dr without
    interferers, G ~ Gamma(N_B, 1/N_B) and B LoS with probability
    exp(-beta d), by nested scipy quadrature."""
    xi = params.xi

    def mean_log(d, alpha, shape):
        snr = d ** -alpha / xi
        return integrate.quad(
            lambda g: math.log2(1.0 + g * snr) * stats.gamma.pdf(g, shape, scale=1.0 / shape),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-12)[0]

    def at_radius(r):
        d = math.hypot(r, params.H)
        p_los = math.exp(-params.beta * d)
        return r * (p_los * mean_log(d, params.alpha_L, params.N_L)
                    + (1.0 - p_los) * mean_log(d, params.alpha_N, params.N_N))

    val = integrate.quad(at_radius, 0.0, params.R, epsabs=1e-11, epsrel=1e-11)[0]
    return 2.0 / params.R ** 2 * val


@pytest.mark.parametrize("params", [PARAMS, RATE_PARAMS], ids=["default", "rate"])
def test_noise_only_rate_matches_quadrature_oracle(params):
    single = params.with_(lam=0.0, Np=1)
    assert an.ergodic_rate(single, CFG) == pytest.approx(
        _noise_only_rate(single), abs=1e-8)


@pytest.mark.parametrize("power", [1e-15, 1e-18, 1e-21])
def test_low_snr_rate_is_first_order(power):
    # far below unit mean SNR, log2(1 + S / xi) is S / (xi ln 2) to within
    # a share S / (2 xi) of itself, so the rate is E[S] / (xi ln 2), E[S]
    # the mean serving power (the Gamma gains have mean 1).  An absolute
    # cut at the rate sum's lower end would lose all of it at 1e-21 W
    params = PARAMS.with_(lam=0.0, Np=1, P=power)

    def mean_power(d0):
        p_los = math.exp(-params.beta * d0)
        return p_los * d0 ** -params.alpha_L + (1.0 - p_los) * d0 ** -params.alpha_N

    first_order = _radial_mean(params, mean_power) / (params.xi * math.log(2.0))
    assert an.ergodic_rate(params, CFG) == pytest.approx(first_order, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("level,want", [(-1e-12, 0.0), (-1e-6, None), (math.nan, None),
                                        (math.inf, None)],
                         ids=["rounds", "negative", "nan", "inf"])
def test_rate_rejects_nonfinite_or_negative(monkeypatch, level, want):
    # a rate below zero by more than rounding, or not finite, is a
    # numerical failure
    monkeypatch.setattr(an, "integrate_semi_infinite", lambda f, z_lo, z_hi, h: level)
    if want is None:
        with pytest.raises(NumericInstabilityError):
            an.ergodic_rate(PARAMS, CFG)
    else:
        assert an.ergodic_rate(PARAMS, CFG) == want
