"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Each test prints its verdict through the capture bypass so the line shows
up in a plain ``pytest -v`` run. The criteria cross-validate the two
engines at the published operating points:

* outage figure parameters: alpha_L=2, alpha_N=3, lam=1e-6, R=20 m,
  L=10 m, Np=11, H=3 m (the package defaults), swept over transmit power;
* rate figure parameters: alpha_L=2, alpha_N=4, lam=1e-5, R=100 m,
  L=100 m, H=4 m, evaluated at 30 dBm.

Monte Carlo gates use the score-test convention: the comparison standard
error is never smaller than the binomial error implied by the analytic
probability, which keeps the 3-sigma rule meaningful when the empirical
count is zero.
"""

import math
import time

import numpy as np
import pytest

from pinchnet import analysis as an
from pinchnet import cli
from pinchnet import montecarlo as mc
from pinchnet.geometry import SystemParams
from test_analysis import (conditional_outage, lbar_derivatives, laplace_interference,
                           zeta_derivative)
from test_finite_difference import finite_difference
from test_montecarlo import laplace_estimate, pinned_samples

CFG = an.AnalysisConfig()
FIG2 = SystemParams()
FIG3 = SystemParams(alpha_N=4.0, lam=1e-5, R=100.0, L=100.0, H=4.0, P=1.0)

N_FULL = 100_000


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _binomial_se(p, n):
    p = min(max(p, 0.0), 1.0)
    return math.sqrt(p * (1.0 - p) / n)


def _outage_gap(params, analytic, samples):
    """(gap, allowed, estimate) for a 3-sigma outage comparison of samples."""
    n = samples.shape[1]
    estimate, se = mc._outage(samples, params)
    se = max(se, _binomial_se(analytic, n))
    return abs(estimate - analytic), 3.0 * se, estimate


def test_criterion_1_interference_laplace(capsys):
    t0 = time.perf_counter()
    worst = None
    for i, s in enumerate((0.1, 1.0, 10.0)):
        closed = laplace_interference(s, FIG2, CFG)
        estimate, se = laplace_estimate(
            s, FIG2, mc.SimConfig(n_realizations=N_FULL, seed=101 + i))
        z = abs(estimate - closed) / se
        if worst is None or z > worst[1]:
            worst = (s, z)
    elapsed = time.perf_counter() - t0
    ok = worst[1] <= 3.0 and elapsed < 120.0
    _emit(capsys, 1, ok,
          f"worst |z|={worst[1]:.2f} at s={worst[0]} over s in {{0.1,1,10}} "
          f"at 1e5 realizations, {elapsed:.0f}s")
    assert ok, f"criterion 1: worst z {worst} elapsed {elapsed:.0f}s"


def test_criterion_2_series_derivatives(capsys):
    # well-conditioned density for finite differences; the transform is
    # exactly linear in the density so this pins every density
    params = SystemParams(lam=1e-2)
    xi = params.xi
    worst = 0.0
    for omega in (0.1, 0.5, 2.0):
        for order, h in ((1, 1e-3), (2, 2e-3)):
            zeta = zeta_derivative(order, omega, params, CFG)
            zeta_fd = finite_difference(
                lambda w: math.log(laplace_interference(w, params, CFG))
                - w * xi,
                omega, order=order, h=h)
            worst = max(worst, abs(zeta - zeta_fd) / abs(zeta_fd))

            lbar = lbar_derivatives(omega, order, params, CFG)[order]
            lbar_fd = finite_difference(
                lambda w: lbar_derivatives(w, 0, params, CFG)[0],
                omega, order=order, h=h)
            worst = max(worst, abs(lbar - lbar_fd) / abs(lbar_fd))
    ok = worst <= 1e-6
    _emit(capsys, 2, ok,
          f"max relative gap to central differences {worst:.2e} "
          f"(orders 1-2, omega in {{0.1,0.5,2}})")
    assert ok, f"criterion 2: worst relative gap {worst:.2e}"


def test_criterion_3_conditional_outage(capsys):
    worst = None
    seed = 301
    for d0 in (4.0, 8.0, 15.0):
        for eps in (0.5, 1.0, 3.0):
            params = FIG2.with_(Rbar=math.log2(1.0 + eps))
            analytic = conditional_outage(d0, params, CFG)
            samples = pinned_samples(
                [params], mc.SimConfig(n_realizations=N_FULL, seed=seed), d0)[0]
            gap, allowed, est = _outage_gap(params, analytic, samples)
            ratio = gap / allowed if allowed > 0 else math.inf
            if worst is None or ratio > worst[2]:
                worst = (d0, eps, ratio, analytic, est)
            seed += 1
    ok = worst[2] <= 1.0
    _emit(capsys, 3, ok,
          f"worst gap/(3se)={worst[2]:.2f} at d0={worst[0]} eps={worst[1]} "
          f"(analytic {worst[3]:.2e}, simulated {worst[4]:.2e}, 1e5 each)")
    assert ok, f"criterion 3: {worst}"


def test_criterion_4_outage_curve(capsys):
    t0 = time.perf_counter()
    analytic = []
    gaps = []
    for i, dbm in enumerate(range(0, 31, 5)):
        params = FIG2.with_(P=10.0 ** (dbm / 10.0) / 1000.0)
        value = an.outage_probability(params, CFG)
        analytic.append(value)
        estimate, se = mc._outage(mc._simulate(
            [params], mc.SimConfig(n_realizations=N_FULL, seed=401 + i))[0], params)
        allowed = max(0.01, 3.0 * max(se, _binomial_se(value, N_FULL)))
        gaps.append(abs(estimate - value) / allowed)
    elapsed = time.perf_counter() - t0
    monotone = all(a >= b - 1e-12 for a, b in zip(analytic, analytic[1:]))
    ok = max(gaps) <= 1.0 and monotone and elapsed < 600.0
    _emit(capsys, 4, ok,
          f"P sweep 0..30 dBm: worst gap/allowed={max(gaps):.2f}, "
          f"analytic monotone={monotone}, {elapsed:.0f}s")
    assert ok, f"criterion 4: gaps {gaps} monotone {monotone}"


def test_criterion_5_preset_bounds(capsys):
    worst_violation = -math.inf
    tail_gap = 0.0
    monotone = True
    for eps in (0.5, 1.0, 3.0, 7.0):
        params = FIG2.with_(Rbar=math.log2(1.0 + eps))
        lower = an.outage_lower_bound(params, CFG)
        upper = an.outage_upper_bound(params, CFG)
        previous = math.inf
        for npresets in (3, 11, 51):
            value = an.outage_probability(params.with_(Np=npresets), CFG)
            worst_violation = max(worst_violation, lower - value, value - upper)
            if value > previous + 1e-12:
                monotone = False
            previous = value
        dense = an.outage_probability(params.with_(Np=201), CFG)
        tail_gap = max(tail_gap, abs(dense - lower))
    ok = worst_violation <= 1e-12 and monotone and tail_gap <= 1e-3
    _emit(capsys, 5, ok,
          f"sandwich violation {worst_violation:.1e}, monotone={monotone}, "
          f"Np=201 vs lower bound gap {tail_gap:.1e}")
    assert ok, f"criterion 5: {worst_violation} {monotone} {tail_gap}"


def test_criterion_6_rate_claims(capsys):
    sim = dict(n_realizations=20_000, R_sim=1500.0)
    results = {}
    for i, npresets in enumerate((1, 3)):
        params = FIG3.with_(Np=npresets)
        analytic = an.ergodic_rate(params, CFG)
        estimate, se = mc._rate(
            mc._simulate([params], mc.SimConfig(seed=601 + i, **sim))[0], params)
        results[npresets] = (analytic, estimate, se)
    rel = max(abs(a - s) / a for a, s, _ in results.values())
    a1, s1, e1 = results[1]
    a3, s3, e3 = results[3]
    margin = (s3 - s1) - 3.0 * math.hypot(e1, e3)
    ok = rel <= 0.02 and margin > 0.0
    _emit(capsys, 6, ok,
          f"30 dBm: analytic/simulated rate Np=3 {a3:.2f}/{s3:.2f}, "
          f"Np=1 {a1:.2f}/{s1:.2f} BPCU; worst rel gap {rel:.3f}, "
          f"pinching margin beyond 3se {margin:+.2f}")
    assert ok, f"criterion 6: rel {rel:.3f} margin {margin:.3f}"


def test_criterion_7_layout_invariance(capsys):
    reference = None
    identical = True
    for npresets in (1, 11):
        for length in (10.0, 100.0):
            params = FIG2.with_(Np=npresets, L=length, R=60.0)
            values = tuple(laplace_interference(s, params, CFG)
                           for s in (0.1, 1.0, 10.0))
            if reference is None:
                reference = values
            elif values != reference:
                identical = False
    a, a_se = laplace_estimate(
        1.0, FIG2.with_(Np=1), mc.SimConfig(n_realizations=50_000, seed=701))
    b, b_se = laplace_estimate(
        1.0, FIG2.with_(Np=11), mc.SimConfig(n_realizations=50_000, seed=702))
    z = abs(a - b) / math.hypot(a_se, b_se)
    ok = identical and z <= 3.0
    _emit(capsys, 7, ok,
          f"closed form bit-identical over Np x L grid: {identical}; "
          f"empirical Np=1 vs Np=11 |z|={z:.2f}")
    assert ok, f"criterion 7: identical {identical} z {z:.2f}"


def test_criterion_8_worker_determinism(capsys, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        "mode: simulate\n"
        "sim: {n_realizations: 5000, seed: 801}\n"
        "sweep:\n"
        "  parameter: P\n"
        "  values: [\"10 dBm\", \"20 dBm\"]\n")
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        status = cli.main([str(config), "--out", str(out),
                           "--set", f"sim.workers={workers}"])
        assert status == 0
        outputs.append((out / "results.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _emit(capsys, 8, ok,
          f"results.csv byte-identical across 1/2/8 workers: {ok}")
    assert ok


def test_criterion_9_resolution_robustness(capsys):
    # analysis: double every quadrature knob at once
    dense = an.AnalysisConfig(K=2 * CFG.K, gl_order_rate=2 * CFG.gl_order_rate)
    outage_params = FIG2
    outage_shift = abs(an.outage_probability(outage_params, CFG)
                       - an.outage_probability(outage_params, dense))
    rate_params = FIG3.with_(Np=3)
    rate_shift = abs(an.ergodic_rate(rate_params, CFG)
                     - an.ergodic_rate(rate_params, dense))

    # simulation: double the truncation radius under a common seed
    (near, near_se), (far, _) = (
        mc._outage(mc._simulate([outage_params], mc.SimConfig(
            n_realizations=20_000, seed=901, R_sim=radius))[0], outage_params)
        for radius in (5000.0, 10_000.0))
    sim_outage_shift = abs(near - far)
    outage_se = max(near_se,
                    _binomial_se(an.outage_probability(outage_params, CFG), 20_000))

    (near, rate_se), (far, _) = (
        mc._rate(mc._simulate([rate_params], mc.SimConfig(
            n_realizations=5000, seed=902, R_sim=radius))[0], rate_params)
        for radius in (1500.0, 3000.0))
    sim_rate_shift = abs(near - far)

    ok = (outage_shift < 1e-5 and rate_shift < 1e-5
          and sim_outage_shift < outage_se
          and sim_rate_shift < rate_se)
    _emit(capsys, 9, ok,
          f"doubled quadrature: outage shift {outage_shift:.1e}, rate shift "
          f"{rate_shift:.1e} (<1e-5); doubled R_sim: outage shift "
          f"{sim_outage_shift:.1e} vs se {outage_se:.1e}, rate shift "
          f"{sim_rate_shift:.1e} vs se {rate_se:.1e}")
    assert ok, (f"criterion 9: {outage_shift} {rate_shift} "
                f"{sim_outage_shift} {sim_rate_shift}")
