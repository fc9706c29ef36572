"""Monte Carlo ground truth for the pinched-antenna network.

Simulates the full system end to end: Poisson cluster centers on a large
disc, one waveguide per cluster with a random orientation, the served
user's nearest preset activated, independent blockage and Nakagami fading
per link, and the resulting SINR of the typical user at threshold
2^Rbar - 1.

Reproducibility is structural, not incidental.  Every realization owns
three counter-based random lanes (Philox counter words [0, 0, lane, index]
under one key derived from the seed): lane 0 feeds the radial Poisson
arrivals, lane 1 all uniform marks, lane 2 the fading draws.  Realization
values are materialized into one array and reduced in index order, so the
estimate is bit-identical for any batch size and any worker count.  The
lanes also make truncation studies meaningful: enlarging R_sim extends the
arrival sequence and the mark matrix without disturbing the draws of the
points both discs share, so the estimate shift measures truncation error
rather than resampling noise.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import link_budget, sinr_threshold
from .errors import InvalidParameterError
from .geometry import SystemParams, nearest_preset_offset, ppp_disc_radii

__all__ = [
    "SimConfig",
    "EstimateReport",
    "estimate_outage",
    "estimate_ergodic_rate",
    "estimate_laplace",
]

# Philox counter lane per random role
_LANE_GEOM = 0
_LANE_UNIF = 1
_LANE_GAMMA = 2

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    R_sim truncates the interferer field; it must exceed 2R of the params
    in force (checked at run time, where both are known).  batch_size and
    workers only shape execution, never results.
    """

    n_realizations: int = 100_000
    R_sim: float = 5000.0
    seed: int = 12345
    batch_size: int = 25_000
    pinned_d0: float | None = None
    workers: int = 1

    def __post_init__(self):
        if isinstance(self.n_realizations, bool) or not isinstance(
                self.n_realizations, (int, np.integer)) or self.n_realizations < 1:
            raise InvalidParameterError(
                f"n_realizations must be a positive integer, got {self.n_realizations!r}")
        if not (self.R_sim > 0 and math.isfinite(self.R_sim)):
            raise InvalidParameterError(f"R_sim must be positive, got {self.R_sim!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise InvalidParameterError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if isinstance(self.batch_size, bool) or not isinstance(
                self.batch_size, (int, np.integer)) or self.batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be a positive integer, got {self.batch_size!r}")
        if self.pinned_d0 is not None and not (
                self.pinned_d0 > 0 and math.isfinite(self.pinned_d0)):
            raise InvalidParameterError(
                f"pinned_d0 must be positive when set, got {self.pinned_d0!r}")
        if isinstance(self.workers, bool) or not isinstance(
                self.workers, (int, np.integer)) or self.workers < 1:
            raise InvalidParameterError(
                f"workers must be a positive integer, got {self.workers!r}")


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with its standard error and run provenance."""

    estimate: float
    std_error: float
    n: int
    seed: int
    wall_time: float


def _check_run(params: SystemParams, simcfg: SimConfig) -> None:
    if not simcfg.R_sim > 2.0 * params.R:
        raise InvalidParameterError(
            f"R_sim={simcfg.R_sim!r} must exceed 2R={2.0 * params.R!r}")
    if simcfg.pinned_d0 is not None and simcfg.pinned_d0 < params.H:
        raise InvalidParameterError(
            f"pinned_d0={simcfg.pinned_d0!r} is below the antenna height {params.H!r}")


def _run_one(params: SystemParams, simcfg: SimConfig, geom_rng, unif_rng,
             gamma_rng):
    """One network realization; returns (serving power, interference sum).

    Draw order is part of the reproducibility contract: radial arrivals
    from the geometry lane; then 3 head uniforms (user radius, user angle,
    serving blockage) and an (m, 5) mark matrix (center angle, orientation,
    cluster-user radius, cluster-user angle, blockage) from the uniform
    lane; then the serving fading followed by the interferer fading vector
    from the gamma lane.  Both the arrival sequence and the row-major mark
    matrix extend prefix-stably when R_sim grows.
    """
    radii = ppp_disc_radii(params.lam, simcfg.R_sim, geom_rng)
    m = radii.size
    head = unif_rng.random(3)
    marks = unif_rng.random((m, 5))

    if simcfg.pinned_d0 is not None:
        ux = uy = 0.0
        d0 = simcfg.pinned_d0
    else:
        # typical cluster at the origin, its waveguide along the x axis
        # (rotation invariance of everything else)
        r_u = params.R * math.sqrt(head[0])
        ang = _TWO_PI * head[1]
        ux = r_u * math.cos(ang)
        uy = r_u * math.sin(ang)
        off = float(nearest_preset_offset(ux, params.L, params.Np))
        d0 = math.sqrt((ux - off) ** 2 + uy * uy + params.H ** 2)

    los0 = head[2] < math.exp(-params.beta * d0)
    alpha0, n0 = ((params.alpha_L, params.N_L) if los0
                  else (params.alpha_N, params.N_N))
    g0 = float(gamma_rng.gamma(n0, 1.0 / n0))
    signal = g0 * d0 ** -alpha0

    if m == 0:
        return signal, 0.0

    c_ang = _TWO_PI * marks[:, 0]
    cx = radii * np.cos(c_ang)
    cy = radii * np.sin(c_ang)
    theta = math.pi * marks[:, 1]
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    r_off = params.R * np.sqrt(marks[:, 2])
    a_off = _TWO_PI * marks[:, 3]
    # each interferer's waveguide activates the preset nearest to its own
    # served user, projected onto the waveguide axis
    proj = r_off * (np.cos(a_off) * cos_t + np.sin(a_off) * sin_t)
    axial = nearest_preset_offset(proj, params.L, params.Np)
    dx = cx + axial * cos_t - ux
    dy = cy + axial * sin_t - uy
    d_i = np.sqrt(dx * dx + dy * dy + params.H ** 2)

    los_i = marks[:, 4] < np.exp(-params.beta * d_i)
    alpha_i = np.where(los_i, params.alpha_L, params.alpha_N)
    shape = np.where(los_i, params.N_L, params.N_N).astype(float)
    g_i = gamma_rng.gamma(shape, 1.0 / shape)
    return signal, float(np.sum(g_i * d_i ** -alpha_i))


# ---------------------------------------------------------------------------
# batch engine


def _lane_state(seed: int):
    key = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    bitgens = [np.random.Philox(key=key) for _ in range(3)]
    gens = [np.random.Generator(b) for b in bitgens]
    return key, bitgens, gens


def _reset(bitgen, key, lane: int, index: int) -> None:
    # counter words [0, 0, lane, index]: words 0-1 leave 2^128 blocks of
    # draw headroom per (lane, index), so lanes never collide
    st = bitgen.state
    st["state"]["counter"][:] = (0, 0, lane, index)
    st["state"]["key"][:] = key
    st["buffer_pos"] = 4
    st["has_uint32"] = 0
    st["uinteger"] = 0
    bitgen.state = st


def _chunk_values(params: SystemParams, simcfg: SimConfig, lo: int, hi: int,
                  mode: str, s: float) -> np.ndarray:
    key, bitgens, gens = _lane_state(simcfg.seed)
    xi = link_budget(params).xi
    eps = sinr_threshold(params.Rbar)
    out = np.empty(hi - lo)
    for k, idx in enumerate(range(lo, hi)):
        _reset(bitgens[0], key, _LANE_GEOM, idx)
        _reset(bitgens[1], key, _LANE_UNIF, idx)
        _reset(bitgens[2], key, _LANE_GAMMA, idx)
        signal, interference = _run_one(params, simcfg, gens[0], gens[1], gens[2])
        if mode == "outage":
            out[k] = signal / (interference + xi) < eps
        elif mode == "rate":
            out[k] = math.log2(1.0 + signal / (interference + xi))
        else:
            out[k] = math.exp(-s * interference)
    return out


def _chunk_worker(args):
    return _chunk_values(*args)


def _simulate_values(params: SystemParams, simcfg: SimConfig, mode: str,
                     s: float = 0.0) -> np.ndarray:
    _check_run(params, simcfg)
    n = simcfg.n_realizations
    spans = [(lo, min(lo + simcfg.batch_size, n))
             for lo in range(0, n, simcfg.batch_size)]
    if simcfg.workers == 1 or len(spans) == 1:
        parts = [_chunk_values(params, simcfg, lo, hi, mode, s)
                 for lo, hi in spans]
    else:
        jobs = [(params, simcfg, lo, hi, mode, s) for lo, hi in spans]
        with ProcessPoolExecutor(max_workers=simcfg.workers) as pool:
            parts = list(pool.map(_chunk_worker, jobs))
    # fixed batch boundaries and index-ordered concatenation keep the
    # floating-point reduction identical for every execution shape
    return np.concatenate(parts)


def _sample_std_error(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def estimate_outage(params: SystemParams, simcfg: SimConfig) -> EstimateReport:
    """Empirical P(log2(1 + SINR) < Rbar) with binomial standard error."""
    t0 = time.perf_counter()
    values = _simulate_values(params, simcfg, "outage")
    p = float(values.mean())
    se = math.sqrt(p * (1.0 - p) / values.size)
    return EstimateReport(p, se, values.size, simcfg.seed,
                          time.perf_counter() - t0)


def estimate_ergodic_rate(params: SystemParams, simcfg: SimConfig) -> EstimateReport:
    """Empirical mean of log2(1 + SINR) with sample standard error."""
    t0 = time.perf_counter()
    values = _simulate_values(params, simcfg, "rate")
    return EstimateReport(float(values.mean()), _sample_std_error(values),
                          values.size, simcfg.seed, time.perf_counter() - t0)


def estimate_laplace(s: float, params: SystemParams,
                     simcfg: SimConfig) -> EstimateReport:
    """Empirical E[exp(-s I)] over the interference sum I."""
    if not (s >= 0 and math.isfinite(s)):
        raise InvalidParameterError(f"s must be finite and >= 0, got {s!r}")
    t0 = time.perf_counter()
    values = _simulate_values(params, simcfg, "laplace", s=float(s))
    return EstimateReport(float(values.mean()), _sample_std_error(values),
                          values.size, simcfg.seed, time.perf_counter() - t0)
