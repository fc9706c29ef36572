"""Monte Carlo ground truth for the pinched-antenna network.

Simulates the full system end to end: Poisson cluster centers on a large
disc about the typical user, one waveguide per cluster with a random
orientation, the served user's nearest preset activated, independent
blockage and Nakagami fading per link, and the resulting SINR of the
typical user against the threshold params.epsilon, with the noise term
params.xi.

Realizations are simulated in fixed blocks of 256, and reproducibility is
structural, not incidental.  Every random number comes from a numpy SFC64
stream seeded by SeedSequence(seed, spawn_key=(bin, lane, block)), the
spawning scheme numpy documents for independent streams: lane 0, bin 0
holds a block's head (user position, serving blockage and serving fading);
lane 1, bin k holds the interferers of every realization in the block
whose arrival time lam pi r^2 lies in [32k, 32k + 32): their Poisson
counts, then five uniform marks and the fading exponentials of each.  A
bin's draws depend only on (seed, bin, block), so a realization's numbers
depend only on (seed, realization index).  Each worker simulates one span
of whole blocks, and the simulator returns every realization's (serving
power, interference) sample in index order; the two reductions, _outage
and _rate, turn those samples into an estimate and its standard error
with elementwise expressions, so estimates are bit-identical whatever the
worker count.  The layout also makes truncation studies meaningful:
enlarging R_sim only adds later bins and keeps more of the last one,
without disturbing the points both discs share, so the estimate shift
measures truncation error rather than resampling noise.

The draw never reads P, sigma2, f_c or Rbar: they enter only through xi
and epsilon, when a reduction turns samples into an estimate.  And of the
other fields only lam shapes the random numbers: the fills, the in-disc
cut, the radii and the mark trigonometry are the same whatever R, L, Np,
H, beta, the path-loss exponents or the fading shapes are (a smaller
shape's exponential rows are a prefix of a larger one's).  So _simulate
takes a group of params sharing lam, draws each bin once, takes one
gain row per distinct fading shape, and works out only the preset choice,
distances, blockage and received powers per member; each member's samples
are the bytes it gets simulated alone.  The command line
simulates consecutive sweep points with the same lam as one group, one
member per distinct _draw_key, and reduces each point's samples at its
own params.

An interferer's two cosines are taken in float32 (_cos_turns), which
moves its distance by rounding, and flips its preset or blockage state
only where a mark lies within that rounding of a boundary; the serving
link keeps float64 trigonometry.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError, _integer, _positive
from .geometry import SystemParams, nearest_preset_offset

__all__ = ["SimConfig"]

# Realizations per block, and expected arrivals per bin of a realization's
# interferer field.  Both fix the layout of the random draws: changing
# either changes every seed's sample.
_BLOCK = 256
_BIN = 32
# spawn-key lane per random role
_LANE_HEAD = 0
_LANE_FIELD = 1
# arrivals per bin a span's work rows hold: 11 standard deviations past the
# mean _BIN * _BLOCK (a bin with more works in a fresh array)
_ROOM = _BIN * _BLOCK * 9 // 8

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    R_sim truncates the interferer field; it must exceed 2R of the params
    in force and keep lam pi R_sim^2 finite, and pinned_d0 must reach H
    (all in _check_run).  workers only shapes execution, never results.
    """

    n_realizations: int = 100_000
    R_sim: float = 5000.0
    seed: int = 12345
    pinned_d0: float | None = None
    workers: int = 1

    def __post_init__(self):
        _integer(self.n_realizations, "n_realizations", 1)
        _positive(self.R_sim, "R_sim")
        _integer(self.seed, "seed", 0)
        if self.pinned_d0 is not None:
            _positive(self.pinned_d0, "pinned_d0")
        _integer(self.workers, "workers", 1)


def _check_run(params: SystemParams, simcfg: SimConfig) -> None:
    if not simcfg.R_sim > 2.0 * params.R:
        raise InvalidParameterError(
            f"R_sim={simcfg.R_sim!r} must exceed 2R={2.0 * params.R!r}")
    if not math.isfinite(params.lam * math.pi * simcfg.R_sim * simcfg.R_sim):
        raise InvalidParameterError(
            f"R_sim={simcfg.R_sim!r} overflows the mean interferer count "
            f"lam pi R_sim^2 at lam={params.lam!r}")
    if simcfg.pinned_d0 is not None and simcfg.pinned_d0 < params.H:
        raise InvalidParameterError(
            f"pinned_d0={simcfg.pinned_d0!r} is below the antenna height {params.H!r}")


def _stream(seed: int, k: int, lane: int, block: int):
    # one independent stream per (bin k, lane, block), spawned from the seed
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(k, lane, block))))


def _cos_turns(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """cos(2 pi u) of the interferer marks u, taken in float32 into out (a
    float32 array shaped like u): float32 cosines cost a fraction of float64
    ones, and their absolute error, below 3e-7, moves a distance by parts
    in 1e7.  Arithmetic with a float64 operand promotes them exactly."""
    np.multiply(u, _TWO_PI, out=out)  # the float64 angle, rounded once
    return np.cos(out, out=out)


def _shapes(group: list[SystemParams]) -> list[int]:
    """The distinct fading shapes of the members of group, ascending."""
    return sorted({n for params in group for n in (params.N_L, params.N_N)})


def _gamma_gains(exps: np.ndarray, shapes: list[int]) -> dict:
    """Gamma(N, 1/N) gain rows for each distinct N in shapes: the mean of
    the first N unit exponentials along axis 0 of exps, summed in place
    down its rows, so row N - 1 ends up holding that mean."""
    for k in range(1, len(exps)):
        exps[k] += exps[k - 1]
    for n in shapes:
        exps[n - 1] /= n
    return {n: exps[n - 1] for n in shapes}


def _received(gains: dict, d2: np.ndarray, los: np.ndarray, params: SystemParams,
              out: np.ndarray | None = None, spare: np.ndarray | None = None) -> np.ndarray:
    """Faded received powers g (1/d2)^(alpha/2) of links at squared distances
    d2 (numpy's power is fast at exponents 1 and 2), into out if given, with
    spare (shaped like d2) to work in.  gains maps each fading shape to the
    links' Gamma gains (_gamma_gains); N and alpha are picked per link by its
    LoS state, and the LoS power is taken at the LoS links alone."""
    inverse = np.divide(1.0, d2, out=spare)
    out = np.power(inverse, params.alpha_N / 2.0, out=out)
    out *= gains[params.N_N]
    at = np.flatnonzero(los)
    out[at] = np.power(inverse[at], params.alpha_L / 2.0) * gains[params.N_L][at]
    return out


def _block_interference(group: list[SystemParams], simcfg: SimConfig,
                        block: int, work: np.ndarray) -> list[np.ndarray]:
    """Interference sums of one block at each member of group, drawn bin by
    bin from lane 1.

    The cluster centres are a stationary PPP, so the disc is centred at
    the typical user: an interferer's distance then needs only its centre
    distance r, the uniform angle psi between its waveguide and the line
    to the user, and its preset offset.  The arrival times lam pi r^2 of
    the disc's points are a unit-rate Poisson process on [0, lam pi R_sim^2]:
    on each bin [_BIN k, _BIN (k + 1)), an independent Poisson count of
    i.i.d. uniform points.  A bin's stream draws the 256 counts, then five
    uniform rows (arrival fraction in the bin, psi, the served user's
    squared radius over R^2 and angle, blockage), then the fading
    exponentials, one column per arrival.  Bins are drawn up to the one
    holding the limit lam pi R_sim^2, whose arrivals past it get zero gain:
    they add exact zeros to their sums, which keep the bytes of a cut.  All
    of that, both cosines and the gain of each fading shape depend on lam
    alone, so each bin is drawn once and only the preset choice, distances,
    blockage and received powers are worked out per member.  work has
    _ROOM columns and a row per draw, then squared distances, powers and
    flags: every bin-sized intermediate lives in views of it.
    """
    lam = group[0].lam
    interference = [np.zeros(_BLOCK) for _ in group]
    if lam == 0.0:
        return interference
    limit = lam * math.pi * simcfg.R_sim * simcfg.R_sim
    shapes = _shapes(group)
    bins = math.ceil(limit / _BIN)
    for k in range(bins):
        rng = _stream(simcfg.seed, k, _LANE_FIELD, block)
        counts = rng.poisson(_BIN, _BLOCK)
        m = int(counts.sum())
        size = len(work) * m
        area = work.reshape(-1)[:size] if m <= _ROOM else np.empty(size)
        draws = area.reshape(len(work), m)
        rng.random(out=draws[:5])
        rng.standard_exponential(out=draws[5:-3])
        gains = _gamma_gains(draws[5:-3], shapes)
        # arrival fractions, psi, cluster-user radius and angle, blockage;
        # the first four become r2, two_r_cos, proj and axial in place
        r2, two_r_cos, proj, axial, u_block = draws[:5]
        d2, power, flags = draws[-3:]
        los = flags.view(bool)[:m]
        np.multiply(r2, _BIN, out=r2)
        r2 += _BIN * k
        if k == bins - 1:
            inside = np.less_equal(r2, limit, out=los)
            for gain in gains.values():
                gain *= inside
        r2 /= lam * math.pi
        rows = np.repeat(np.arange(_BLOCK), counts)
        cos = power.view(np.float32)[:m]  # power's row is free until the members
        psi_cos = _cos_turns(two_r_cos, out=cos)
        np.sqrt(r2, out=two_r_cos)
        two_r_cos *= 2.0
        two_r_cos *= psi_cos
        # a served user's projection onto its waveguide axis, over R; its
        # angle relative to that axis is uniform
        np.sqrt(proj, out=proj)
        proj *= _cos_turns(axial, out=cos)
        for params, total in zip(group, interference):
            # each waveguide activates the preset nearest to its own served
            # user's projection: d^2 = r^2 + axial^2 + 2 r axial cos(psi) + H^2
            nearest_preset_offset(np.multiply(proj, params.R, out=axial),
                                  params.L, params.Np, out=axial)
            np.add(axial, two_r_cos, out=d2)
            np.multiply(axial, d2, out=d2)
            np.add(r2, d2, out=d2)
            d2 += params.H ** 2
            np.sqrt(d2, out=power)
            np.exp(np.multiply(power, -params.beta, out=power), out=power)
            np.less(u_block, power, out=los)
            received = _received(gains, d2, los, params, out=power, spare=axial)
            total += np.bincount(rows, weights=received, minlength=_BLOCK)
    return interference


def _block_samples(group: list[SystemParams], simcfg: SimConfig,
                   block: int, work: np.ndarray) -> list[np.ndarray]:
    """(serving power, interference) rows of block `block` (realizations
    block * _BLOCK ... block * _BLOCK + _BLOCK - 1) at each member of
    group."""
    head = _stream(simcfg.seed, 0, _LANE_HEAD, block)
    # user radius, user angle, serving blockage; serving fading, as many
    # rows as the group's largest shape needs (C order: a smaller shape's
    # rows are a prefix of them)
    u = head.random((3, _BLOCK))
    shapes = _shapes(group)
    gains = _gamma_gains(head.standard_exponential((shapes[-1], _BLOCK)), shapes)
    signals = []
    for params in group:
        if simcfg.pinned_d0 is not None:
            d2 = np.full(_BLOCK, simcfg.pinned_d0 * simcfg.pinned_d0)
        else:
            # typical cluster at the origin, its waveguide along the x
            # axis (rotation invariance of everything else)
            r_u = params.R * np.sqrt(u[0])
            ang = _TWO_PI * u[1]
            ux = r_u * np.cos(ang)
            uy = r_u * np.sin(ang)
            off = nearest_preset_offset(ux, params.L, params.Np)
            d2 = (ux - off) ** 2 + uy * uy + params.H ** 2
        los0 = u[2] < np.exp(-params.beta * np.sqrt(d2))
        signals.append(_received(gains, d2, los0, params))
    return [np.stack(pair) for pair in zip(
        signals, _block_interference(group, simcfg, block, work))]


def _span_samples(group: list[SystemParams], simcfg: SimConfig, lo: int,
                  hi: int) -> list[np.ndarray]:
    """Samples of realizations lo..hi-1 at each member of group, cut from
    the blocks covering them."""
    # one work area, reused by every bin of every block: fresh bin-sized
    # arrays per step let the allocator return their pages to the system
    # and fault them in again on every bin
    work = np.empty((8 + _shapes(group)[-1], _ROOM))
    first = lo // _BLOCK
    blocks = [_block_samples(group, simcfg, b, work)
              for b in range(first, (hi - 1) // _BLOCK + 1)]
    cut = slice(lo - first * _BLOCK, hi - first * _BLOCK)
    return [np.concatenate(member, axis=1)[:, cut] for member in zip(*blocks)]


def _spans(n: int, workers: int) -> list[tuple[int, int]]:
    """One span of whole blocks per worker, so no block is computed twice."""
    step = -(-n // (_BLOCK * workers)) * _BLOCK
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


# SystemParams fields _simulate never reads; the reductions read them
# through params.xi and params.epsilon
_UNDRAWN = frozenset({"P", "sigma2", "f_c", "Rbar"})


def _draw_key(params: SystemParams) -> tuple:
    """The params fields _simulate reads: under one SimConfig, equal keys
    give equal samples."""
    return tuple(getattr(params, f.name) for f in fields(params)
                 if f.name not in _UNDRAWN)


def _simulate(group: list[SystemParams], simcfg: SimConfig) -> list[np.ndarray]:
    """Rows (serving power, interference) of every realization, in index
    order, at each member of group.  The members must share lam: the
    draws are made once and reused by every member, and each member's
    samples are the bytes it would get simulated alone."""
    if any(params.lam != group[0].lam for params in group):
        raise InvalidParameterError(
            f"a simulated group needs one shared lam, got "
            f"{[params.lam for params in group]!r}")
    for params in group:
        _check_run(params, simcfg)
    spans = _spans(simcfg.n_realizations, simcfg.workers)
    if len(spans) == 1:
        return _span_samples(group, simcfg, *spans[0])
    # imported here: a one-span run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    los, his = zip(*spans)
    # the spans fix the bytes; the pool size only how many run at once
    with ProcessPoolExecutor(max_workers=min(len(spans), os.cpu_count() or 1)) as pool:
        parts = list(pool.map(_span_samples, [group] * len(spans),
                              [simcfg] * len(spans), los, his))
    return [np.concatenate(member, axis=1) for member in zip(*parts)]


def _outage(samples: np.ndarray, params: SystemParams) -> tuple[float, float]:
    """(outage estimate, binomial standard error) of samples at params."""
    signal, interference = samples
    values = (signal / (interference + params.xi) < params.epsilon).astype(float)
    p = float(values.mean())
    return p, math.sqrt(p * (1.0 - p) / values.size)


def _rate(samples: np.ndarray, params: SystemParams) -> tuple[float, float]:
    """(ergodic rate estimate, sample standard error) of samples at params."""
    signal, interference = samples
    values = np.log2(1.0 + signal / (interference + params.xi))
    rate = float(values.mean())
    if values.size < 2:
        return rate, 0.0
    return rate, float(values.std(ddof=1) / math.sqrt(values.size))
