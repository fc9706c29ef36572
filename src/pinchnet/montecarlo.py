"""Monte Carlo ground truth for the pinched-antenna network.

Simulates the full system end to end: Poisson cluster centers on a large
disc about the typical user, one waveguide per cluster with a random
orientation, the served user's nearest preset activated, independent
blockage and Nakagami fading per link, and the resulting SINR of the
typical user against the threshold params.epsilon, with the noise term
params.xi.

Realizations are simulated in fixed blocks of 256, and reproducibility is
structural, not incidental.  Every random number comes from a numpy SFC64
stream seeded by SeedSequence(seed, spawn_key=(chunk, lane, block)), the
spawning scheme numpy documents for independent streams: lane 0, chunk 0
holds a block's head (user position, serving blockage and serving fading);
lane 1, chunk c holds interferer columns c*128 to c*128+127 of every
realization in the block (radial arrival increments, four uniform marks,
fading exponentials).  Every draw has a fixed shape, so a realization's
numbers depend only on (seed, realization index).  Each worker simulates
one span of whole blocks, and the simulator returns every realization's
(serving power, interference) sample in index order; the two reductions,
_outage and _rate, turn those samples into an estimate and its standard
error with elementwise expressions, so estimates are bit-identical
whatever the worker count.  The layout also makes
truncation studies meaningful: enlarging R_sim only admits more of the
same arrival columns (drawing further chunks where needed) without
disturbing the points both discs share, so the estimate shift measures
truncation error rather than resampling noise.

The draw never reads P, sigma2, f_c or Rbar: they enter only through xi
and epsilon, when a reduction turns samples into an estimate.  And of the
other fields only lam shapes the random numbers: the fills, the in-disc
cut, the radii and the mark trigonometry are the same whatever R, L, Np,
H, beta, the path-loss exponents or the fading shapes are (a smaller
shape's exponential rows are a prefix of a larger one's).  So _simulate
takes a group of params sharing lam, draws each chunk once, takes one
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

# Realizations per block and interferer columns per chunk.  Both fix the
# layout of the random draws: changing either changes every seed's sample.
_BLOCK = 256
_CHUNK = 128
# spawn-key lane per random role
_LANE_HEAD = 0
_LANE_FIELD = 1
# rows of a chunk's cut (_block_interference), besides one per fading shape
_CUT_ROWS = 8

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    R_sim truncates the interferer field; it must exceed 2R of the params
    in force, and pinned_d0 must reach H (both in _check_run).  workers
    only shapes execution, never results.
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
    if simcfg.pinned_d0 is not None and simcfg.pinned_d0 < params.H:
        raise InvalidParameterError(
            f"pinned_d0={simcfg.pinned_d0!r} is below the antenna height {params.H!r}")


def _stream(seed: int, chunk: int, lane: int, block: int):
    # one independent stream per (chunk, lane, block), spawned from the seed
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(chunk, lane, block))))


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


def _received(gains: dict, d: np.ndarray, los: np.ndarray, params: SystemParams,
              out: np.ndarray | None = None, spare: np.ndarray | None = None) -> np.ndarray:
    """Faded received powers g d^-alpha of links at distances d, into out if
    given, with spare (shaped like d) to work in.  gains maps each fading
    shape to the links' Gamma gains (_gamma_gains); N and alpha are picked
    per link by its LoS state."""
    out = np.power(d, -params.alpha_N, out=out)
    out *= gains[params.N_N]
    # both powers in full, then a masked copy: a masked power runs slower
    # where LoS and NLoS links alternate
    los_power = np.power(d, -params.alpha_L, out=spare)
    los_power *= gains[params.N_L]
    np.copyto(out, los_power, where=los)
    return out


def _block_interference(group: list[SystemParams], simcfg: SimConfig,
                        block: int, buf: np.ndarray, work: tuple) -> list[np.ndarray]:
    """Interference sums of one block at each member of group, drawn chunk
    by chunk from lane 1.

    The cluster centres are a stationary PPP, so the disc is centred at
    the typical user: an interferer's distance then needs only its centre
    distance r, the uniform angle psi between its waveguide and the line
    to the user, and its preset offset.  Sorted squared radii of a disc
    PPP, times lam pi, are the arrival times of a unit-rate Poisson
    process.  Row i of a chunk extends realization i's arrival sequence by
    _CHUNK points; chunks are drawn until every row has passed
    lam pi R_sim^2, and only arrivals inside that limit contribute.  buf
    holds a chunk's arrivals, four marks and fading exponentials.  All of
    that, both cosines and the gain of each fading shape depend on lam
    alone, so each chunk is drawn and cut once and only the preset
    choice, distances, blockage and received powers are worked out per
    member.  work is (one flag per chunk column, space for the cut's
    rows): every chunk-sized intermediate lives in views of it.
    """
    lam = group[0].lam
    interference = [np.zeros(_BLOCK) for _ in group]
    if lam == 0.0:
        return interference
    limit = lam * math.pi * simcfg.R_sim ** 2
    arrivals = buf[0].reshape(_BLOCK, _CHUNK)
    marks = buf[1:5]
    exps = buf[5:]
    shapes = _shapes(group)
    height = _CUT_ROWS + len(shapes)
    inside, space = work
    last = np.zeros(_BLOCK)
    chunk = 0
    while np.any(last <= limit):
        rng = _stream(simcfg.seed, chunk, _LANE_FIELD, block)
        rng.standard_exponential(out=arrivals)
        arrivals[:, 0] += last
        np.cumsum(arrivals, axis=1, out=arrivals)
        last = arrivals[:, -1].copy()
        rng.random(out=marks)
        rng.standard_exponential(out=exps)
        chunk += 1

        np.less_equal(arrivals.ravel(), limit, out=inside)
        idx = np.flatnonzero(inside)
        n = idx.size
        cut = space[:height * n].reshape(height, n)
        r2, rows, two_r_cos, proj, axial, u_block, d, power, *gains = cut
        rows = np.floor_divide(idx, _CHUNK, out=rows.view(np.intp))
        np.take(arrivals, idx, out=r2)
        r2 /= lam * math.pi
        # psi, cluster-user radius and angle, blockage; the first three
        # become two_r_cos, proj and axial in place
        np.take(marks, idx, axis=1, out=cut[2:6])
        gains = {shape: np.take(full, idx, out=g) for g, (shape, full)
                 in zip(gains, _gamma_gains(exps, shapes).items())}
        cos = power.view(np.float32)[:n]  # power's row is free until the members
        psi_cos = _cos_turns(two_r_cos, out=cos)
        np.sqrt(r2, out=two_r_cos)
        two_r_cos *= 2.0
        two_r_cos *= psi_cos
        # a served user's projection onto its waveguide axis, over R; its
        # angle relative to that axis is uniform
        np.sqrt(proj, out=proj)
        proj *= _cos_turns(axial, out=cos)
        los = inside[:n]  # the cut is taken: its flags are free
        for params, total in zip(group, interference):
            # each waveguide activates the preset nearest to its own served
            # user's projection: d^2 = r^2 + axial^2 + 2 r axial cos(psi) + H^2
            nearest_preset_offset(np.multiply(proj, params.R, out=axial),
                                  params.L, params.Np, out=axial)
            np.add(axial, two_r_cos, out=d)
            np.multiply(axial, d, out=d)
            np.add(r2, d, out=d)
            d += params.H ** 2
            np.sqrt(d, out=d)
            np.exp(np.multiply(d, -params.beta, out=power), out=power)
            np.less(u_block, power, out=los)
            received = _received(gains, d, los, params, out=power, spare=axial)
            total += np.bincount(rows, weights=received, minlength=_BLOCK)
    return interference


def _block_samples(group: list[SystemParams], simcfg: SimConfig,
                   block: int, buf: np.ndarray, work: tuple) -> list[np.ndarray]:
    """(serving power, interference) rows of block `block` (realizations
    block * _BLOCK ... block * _BLOCK + _BLOCK - 1) at each member of
    group."""
    head = _stream(simcfg.seed, 0, _LANE_HEAD, block)
    # user radius, user angle, serving blockage; serving fading, as many
    # rows as the group's largest shape needs (C order: a smaller shape's
    # rows are a prefix of them)
    u = head.random((3, _BLOCK))
    gains = _gamma_gains(head.standard_exponential((len(buf) - 5, _BLOCK)),
                         _shapes(group))
    signals = []
    for params in group:
        if simcfg.pinned_d0 is not None:
            d0 = np.full(_BLOCK, simcfg.pinned_d0)
        else:
            # typical cluster at the origin, its waveguide along the x
            # axis (rotation invariance of everything else)
            r_u = params.R * np.sqrt(u[0])
            ang = _TWO_PI * u[1]
            ux = r_u * np.cos(ang)
            uy = r_u * np.sin(ang)
            off = nearest_preset_offset(ux, params.L, params.Np)
            d0 = np.sqrt((ux - off) ** 2 + uy * uy + params.H ** 2)
        los0 = u[2] < np.exp(-params.beta * d0)
        signals.append(_received(gains, d0, los0, params))
    return [np.stack(pair) for pair in zip(
        signals, _block_interference(group, simcfg, block, buf, work))]


def _span_samples(group: list[SystemParams], simcfg: SimConfig, lo: int,
                  hi: int) -> list[np.ndarray]:
    """Samples of realizations lo..hi-1 at each member of group, cut from
    the blocks covering them."""
    # one chunk's draws and the work space of its cut, reused by every
    # block: fresh multi-MB arrays per chunk let the allocator return their
    # pages to the system and fault them in again on every block
    shapes = _shapes(group)
    buf = np.empty((5 + shapes[-1], _BLOCK * _CHUNK))
    work = (np.empty(_BLOCK * _CHUNK, bool),
            np.empty((_CUT_ROWS + len(shapes)) * _BLOCK * _CHUNK))
    first = lo // _BLOCK
    blocks = [_block_samples(group, simcfg, b, buf, work)
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
