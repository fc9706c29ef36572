"""Monte Carlo ground truth for the pinched-antenna network.

Simulates the full system end to end: Poisson cluster centers on a large
disc about the typical user, one waveguide per cluster with a random
orientation, the served user's nearest preset activated, independent
blockage and Nakagami fading per link, and the resulting SINR of the
typical user against the threshold params.epsilon, with the noise term
params.xi.

Realizations are simulated in fixed blocks of 256, and reproducibility is
structural, not incidental.  Every random number is a SplitMix64 output
(Steele, Lea & Flood, OOPSLA 2014) evaluated at a (key, counter) pair, the
counter-based scheme of Salmon et al. (SC'11), in numpy uint64 arithmetic.
Each (bin, lane, block) has one 64-bit key, folded by SplitMix64's
finalizer from the seed's 64-bit limbs (low limb first), then the bin, the
lane and the block; row r of its stream is the outputs at counters
r 2^32 + 1, 2, ...  So no row depends on how many rows or words came
before it.  Lane 0, bin 0 holds a block's head: rows of 256 53-bit
uniforms (user radius, user angle, serving blockage, then the serving
fading exponentials -ln(1 - u)), in float64.  Lane 1, bin k holds the
interferers of every realization in the block whose arrival time
lam pi r^2 lies in [32k, 32k + 32): row 0 gives the 256 Poisson(32)
counts, by inverting 53-bit uniforms through a float64 CDF table, and for
the bin's m arrivals, rows 1 ... 5 + G give ceil(m / 2) words each, whose
32-bit halves (low half first) become 24-bit uniforms, exact in float32:
five marks (arrival fraction in the bin, psi, the served user's squared
radius over R^2 and angle, blockage), then G fading exponentials, G the
group's largest shape.  A realization's numbers thus depend only on
(seed, realization index).  Each worker simulates one range of whole
blocks, and the simulator returns every realization's (serving power,
interference) sample in index order; the two reductions, _outage and
_rate, turn those samples into an estimate and its standard error with
elementwise expressions, so estimates are bit-identical whatever the
worker count.  The layout also makes truncation studies meaningful:
enlarging R_sim only adds later bins and keeps more of the last one,
without disturbing the points both discs share, so the estimate shift
measures truncation error rather than resampling noise.

The draw never reads P, sigma2, f_c or Rbar: they enter only through xi
and epsilon, when a reduction turns samples into an estimate.  No other
field shapes the words either (each exponential row sits at its own
counter): lam sets only how many bins a point reads and the squared
radius t / (lam pi) of an arrival time t.  So _simulate draws each bin
once for a whole group of params, up to its largest limit, and works out
only the radii, preset choice, distances, blockage and received powers
per member; each member's samples are the bytes it gets simulated alone.
The command line simulates a run's points as one group, one member per
distinct _draw_key, and reduces each point's samples at its own params.

The interferer field is worked in float32: arrival times, squared radii,
both cosines, preset offsets, squared distances and the blockage test.
Rounding moves an interferer's distance by parts in 1e7 (more where an
antenna sits near the user), and flips its preset or blockage state only
where a mark lies within that rounding of a boundary.  Received powers
are taken in float64, so no power below float32's range is lost, and each
realization's interference is summed in float64.  The serving link is
float64 throughout.
"""

from __future__ import annotations

import functools
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
# stream-key lane per random role
_LANE_HEAD = 0
_LANE_FIELD = 1
# marks per interferer: arrival fraction, psi, user radius^2, user angle,
# blockage
_MARKS = 5
# arrivals per bin a span's work rows hold: 11 standard deviations past the
# mean _BIN * _BLOCK (a bin with more works in a fresh array)
_ROOM = _BIN * _BLOCK * 9 // 8
# expected arrivals per realization the simulator accepts: 2^15 bins
_MAX_ARRIVALS = 2.0 ** 20
# float32's largest value, less room for the field's rounding
_F32_MAX = float(np.finfo(np.float32).max) * (1.0 - 2.0 ** -16)

# SplitMix64: the golden-ratio increment, the finalizer's multipliers, and
# the counters per stream row
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 2 ** 64 - 1
_ROW = 2 ** 32

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    R_sim truncates the interferer field; it must exceed 2R of the params
    in force and keep lam pi R_sim^2 at most 2^20 expected interferers per
    realization (both in _check_run).  workers only shapes execution, never
    results.
    """

    n_realizations: int = 100_000
    R_sim: float = 5000.0
    seed: int = 12345
    workers: int = 1

    def __post_init__(self):
        for name, minimum in (("n_realizations", 1), ("seed", 0), ("workers", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, minimum))
        _positive(self.R_sim, "R_sim")


def _check_run(params: SystemParams, simcfg: SimConfig) -> None:
    """Refuse a run at params that simcfg's field cannot hold: R_sim within
    the cluster's reach 2R, more than 2^20 expected interferers per
    realization, or a float32 field out of range."""
    R_sim = simcfg.R_sim
    if not R_sim > 2.0 * params.R:
        raise InvalidParameterError(
            f"R_sim={R_sim!r} must exceed 2R={2.0 * params.R!r}")
    arrivals = params.lam * math.pi * R_sim * R_sim
    if not arrivals <= _MAX_ARRIVALS:
        raise InvalidParameterError(
            f"R_sim={R_sim!r} puts lam pi R_sim^2 = {arrivals:.6g} expected "
            f"interferers in a realization at lam={params.lam!r}, past the "
            f"simulator's bound of 2^20")
    if params.lam > 0.0:
        # the float32 field holds lam pi and squared distances up to
        # (r + L/2)^2 + H^2, r the radius of the last drawn bin's last arrival
        # (masked or not); past float32's range its sums turn inf, NaN or 0.
        # A lam pi below that range puts r^2 >= _BIN / (lam pi) past it too
        lam_pi = params.lam * math.pi
        r_far = math.sqrt(_BIN * math.ceil(arrivals / _BIN) / lam_pi)
        reach = r_far + 0.5 * params.L
        d2_far = reach * reach + params.H * params.H  # inf, not OverflowError, past the range
        if not max(lam_pi, d2_far) <= _F32_MAX:
            raise InvalidParameterError(
                f"lam={params.lam!r}, H={params.H!r} put lam pi = {lam_pi:.6g} or squared "
                f"interferer distances up to {d2_far:.6g} past the float32 range of the field")


def _key(seed: int, k: int, lane: int, block: int) -> int:
    """The key of stream (bin k, lane, block): the seed's 64-bit limbs, low
    limb first, then k, lane and block, each folded in by SplitMix64's
    finalizer."""
    limbs = [seed >> shift & _MASK for shift in range(0, max(seed.bit_length(), 1), 64)]
    key = 0
    for value in (*limbs, k, lane, block):
        z = key ^ value
        z = (z ^ (z >> 30)) * _MIX1 & _MASK
        z = (z ^ (z >> 27)) * _MIX2 & _MASK
        key = z ^ (z >> 31)
    return key


def _words(key: int, rows, n: int, out: np.ndarray | None = None,
           spare: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 outputs of stream key at counters r 2^32 + 1 ... r 2^32 + n,
    one row per r in rows: the state key + c gamma through the finalizer.
    Written into out (len(rows) x n uint64) if given, with spare shaped
    like it to work in; uint64 arithmetic wraps modulo 2^64."""
    firsts = np.array([(key + r * _ROW * _GAMMA) & _MASK for r in rows], np.uint64)
    z = np.add(firsts[:, None], np.arange(1, n + 1, dtype=np.uint64) * _GAMMA, out=out)
    for shift, factor in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, shift, out=spare)
        z *= factor
    z ^= np.right_shift(z, 31, out=spare)
    return z


@functools.cache
def _poisson_cdf() -> np.ndarray:
    """CDF of Poisson(_BIN) at 0 ... 127, built by p_k = p_(k-1) _BIN / k.
    Its last entry is exactly 1, so every uniform below 1 maps to a count."""
    pmf = [math.exp(-_BIN)]
    for k in range(1, 128):
        pmf.append(pmf[-1] * _BIN / k)
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    cdf.flags.writeable = False  # one table serves every caller
    return cdf


def _shapes(group: list[SystemParams]) -> list[int]:
    """The distinct fading shapes of the members of group, ascending."""
    return sorted({n for params in group for n in (params.N_L, params.N_N)})


def _gamma_gains(u: np.ndarray, shapes: list[int]) -> dict:
    """Gamma(N, 1/N) gain rows for each distinct N in shapes, from rows of
    uniforms u: in place, their unit exponentials -ln(1 - u), summed down
    the rows and divided, so row N - 1 ends up holding the mean of the
    first N."""
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    for k in range(1, len(u)):
        u[k] += u[k - 1]
    for n in shapes:
        u[n - 1] /= n
    return {n: u[n - 1] for n in shapes}


def _received(gains: dict, d2: np.ndarray, los: np.ndarray, params: SystemParams,
              out: np.ndarray | None = None, spare: np.ndarray | None = None) -> np.ndarray:
    """Faded received powers g (1/d2)^(alpha/2) of links at squared distances
    d2 (numpy's power is fast at exponents 1 and 2), taken in float64
    whatever d2's precision, into out if given, with spare (a float64 row
    shaped like d2) to work in.  gains maps each fading shape to the links'
    Gamma gains (_gamma_gains); N and alpha are picked per link by its LoS
    state, and the LoS power is taken at the LoS links alone."""
    inverse = np.divide(1.0, d2, out=spare, dtype=np.float64)
    out = np.power(inverse, params.alpha_N / 2.0, out=out)
    out *= gains[params.N_N]
    at = np.flatnonzero(los)
    out[at] = np.power(inverse[at], params.alpha_L / 2.0) * gains[params.N_L][at]
    return out


def _rows(area: np.ndarray, rows: int, n: int) -> np.ndarray:
    """A rows x n array in area's memory, or a fresh one where it does not
    fit."""
    size = rows * n
    return (area[:size] if size <= area.size else np.empty(size, area.dtype)).reshape(rows, n)


def _block_interference(group: list[SystemParams], simcfg: SimConfig,
                        block: int, work: dict, out: np.ndarray) -> None:
    """Interference sums of one block at each member of group, drawn bin by
    bin from lane 1 and added into out's zeroed rows, one per member.

    The cluster centres are a stationary PPP, so the disc is centred at
    the typical user: an interferer's distance then needs only its centre
    distance r, the uniform angle psi between its waveguide and the line
    to the user, and its preset offset.  The arrival times t = lam pi r^2
    of the disc's points are a unit-rate Poisson process on
    [0, lam pi R_sim^2]: on each bin [_BIN k, _BIN (k + 1)), an independent
    Poisson count of i.i.d. uniform points.  A bin's stream gives the 256
    counts, then the five mark rows and the fading exponentials, one column
    per arrival (module docstring).  Bins are drawn up to the one holding
    the largest member's limit lam pi R_sim^2, each once, with its arrival
    times, cos psi and each fading shape's gains.  A member reads the bins
    up to the one holding its own limit, whose powers past it (compared in
    float32) it masks to exact zeros, and works out r^2 = t / (lam pi),
    2 r cos psi, the preset choice, distances, blockage and received
    powers, each realization's run of powers summed by one reduceat, all
    in views of work's two areas (_span_samples): the field rows are the
    words' spare until the draws fill them, and the words, dead once drawn,
    leave their rows to the powers.
    """
    limits = [params.lam * math.pi * simcfg.R_sim * simcfg.R_sim for params in group]
    ends = [math.ceil(limit / _BIN) for limit in limits]
    shapes = _shapes(group)
    rows = _MARKS + shapes[-1]
    for k in range(max(ends)):
        key = _key(simcfg.seed, k, _LANE_FIELD, block)
        # row 0's 53-bit uniforms, inverted into the 256 counts
        counts = np.searchsorted(
            _poisson_cdf(), (_words(key, [0], _BLOCK)[0] >> 11) * 2.0 ** -53, side="right")
        m = int(counts.sum())
        half = -(-m // 2)
        words = _words(key, range(1, rows + 1), half, out=_rows(work["words"], rows, half),
                       spare=_rows(work["field"].view(np.uint64), rows, half))
        # 24-bit uniforms (h >> 8) 2^-24 of the first m 32-bit halves h of
        # each row, low half first on any byte order: exact in float32
        halves = words.astype("<u8", copy=False).view("<u4")[:, :m]
        draws = _rows(work["field"], rows + 1, m)
        draws[:rows] = np.right_shift(halves, 8, out=halves)
        draws[:rows] *= 2.0 ** -24
        gains = _gamma_gains(draws[_MARKS:rows], shapes)
        # arrival fractions, psi, cluster-user radius and angle, blockage;
        # the first four become t, 2 cos psi, proj and axial in place
        t, two_cos, proj, axial, u_block = draws[:_MARKS]
        d2 = draws[rows]
        power, spare, flags = _rows(work["words"].view(np.float64), 3, m)
        # a member's r^2 and 2 r cos psi, dead before _received takes spare
        r2, two_r_cos = spare.view(np.float32).reshape(2, m)
        los = flags.view(bool)[:m]
        np.multiply(t, _BIN, out=t)
        t += _BIN * k
        np.cos(np.multiply(two_cos, _TWO_PI, out=two_cos), out=two_cos)
        two_cos *= 2.0
        # a served user's projection onto its waveguide axis, over R; its
        # angle relative to that axis is uniform
        np.sqrt(proj, out=proj)
        proj *= np.cos(np.multiply(axial, _TWO_PI, out=axial), out=axial)
        present = np.flatnonzero(counts)
        starts = (np.cumsum(counts) - counts)[present]
        for params, limit, end, total in zip(group, limits, ends, out):
            if k >= end:
                continue
            np.divide(t, params.lam * math.pi, out=r2)
            np.multiply(np.sqrt(r2, out=two_r_cos), two_cos, out=two_r_cos)
            # each waveguide activates the preset nearest to its own served
            # user's projection: d^2 = r^2 + axial^2 + 2 r axial cos(psi) + H^2
            nearest_preset_offset(np.multiply(proj, params.R, out=axial),
                                  params.L, params.Np, out=axial)
            np.add(axial, two_r_cos, out=d2)
            np.multiply(axial, d2, out=d2)
            np.add(r2, d2, out=d2)
            d2 += params.H ** 2
            np.sqrt(d2, out=axial)
            np.exp(np.multiply(axial, -params.beta, out=axial), out=axial)
            np.less(u_block, axial, out=los)
            received = _received(gains, d2, los, params, out=power, spare=spare)
            if k == end - 1:
                received *= np.less_equal(t, limit, out=los)
            total[present] += np.add.reduceat(received, starts)


def _block_samples(group: list[SystemParams], simcfg: SimConfig,
                   block: int, work: dict, out: np.ndarray) -> None:
    """(serving power, interference) rows of block `block` (realizations
    block * _BLOCK ... block * _BLOCK + _BLOCK - 1) at each member of
    group, written into out (members x 2 x _BLOCK, zeroed).  Each served
    user is drawn uniformly on its cluster's disc of radius R, and its
    serving antenna is the preset nearest to its projection."""
    shapes = _shapes(group)
    # user radius, user angle, serving blockage; serving fading, as many
    # rows as the group's largest shape needs
    u = (_words(_key(simcfg.seed, 0, _LANE_HEAD, block), range(3 + shapes[-1]),
                _BLOCK) >> 11) * 2.0 ** -53
    gains = _gamma_gains(u[3:], shapes)
    for params, rows in zip(group, out):
        # typical cluster at the origin, its waveguide along the x axis
        # (rotation invariance of everything else)
        r_u = params.R * np.sqrt(u[0])
        ang = _TWO_PI * u[1]
        ux = r_u * np.cos(ang)
        uy = r_u * np.sin(ang)
        off = nearest_preset_offset(ux, params.L, params.Np)
        d2 = (ux - off) ** 2 + uy * uy + params.H ** 2
        los0 = u[2] < np.exp(-params.beta * np.sqrt(d2))
        _received(gains, d2, los0, params, out=rows[0])
    _block_interference(group, simcfg, block, work, out[:, 1])


def _span_samples(group: list[SystemParams], simcfg: SimConfig,
                  blocks: range) -> np.ndarray:
    """(serving power, interference) rows of every realization of the
    consecutive blocks `blocks`, one members x 2 x len(blocks) _BLOCK
    array filled in place."""
    # two work areas, reused by every bin of every block: fresh bin-sized
    # arrays per step let the allocator return their pages and fault them in
    # again on every bin.  Rows of words, later the float64 powers, inverse
    # and flags (3 _ROOM fit: rows >= 6), and float32 rows for the marks,
    # exponentials and squared distances, first the words' spare
    rows = _MARKS + _shapes(group)[-1]
    work = {"words": np.empty(rows * (_ROOM // 2 + 1), np.uint64),
            "field": np.empty((rows + 1) * _ROOM, np.float32)}
    samples = np.zeros((len(group), 2, len(blocks) * _BLOCK))
    for i, block in enumerate(blocks):
        _block_samples(group, simcfg, block, work, samples[..., i * _BLOCK:(i + 1) * _BLOCK])
    return samples


def _spans(n: int, workers: int) -> list[range]:
    """The ceil(n / _BLOCK) blocks of n realizations, cut into one range
    of consecutive blocks per worker, so no block is computed twice."""
    blocks = -(-n // _BLOCK)
    step = -(-blocks // workers)
    return [range(lo, min(lo + step, blocks)) for lo in range(0, blocks, step)]


# SystemParams fields _simulate never reads; the reductions read them
# through params.xi and params.epsilon
_UNDRAWN = frozenset({"P", "sigma2", "f_c", "Rbar"})


def _draw_key(params: SystemParams) -> tuple:
    """The params fields _simulate reads: under one SimConfig, equal keys
    give equal samples."""
    return tuple(getattr(params, f.name) for f in fields(params)
                 if f.name not in _UNDRAWN)


def _simulate(group: list[SystemParams], simcfg: SimConfig) -> np.ndarray:
    """Rows (serving power, interference) of every realization, in index
    order, at each member of group: a members x 2 x n view of the spans'
    blocks.  The draws are made once and reused by every member, whatever
    its lam, and each member's samples are the bytes it would get
    simulated alone."""
    for params in group:
        _check_run(params, simcfg)
    spans = _spans(simcfg.n_realizations, simcfg.workers)
    if len(spans) == 1:
        samples = _span_samples(group, simcfg, spans[0])
    else:
        # imported here: a one-span run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # the spans fix the bytes; the pool size only how many run at once,
        # at most one per CPU this process may run on
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=min(len(spans), cpus)) as pool:
            samples = np.concatenate(list(pool.map(
                _span_samples, [group] * len(spans), [simcfg] * len(spans), spans)), axis=2)
    return samples[..., :simcfg.n_realizations]


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
