"""Monte Carlo engine tests.

Statistical agreement with the closed-form engine is checked here only in
regimes where the outage probability is moderate (so binomial standard
errors are trustworthy at 2e4 realizations).  The heavy cross-validation
runs at the published operating points live in test_acceptance.py.
"""

import concurrent.futures
import contextlib
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from pinchnet import montecarlo as mc
from pinchnet.errors import InvalidParameterError
from pinchnet.geometry import SystemParams
from test_analysis import conditional_outage, outage_probability



def laplace_estimate(s, params, simcfg):
    """(mean, standard error) of exp(-s I) over the simulated interference
    sums I: the empirical Laplace transform of the interference, the
    oracle the closed form is checked against."""
    values = np.exp(-s * mc._simulate([params], simcfg)[0][1])
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def pinned_samples(group, simcfg, d0):
    """_simulate(group, simcfg) with every serving distance pinned at d0:
    each block's serving blockage and fading come from the simulator's own
    head words, taken at d0 in place of the drawn user's distance.  The
    interference rows are the simulator's, which never read the user's
    position (the disc is centred at the typical user)."""
    for params in group:
        assert d0 >= params.H, f"d0={d0!r} is below the antenna height {params.H!r}"
    samples = mc._simulate(group, simcfg)
    shapes = mc._shapes(group)
    d2 = np.full(mc._BLOCK, d0 * d0)
    serving = []
    for block in range(-(-simcfg.n_realizations // mc._BLOCK)):
        key = mc._key(simcfg.seed, 0, mc._LANE_HEAD, block)
        u = (mc._words(key, range(3 + shapes[-1]), mc._BLOCK) >> 11) * 2.0 ** -53
        gains = mc._gamma_gains(u[3:], shapes)
        serving.append([mc._received(gains, d2, u[2] < np.exp(-params.beta * np.sqrt(d2)),
                                     params) for params in group])
    samples[:, 0] = np.concatenate(serving, axis=1)[:, :simcfg.n_realizations]
    return samples


# ---------------------------------------------------------------- config

def test_simconfig_defaults():
    sim = mc.SimConfig()
    assert sim.n_realizations == 100_000
    assert sim.R_sim == 5000.0
    assert sim.seed == 12345
    assert sim.workers == 1


@pytest.mark.parametrize("kwargs", [
    {"n_realizations": 0},
    {"n_realizations": True},
    {"R_sim": 0.0},
    {"R_sim": -5.0},
    {"seed": -1},
    {"seed": 2.5},
    {"R_sim": math.inf},
    {"R_sim": math.nan},
    {"workers": 2.0},
    {"workers": 0},
    {"R_sim": True},
    {"workers": True},
    {"R_sim": "5000 m"},
])
def test_simconfig_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        mc.SimConfig(**kwargs)


def test_region_must_cover_cluster():
    # truncation radius has to dominate the cluster scale
    params = SystemParams(R=3000.0, L=100.0)
    with pytest.raises(InvalidParameterError):
        mc._simulate([params], mc.SimConfig(n_realizations=10))


@pytest.mark.parametrize("lam,R_sim,refused", [
    (1e-6, 1e5, False),  # 31,416 expected arrivals
    (1.0, math.sqrt(2.0**20 / math.pi) * (1.0 - 1e-12), False),
    (1.0, math.sqrt(2.0**20 / math.pi) * (1.0 + 1e-12), True),
    (1e-6, 1e9, True),
], ids=["1e5", "below-2^20", "past-2^20", "1e9"])
def test_simulated_field_is_bounded(lam, R_sim, refused):
    # at most 2^20 expected interferers per realization
    params = SystemParams(lam=lam, R=1.0, L=1.0)
    sim = mc.SimConfig(n_realizations=10, R_sim=R_sim)
    if refused:
        with pytest.raises(InvalidParameterError, match="R_sim="):
            mc._check_run(params, sim)
    else:
        mc._check_run(params, sim)


# float32's largest value, and the lam and H at which the field's largest
# squared distance (_BIN / (lam pi) at one bin, H^2 at any lam) reaches it
_F32 = float(np.finfo(np.float32).max)
_LAM_EDGE = 32.0 / (math.pi * _F32)
_H_EDGE = math.sqrt(_F32)


@pytest.mark.parametrize("params,R_sim,refused", [
    (SystemParams(lam=1e-40, P=1e-6), 5000.0, True),
    (SystemParams(H=1e20), 5000.0, True),
    (SystemParams(lam=1e-320), 5000.0, True),
    (SystemParams(lam=1e39, R=4e-18, L=1e-18), 1e-17, True),  # lam pi
    (SystemParams(lam=0.999 * _LAM_EDGE), 1.0 / math.sqrt(math.pi * _LAM_EDGE), True),
    (SystemParams(lam=1.001 * _LAM_EDGE), 1.0 / math.sqrt(math.pi * _LAM_EDGE), False),
    (SystemParams(H=1.001 * _H_EDGE), 5000.0, True),
    (SystemParams(H=0.999 * _H_EDGE), 5000.0, False),
    (SystemParams(lam=0.0, H=1e20), 5000.0, False),
], ids=["lam-1e-40", "H-1e20", "lam-subnormal", "lam-pi-overflows", "lam-past-edge",
        "lam-inside-edge", "H-past-edge", "H-inside-edge", "no-interferers"])
def test_simulated_field_stays_in_float32_range(params, R_sim, refused):
    # past float32's range the field's sums came out NaN (lam = 1e-40, so
    # the outage read 0 where it is 1) or exactly 0 (H = 1e20); just inside
    # it they are finite, and nonzero where interferers fall in the disc
    sim = mc.SimConfig(n_realizations=2560, seed=1, R_sim=R_sim)
    if refused:
        with pytest.raises(InvalidParameterError, match="float32 range"):
            mc._simulate([params], sim)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        interference = mc._simulate([params], sim)[0][1]
    assert np.all(np.isfinite(interference))
    assert np.any(interference > 0.0) == (params.lam > 0.0)


# ---------------------------------------------------------- determinism

def test_estimates_reproducible():
    params = SystemParams()
    sim = mc.SimConfig(n_realizations=2000, seed=77)
    first = mc._outage(mc._simulate([params], sim)[0], params)
    second = mc._outage(mc._simulate([params], sim)[0], params)
    assert first == second


def test_batch_size_invariance():
    # the samples of n realizations are the same whatever runs of whole
    # blocks they are cut into: one block, two, and all but the last of 8
    params = SystemParams()
    sim = mc.SimConfig(n_realizations=2000, seed=5)
    ref = mc._simulate([params], sim)
    for batch in (1, 2, 7):
        got = np.concatenate([
            mc._span_samples([params], sim, range(lo, min(lo + batch, 8)))
            for lo in range(0, 8, batch)], axis=2)
        assert got[..., :2000].tobytes() == ref.tobytes()


def test_worker_count_invariance():
    params = SystemParams()
    ref = mc._simulate([params], mc.SimConfig(n_realizations=2000, seed=9))[0]
    par = mc._simulate([params], mc.SimConfig(n_realizations=2000, seed=9, workers=3))[0]
    assert np.array_equal(ref, par)


def test_worker_count_invariance_reports():
    params = SystemParams()
    a = mc._outage(
        mc._simulate([params], mc.SimConfig(n_realizations=2000, seed=41))[0], params)
    b = mc._outage(mc._simulate(
        [params], mc.SimConfig(n_realizations=2000, seed=41, workers=4))[0], params)
    assert a == b


def test_values_identical_across_block_cuts():
    # 256-realization blocks: a cut at either inner edge of three blocks,
    # and a worker count past the block count, all give the same samples
    params = SystemParams()
    sim = mc.SimConfig(n_realizations=600, seed=5)
    ref = mc._span_samples([params], sim, range(3))
    for cut in (1, 2):
        got = np.concatenate([mc._span_samples([params], sim, range(cut)),
                              mc._span_samples([params], sim, range(cut, 3))], axis=2)
        assert got.tobytes() == ref.tobytes()
    par = mc._simulate([params], mc.SimConfig(n_realizations=600, seed=5, workers=8))
    assert par.tobytes() == ref[..., :600].tobytes()


# the rate figure's group: its members differ in Np alone
_RATE_GROUP = [SystemParams(lam=1e-5, R=100.0, L=100.0, H=4.0, alpha_N=4.0, beta=0.01,
                            Np=n) for n in (1, 3, 11)]


@pytest.mark.parametrize("group,R_sim", [([SystemParams()], 5000.0), (_RATE_GROUP, 3000.0)],
                         ids=["outage", "rate-group"])
def test_bins_past_the_work_room_keep_their_bytes(monkeypatch, group, R_sim):
    # a bin with more arrivals than a span's work rows hold works in a
    # fresh array: with room for the mean count m = 8192 alone, about half
    # the bins do, and every sample keeps its bytes.  Each role checks its
    # own room (8 rows here): the draws fall back past m = 8192, the words
    # past 8194 while the powers still take the words' area, and the spare
    # in the field rows only past 9216, 11 standard deviations out
    sim = mc.SimConfig(n_realizations=600, R_sim=R_sim, seed=5)
    ref = mc._simulate(group, sim)
    monkeypatch.setattr(mc, "_ROOM", mc._BIN * mc._BLOCK)
    assert mc._simulate(group, sim).tobytes() == ref.tobytes()


def test_span_work_memory():
    # a span's two work areas take 0.63 MB at the default geometry (8 rows):
    # the words' rows, which hold the powers once the draws are made, and
    # the float32 field rows, which work as the words' spare before.  One
    # warm one-block span peaks at about 0.73 MB of traced allocations,
    # against 1.25 MB with a spare and a powers area of their own
    params = SystemParams()
    sim = mc.SimConfig(n_realizations=mc._BLOCK)
    mc._span_samples([params], sim, range(1))  # the cached count table
    tracemalloc.start()
    try:
        mc._span_samples([params], sim, range(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9e6


@contextlib.contextmanager
def _serial_pool():
    """Replace the process pool by one that runs the spans in turn in this
    process; yields the list of pool sizes asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    with pytest.MonkeyPatch.context() as patch:
        # _simulate imports the pool from concurrent.futures when it needs one
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        yield sizes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 1500), workers=st.integers(1, 8))
def test_span_cuts_concatenate_bytewise(n, workers):
    # the worker plan's spans partition the ceil(n / 256) blocks, and their
    # samples, joined, are one span's bytes.  R_sim = 1000 keeps about
    # three interferers per realization
    blocks = range(-(-n // mc._BLOCK))
    spans = mc._spans(n, workers)
    assert len(spans) <= workers and all(spans)
    assert [block for span in spans for block in span] == list(blocks)
    params = SystemParams()
    sim = mc.SimConfig(n_realizations=n, seed=3, R_sim=1000.0, workers=workers)
    whole = mc._span_samples([params], sim, blocks)
    with _serial_pool():
        parts = mc._simulate([params], sim)
    assert parts.shape == (1, 2, n)
    assert parts.tobytes() == whole[..., :n].tobytes()


@pytest.mark.parametrize("n,workers,blocks", [(600, 8, 3), (60_000, 1, 235)],
                         ids=["batch1", "default-batch"])
def test_spans_compute_each_block_once(monkeypatch, n, workers, blocks):
    # the worker plan partitions the ceil(n / 256) blocks into ranges, each
    # block computed once, whether each worker's range is one block (more
    # workers than blocks) or the whole run (one worker; lam = 0 keeps the
    # 235 blocks cheap)
    calls = []
    block_samples = mc._block_samples

    def counted(*args):
        calls.append(args[2])
        return block_samples(*args)

    monkeypatch.setattr(mc, "_block_samples", counted)
    spans = mc._spans(n, workers)
    assert len(spans) <= workers and all(spans)
    assert [block for span in spans for block in span] == list(range(blocks))
    sim = mc.SimConfig(n_realizations=n, seed=5)
    for span in spans:
        mc._span_samples([SystemParams(lam=0.0)], sim, span)
    assert sorted(calls) == list(range(blocks))


def test_values_nest_in_sample_size():
    params = SystemParams()
    short = mc._simulate([params], mc.SimConfig(n_realizations=300, seed=12))[0]
    long = mc._simulate([params], mc.SimConfig(n_realizations=1000, seed=12))[0]
    assert short.tobytes() == long[:, :300].tobytes()


def _counts(key):
    """The 256 Poisson(32) counts of field stream key, rebuilt from the
    documented layout: row 0's 53-bit uniforms (w >> 11) 2^-53, inverted
    through the CDF table."""
    u = (mc._words(key, [0], mc._BLOCK)[0] >> 11) * 2.0 ** -53
    return np.searchsorted(mc._poisson_cdf(), u, side="right")


def _uniforms(key, rows, m):
    """The 24-bit uniforms (h >> 8) 2^-24 of the first m 32-bit halves h of
    each of rows of stream key, low half first, as float64 (exact)."""
    words = mc._words(key, rows, -(-m // 2)).astype("<u8").view("<u4")[:, :m]
    return (words >> 8) * 2.0 ** -24


def _arrival_times(seed, block, bins):
    """(realization row, arrival time lam pi r^2) of every interferer that
    bins 0 .. bins - 1 of a block draw, rebuilt from the documented layout:
    row 0 of each bin's stream gives the 256 counts, and row 1 the arrival
    fractions in the bin, worked in float32."""
    rows, times = [], []
    for k in range(bins):
        key = mc._key(seed, k, mc._LANE_FIELD, block)
        counts = _counts(key)
        fractions = _uniforms(key, [1], int(counts.sum()))[0].astype(np.float32)
        rows.append(np.repeat(np.arange(mc._BLOCK), counts))
        times.append(fractions * np.float32(mc._BIN) + np.float32(mc._BIN * k))
    return np.concatenate(rows), np.concatenate(times)


def test_larger_truncation_only_admits_more_arrivals():
    # enlarging R_sim admits more arrivals of the same bins: the serving
    # rows keep their bytes, no interference sum falls, and a realization
    # with no arrival between the two radii keeps its interference bytes.
    # The first pair's limits lam pi R_sim^2 (3.1 and 3.8) lie in bin 0;
    # the second's (31.6 and 32.4) straddle its edge at 32, so the far disc
    # keeps all of bin 0 and draws bin 1
    params = SystemParams()
    for radii in ((1000.0, 1100.0), (3170.0, 3210.0)):
        near, far = (mc._simulate([params], mc.SimConfig(
            n_realizations=1024, seed=17, R_sim=r_sim))[0] for r_sim in radii)
        assert near[0].tobytes() == far[0].tobytes()
        lo, hi = (params.lam * math.pi * r_sim * r_sim for r_sim in radii)
        between = np.zeros(4 * mc._BLOCK, bool)
        for block in range(4):
            rows, times = _arrival_times(17, block, math.ceil(hi / mc._BIN))
            between[block * mc._BLOCK + rows[(times > lo) & (times <= hi)]] = True
        assert 0.3 < np.mean(between) < 0.7
        assert np.all(far[1] >= near[1])
        assert np.all(far[1][between] > near[1][between])
        assert far[1][~between].tobytes() == near[1][~between].tobytes()


@pytest.mark.parametrize("limit", [20.0, 32.0, 283.0])
def test_arrival_counts_are_poisson(monkeypatch, limit):
    # with received power 1 at every link of nonzero gain (the last bin's
    # arrivals past the limit have zero gain), a realization's interference
    # sum counts its arrivals inside lam pi R_sim^2: a Poisson count of that
    # mean, so its dispersion index var/mean is 1.  The limits cut bin 0,
    # end exactly on its edge (R_sim = 2^12 keeps lam pi R_sim^2 exact) and
    # cut bin 8 as at the rate figure geometry; 96 blocks put the standard
    # error of the dispersion index, sqrt((2 + 1/mean)/n), below 1 %
    monkeypatch.setattr(mc, "_received", lambda gains, d2, los, params, **kw:
                        (gains[params.N_N] > 0.0).astype(float))
    r_sim = 4096.0
    params = SystemParams(lam=limit / (math.pi * r_sim * r_sim))
    assert params.lam * math.pi * r_sim * r_sim == limit
    n = 96 * mc._BLOCK
    counts = mc._simulate([params], mc.SimConfig(
        n_realizations=n, seed=29, R_sim=r_sim))[0][1]
    assert np.array_equal(counts, np.round(counts))
    mean, dispersion = counts.mean(), counts.var(ddof=1) / counts.mean()
    assert abs(mean - limit) <= 4.0 * math.sqrt(limit / n)
    assert abs(dispersion - 1.0) <= 4.0 * math.sqrt((2.0 + 1.0 / limit) / n)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the page-fault budget is measured under glibc malloc")
def test_simulation_reuses_its_work_space():
    # A fresh process, because glibc's mmap and trim thresholds start low
    # there and rise only after a large free: a chunk's multi-MB
    # temporaries would go back to the kernel and be faulted in again on
    # every chunk, which a warm process like this test run would hide.
    # 10^4 realizations at the outage geometry fault in about 290 pages
    # (version 0.7.0) when the loop works in views of its span's arrays,
    # and 3.0e4 with fresh arrays per step (version 0.4.0)
    code = textwrap.dedent("""
        import resource
        from pinchnet import montecarlo as mc
        from pinchnet.geometry import SystemParams

        sim = mc.SimConfig(n_realizations=10_000, R_sim=5000.0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        mc._simulate([SystemParams()], sim)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = Path(mc.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert int(proc.stdout) < 10_000


@pytest.mark.parametrize("mode", ["simulate", "compare", "rate"])
def test_simulating_runs_never_load_numpy_random(tmp_path, mode):
    # the draws are SplitMix64 words in plain uint64 arithmetic: a fresh
    # process runs the simulator without importing numpy.random
    config = tmp_path / "config.yaml"
    config.write_text(f"mode: {mode}\nsim: {{n_realizations: 300, R_sim: 1000.0}}\n")
    code = textwrap.dedent(f"""
        import sys
        from pinchnet import cli
        status = cli.main([{str(config)!r}, "--out", {str(tmp_path)!r}])
        print(status, "numpy.random" in sys.modules)
    """)
    src = Path(mc.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.split()[-2:] == ["0", "False"]
    assert (tmp_path / "results.csv").exists()


def test_seeds_past_64_bits_simulate_apart():
    # SeedSequence takes any nonnegative integer as entropy
    params = SystemParams()
    big = mc._simulate([params], mc.SimConfig(n_realizations=300, seed=2**70))[0]
    nxt = mc._simulate([params], mc.SimConfig(n_realizations=300, seed=2**70 + 1))[0]
    assert np.all(np.isfinite(big))
    assert not np.array_equal(big[0], nxt[0])
    assert not np.array_equal(big[1], nxt[1])


def test_numpy_integer_fields_are_stored_as_int():
    # a numpy integer passes the integer check, and SimConfig keeps the int
    # it checked, so the seed's limbs and the run's sizes are Python ints
    sim = mc.SimConfig(n_realizations=np.int64(300), seed=np.int64(5),
                       workers=np.int64(1))
    params = SystemParams()
    np.testing.assert_array_equal(
        mc._simulate([params], sim)[0],
        mc._simulate([params], mc.SimConfig(n_realizations=300, seed=5))[0])
    assert all(type(getattr(sim, name)) is int
               for name in ("n_realizations", "seed", "workers"))


def test_lanes_bins_and_rows_give_different_words():
    # every (seed, bin, lane, block) has its own key, seeds past 2^64
    # included, and every row of a stream its own counters: no two of
    # these rows share a word
    keys = {mc._key(seed, k, lane, block) for seed in (5, 2**64 + 5, 2**64)
            for k in (0, 1) for lane in (mc._LANE_HEAD, mc._LANE_FIELD)
            for block in (3, 4)}
    assert len(keys) == 24
    words = np.concatenate([mc._words(key, range(4), 8).ravel() for key in keys])
    assert np.unique(words).size == words.size == 24 * 4 * 8


def _splitmix64(state):
    """SplitMix64's output at a state, in Python integers: the oracle."""
    z = state & (2**64 - 1)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & (2**64 - 1)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & (2**64 - 1)
    return z ^ (z >> 31)


def test_words_are_splitmix64_at_their_counters():
    # the published outputs of SplitMix64 from state 0, and row r of a
    # stream at counters r 2^32 + 1, 2, ...: whatever other rows or how many
    # words are drawn beside it
    assert mc._words(0, [0], 3)[0].tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    gamma = 0x9E3779B97F4A7C15
    key = mc._key(2**70 + 3, 7, mc._LANE_FIELD, 11)
    got = mc._words(key, [1, 3, 5], 6)
    want = [[_splitmix64(key + (r * 2**32 + j) * gamma) for j in range(1, 7)]
            for r in (1, 3, 5)]
    assert got.tolist() == want
    assert mc._words(key, [3], 2).tobytes() == got[1, :2].tobytes()


def test_bin_counts_are_poisson():
    # the count table is the Poisson(32) CDF, and 400 streams' counts
    # (102,400) fit its pmf: a chi-square test over cells of expected
    # count >= 50, the tails pooled
    cdf = mc._poisson_cdf()
    assert cdf[-1] == 1.0
    assert np.allclose(cdf[:-1], stats.poisson.cdf(np.arange(127), mc._BIN),
                       rtol=1e-12, atol=0.0)
    counts = np.concatenate([_counts(mc._key(11, k, mc._LANE_FIELD, block))
                             for k in range(20) for block in range(20)])
    assert counts.size >= 100_000
    edges = np.arange(16, 50)  # cells <= 16, 17, ..., 48, >= 49
    observed = np.bincount(np.clip(counts, 16, 49) - 16)
    pmf = np.diff(np.concatenate([[0.0], stats.poisson.cdf(edges[:-1], mc._BIN), [1.0]]))
    expected = counts.size * pmf
    assert expected.min() >= 50
    _, p = stats.chisquare(observed, expected)
    assert p > 1e-3


def test_float32_exponentials_are_unit_exponential():
    # the fading rows of 40 bins (1.2e6 values) through _gamma_gains at
    # shape 1: float32 unit exponentials, with mean and variance 1 within 4
    # standard errors (the variance's is sqrt(8 / n)) and no value past
    # -ln(2^-24) = 24 ln 2, the largest u = 1 - 2^-24 gives
    n = 100_000
    rows = [mc._gamma_gains(_uniforms(mc._key(3, k, mc._LANE_FIELD, 0), [r], n)
                            .astype(np.float32), [1])[1]
            for k in range(40) for r in (6, 7, 8)]
    assert all(row.dtype == np.float32 for row in rows)
    x = np.concatenate(rows).astype(np.float64)
    assert abs(x.mean() - 1.0) <= 4.0 / math.sqrt(x.size)
    assert abs(x.var() - 1.0) <= 4.0 * math.sqrt(8.0 / x.size)
    top = mc._gamma_gains(np.float32([[1.0 - 2.0 ** -24]]), [1])[1][0]
    assert abs(top - 24.0 * math.log(2.0)) <= 1e-6 * top
    assert x.min() >= 0.0 and x.max() <= top


@pytest.mark.parametrize("alpha_L,alpha_N", [
    (2.0, 2.0), (2.0, 2.5), (2.0, 3.0), (2.5, 4.0), (3.0, 4.0), (4.0, 4.0)])
def test_received_matches_plain_path_loss(alpha_L, alpha_N):
    # g (1/d^2)^(alpha/2) against the plain float64 g d^-alpha picked by
    # np.where, with mixed, all-LoS and no-LoS links.  The distances are
    # float32 values, so d^2 is exact and both sides see one distance.
    # Each side rounds a few times (the reciprocal, the power and the gain;
    # the power and the gain): 8 units of 2^-53 bound the gap for
    # alpha <= 4, where 5 units were the most seen over 2e5 links
    rng = np.random.default_rng(3)
    n = 100_000
    d = np.exp(rng.uniform(math.log(3.0), math.log(1e4), n)).astype(np.float32)
    d = d.astype(np.float64)
    gains = {3: rng.gamma(3.0, 1.0 / 3.0, n), 2: rng.gamma(2.0, 0.5, n)}
    params = SystemParams(alpha_L=alpha_L, alpha_N=alpha_N)
    for los in (rng.random(n) < 0.5, np.ones(n, bool), np.zeros(n, bool)):
        got = mc._received(gains, d * d, los, params)
        want = np.where(los, gains[3] * d ** -alpha_L, gains[2] * d ** -alpha_N)
        assert np.max(np.abs(got - want) / want) <= 8.0 * 2.0 ** -53
        # the loop's form, into its work rows, gives the same bytes
        into = mc._received(gains, d * d, los, params, out=np.empty(n), spare=np.empty(n))
        assert into.tobytes() == got.tobytes()


def test_received_takes_float32_distances_in_float64():
    # the interferer field's squared distances are float32; its powers are
    # float64, the bytes of the float64 cast, and a power below float32's
    # range (1e-48 here) is kept
    rng = np.random.default_rng(4)
    n = 1000
    d2 = np.exp(rng.uniform(math.log(9.0), math.log(1e8), n)).astype(np.float32)
    gains = {3: rng.gamma(3.0, 1.0 / 3.0, n).astype(np.float32),
             2: rng.gamma(2.0, 0.5, n).astype(np.float32)}
    los = rng.random(n) < 0.5
    params = SystemParams(alpha_L=2.0, alpha_N=12.0)
    got = mc._received(gains, d2, los, params, out=np.empty(n), spare=np.empty(n))
    assert got.dtype == np.float64
    assert got.tobytes() == mc._received(gains, d2.astype(np.float64), los,
                                         params).tobytes()
    far = mc._received({3: np.ones(1), 2: np.ones(1)}, np.float32([1e8]),
                       np.zeros(1, bool), params)
    assert far[0] == pytest.approx(1e-48, rel=1e-6)


# --------------------------------------------------- float32 field

# the README figure geometries: 2e4 realizations give about 1.6e6 and
# 5.7e6 interferers
_FIELD_GEOMETRIES = {
    "outage": (SystemParams(), 5000.0),
    "rate": (SystemParams(alpha_N=4.0, lam=1e-5, R=100.0, L=100.0, H=4.0,
                            P=1.0, Np=3), 3000.0),
}


def _float64_interference(params, sim):
    """Interference sums of sim's realizations at params, recomputed in
    float64 from the simulator's own words: the same counts and 24-bit
    uniforms, with float64 exponentials, arrival times, trigonometry,
    preset choice, distances, blockage test and powers, summed by
    bincount."""
    limit = params.lam * math.pi * sim.R_sim * sim.R_sim
    rows = 5 + max(params.N_L, params.N_N)
    delta = params.L / max(params.Np - 1, 1)
    half = (params.Np - 1) // 2
    blocks = []
    for block in range(-(-sim.n_realizations // mc._BLOCK)):
        total = np.zeros(mc._BLOCK)
        for k in range(math.ceil(limit / mc._BIN)):
            key = mc._key(sim.seed, k, mc._LANE_FIELD, block)
            counts = _counts(key)
            u = _uniforms(key, range(1, rows + 1), int(counts.sum()))
            t = mc._BIN * (k + u[0])
            means = np.cumsum(-np.log(1.0 - u[5:]), axis=0)
            gain = {n: means[n - 1] / n * (t <= limit) for n in (params.N_L, params.N_N)}
            r = np.sqrt(t / (params.lam * math.pi))
            proj = params.R * np.sqrt(u[2]) * np.cos(2.0 * math.pi * u[3])
            a = delta * np.clip(np.ceil(proj / delta - 0.5), -half, half)
            d = np.sqrt(r * r + a * a + 2.0 * r * a * np.cos(2.0 * math.pi * u[1])
                        + params.H ** 2)
            los = u[4] < np.exp(-params.beta * d)
            power = np.where(los, gain[params.N_L] * d ** -params.alpha_L,
                             gain[params.N_N] * d ** -params.alpha_N)
            total += np.bincount(np.repeat(np.arange(mc._BLOCK), counts),
                                 weights=power, minlength=mc._BLOCK)
        blocks.append(total)
    return np.concatenate(blocks)[:sim.n_realizations]


@pytest.mark.parametrize("geometry,rounding,largest", [
    ("outage", 1e-6, 1e-6), ("rate", 3e-5, 2e-3)], ids=["outage", "rate"])
def test_float32_field_moves_samples_by_rounding(geometry, rounding, largest):
    # against the float64 twin of the same words: an interference sum moves
    # by float32 rounding (parts in 1e7, amplified where an antenna sits
    # near the user): measured at most 3.1e-7 at the outage geometry and
    # 2.3e-5 at the rate geometry, with a 99.9th percentile of 2.0e-7 and
    # 2.6e-6.  A mark within rounding of a preset-choice, blockage or limit
    # boundary flips an interferer and may move its sample further; none
    # did here, and one sample is allowed.  No estimate moves by 0.01 SE
    # (measured at most 1.8e-7 SE)
    params, R_sim = _FIELD_GEOMETRIES[geometry]
    sim = mc.SimConfig(n_realizations=20_000, R_sim=R_sim, seed=6229)
    fast = mc._simulate([params], sim)[0]
    exact = np.stack([fast[0], _float64_interference(params, sim)])
    # the twin is not the simulator by another name: float32 moves samples
    assert np.any(fast[1] != exact[1])
    rel = np.abs(fast[1] - exact[1]) / np.where(exact[1] > 0.0, exact[1], 1.0)
    assert rel.max() <= largest
    assert np.count_nonzero(rel > rounding) <= 1
    for reduce in (mc._outage, mc._rate):
        (got, _), (want, se) = reduce(fast, params), reduce(exact, params)
        assert abs(got - want) <= 0.01 * se


# one changed value per SystemParams field; the simulator reads every
# field but the first four, which enter only through xi and epsilon
_FIELD_CHANGES = {"P": 1.0, "sigma2": 1e-10, "f_c": 3.5e9, "Rbar": 3.0,
                  "lam": 2e-6, "R": 25.0, "L": 12.0, "Np": 13, "H": 4.0,
                  "beta": 0.02, "alpha_L": 2.5, "alpha_N": 3.5, "N_L": 4,
                  "N_N": 3}


@pytest.mark.parametrize("field", [f.name for f in fields(SystemParams)])
def test_draw_key_matches_sample_bytes(field):
    # the key stays put exactly when the samples keep their bytes, and both
    # stay put only for the four fields: a simulator that starts reading a
    # new field, or a new field with no entry above, fails here
    params = SystemParams()
    sim = mc.SimConfig(n_realizations=300, seed=6)
    changed = params.with_(**{field: _FIELD_CHANGES[field]})
    same_bytes = (mc._simulate([changed], sim)[0].tobytes()
                  == mc._simulate([params], sim)[0].tobytes())
    same_key = mc._draw_key(changed) == mc._draw_key(params)
    assert same_bytes == same_key == (field in ("P", "sigma2", "f_c", "Rbar"))


# one group per field, its members differing in that field alone; the
# N_L and N_N groups mix fading shapes, and so exponential row counts, the
# lam values mix bin counts (none at lam = 0), and the Np values are the
# rate figure's
_GROUP_VALUES = {"N_L": (1, 3, 8), "N_N": (1, 2, 6), "H": (2.0, 4.0, 8.0),
                 "R": (10.0, 20.0, 400.0), "beta": (0.0, 0.01, 0.2),
                 "alpha_N": (2.5, 3.0, 4.5), "Np": (1, 3, 11),
                 "lam": (0.0, 1e-6, 4e-6)}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("pinned_d0", [None, 10.0])
@pytest.mark.parametrize("field", sorted(_GROUP_VALUES))
def test_group_samples_equal_one_point_samples(field, pinned_d0, workers):
    # a group draws once and works out every member on the same draws;
    # each member's samples keep the bytes of a one-point simulation, and
    # so do the pinned serving rows the conditional checks draw from them
    params = SystemParams()
    sim = mc.SimConfig(n_realizations=600, seed=14, workers=workers)
    simulate = (mc._simulate if pinned_d0 is None
                else lambda group, sim: pinned_samples(group, sim, pinned_d0))
    group = [params.with_(**{field: value}) for value in _GROUP_VALUES[field]]
    for member, samples in zip(group, simulate(group, sim), strict=True):
        assert samples.tobytes() == simulate([member], sim)[0].tobytes()


def test_interference_ignores_user_position(monkeypatch):
    # the truncation disc is centred at the typical user, so redrawing the
    # user (its head words from another lane) moves the serving power but
    # not one interference byte: what lets pinned_samples keep the
    # simulator's interference rows
    params = SystemParams()
    sim = mc.SimConfig(n_realizations=600, seed=15)
    signal, interference = mc._simulate([params], sim)[0]
    monkeypatch.setattr(mc, "_LANE_HEAD", 2)
    moved_signal, moved_interference = mc._simulate([params], sim)[0]
    assert moved_interference.tobytes() == interference.tobytes()
    assert not np.any(moved_signal == signal)


def test_pool_capped_at_cpu_count(monkeypatch):
    # workers sets the spans, and so the bytes; the pool never outgrows
    # the CPUs this process may run on, which an affinity mask can make
    # fewer than the machine's.  The pool is replaced by one that runs
    # spans in turn
    params = SystemParams()
    n = 256 * (os.cpu_count() + 2)
    wide = mc.SimConfig(n_realizations=n, seed=8, R_sim=1000.0, workers=5000)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    with _serial_pool() as sizes:
        samples = mc._simulate([params], wide)[0]
    assert len(mc._spans(n, wide.workers)) > os.cpu_count()
    assert sizes == [cpus]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with _serial_pool() as sizes:
        one_cpu = mc._simulate([params], wide)[0]
    assert sizes == [1]
    ref = mc._simulate([params], replace(wide, workers=1))[0]
    assert samples.tobytes() == one_cpu.tobytes() == ref.tobytes()


# ------------------------------------------------------------- trivials

def test_zero_threshold_never_outage():
    params = SystemParams(Rbar=0.0)
    samples = mc._simulate([params], mc.SimConfig(n_realizations=500, seed=2))[0]
    assert mc._outage(samples, params) == (0.0, 0.0)


def test_outage_flag_matches_sinr():
    # same seed, same samples: each outage flag is the rate sample falling
    # short of Rbar, i.e. SINR below 2^Rbar - 1, and both estimates are
    # the means of their flags and rate samples
    params = SystemParams(Rbar=4.0)
    sim = mc.SimConfig(n_realizations=500, seed=8)
    samples = mc._simulate([params], sim)[0]
    signal, interference = samples
    threshold = 2.0 ** params.Rbar - 1.0
    sinr = signal / (interference + params.xi)
    outage = sinr < threshold
    rate = np.log2(1.0 + sinr)
    assert 0 < outage.sum() < outage.size
    assert np.array_equal(outage, 2.0 ** rate - 1.0 < threshold)
    assert mc._outage(samples, params)[0] == outage.mean()
    assert mc._rate(samples, params)[0] == rate.mean()


def test_no_clusters_means_no_interference():
    # every realization's interference sum is exactly zero; the signal is not
    params = SystemParams(lam=0.0)
    signal, interference = mc._simulate([params], mc.SimConfig(n_realizations=600, seed=4))[0]
    assert np.all(interference == 0.0)
    assert np.all(signal > 0.0)


def _pinned_rate_oracle(params, alpha, shape, seed):
    """(simulated, oracle, SE) of the rate at pinned d0 = 5 without
    interferers: E[log2(1 + G d0^-alpha / xi)] with G ~ Gamma(shape, 1/shape)."""
    d0 = 5.0
    snr = d0 ** (-alpha) / params.xi
    gain = stats.gamma(shape, scale=1.0 / shape)
    want = integrate.quad(lambda g: math.log2(1.0 + g * snr) * gain.pdf(g),
                          0.0, np.inf)[0]
    got, se = mc._rate(pinned_samples(
        [params], mc.SimConfig(n_realizations=20_000, seed=seed), d0)[0], params)
    return got, want, se


def test_pinned_distance_rate_matches_gamma_oracle():
    # no blockage: every serving link is LoS
    params = SystemParams(lam=0.0, beta=0.0)
    got, want, se = _pinned_rate_oracle(params, params.alpha_L, params.N_L, 7)
    assert abs(got - want) <= 3.0 * se


def test_pinned_distance_nlos_rate_matches_gamma_oracle():
    # blockage certain at d0 = 5 (exp(-1e3 * 5) underflows to 0)
    params = SystemParams(lam=0.0, beta=1e3)
    got, want, se = _pinned_rate_oracle(params, params.alpha_N, params.N_N, 19)
    assert abs(got - want) <= 3.0 * se


def test_laplace_at_zero_is_one():
    estimate = laplace_estimate(
        0.0, SystemParams(), mc.SimConfig(n_realizations=200, seed=1))
    assert estimate == (1.0, 0.0)


def test_laplace_without_clusters_is_one():
    estimate, _ = laplace_estimate(
        3.0, SystemParams(lam=0.0), mc.SimConfig(n_realizations=200, seed=1))
    assert estimate == 1.0


# ------------------------------------------------- statistical behaviour

def test_standard_error_scales_with_sample_size():
    params = SystemParams()
    _, small = mc._rate(
        mc._simulate([params], mc.SimConfig(n_realizations=1000, seed=13))[0], params)
    _, large = mc._rate(
        mc._simulate([params], mc.SimConfig(n_realizations=4000, seed=13))[0], params)
    ratio = small / large
    assert 1.8 <= ratio <= 2.2


def test_truncation_radius_insensitive():
    # common seed nests the point process, so the shift is pure truncation
    params = SystemParams()
    near, near_se = mc._outage(mc._simulate(
        [params], mc.SimConfig(n_realizations=5000, seed=31, R_sim=2500.0))[0], params)
    far, _ = mc._outage(mc._simulate(
        [params], mc.SimConfig(n_realizations=5000, seed=31, R_sim=5000.0))[0], params)
    assert abs(near - far) <= max(near_se, 1e-12)


def test_matches_analysis_without_interference():
    # lam = 0 with a large blockage exponent exercises the NLoS branch alone
    params = SystemParams(lam=0.0, beta=1e3, Np=1, Rbar=4.0)
    analytic = outage_probability(params)
    got, se = mc._outage(
        mc._simulate([params], mc.SimConfig(n_realizations=20_000, seed=17))[0], params)
    assert abs(got - analytic) <= 3.0 * se


def test_pinned_distance_matches_conditional_outage():
    params = SystemParams(Rbar=3.0)
    d0 = 15.0
    analytic = conditional_outage(d0, params)
    got, se = mc._outage(pinned_samples(
        [params], mc.SimConfig(n_realizations=20_000, seed=23), d0)[0], params)
    assert abs(got - analytic) <= 3.0 * se


def test_more_presets_raise_rate():
    params = SystemParams()
    sim = mc.SimConfig(n_realizations=4000, seed=21)
    (single, single_se), (many, many_se) = (
        mc._rate(mc._simulate([p], sim)[0], p)
        for p in (params.with_(Np=1), params.with_(Np=11)))
    assert many - single > 3.0 * math.hypot(single_se, many_se)


def test_dense_deployment_collapses_rate():
    # 1e-2 clusters per m^2 drowns the link in interference
    params = SystemParams(lam=1e-2)
    rate, _ = mc._rate(mc._simulate(
        [params], mc.SimConfig(n_realizations=2000, seed=4, R_sim=60.0))[0], params)
    assert rate < 0.5
