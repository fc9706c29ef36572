"""SystemParams (with its SINR threshold and noise term), cluster-center PPP,
preset layout, nearest-preset rule and Voronoi-cell tests.

Every function tested here is one the simulator or the analysis runs.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from pinchnet import montecarlo as mc
from pinchnet.errors import InvalidParameterError
from pinchnet.geometry import (
    SPEED_OF_LIGHT,
    SystemParams,
    nearest_preset_offset,
    preset_offsets,
    voronoi_cells,
)
from test_montecarlo import laplace_estimate


# ---------------- SystemParams validation ----------------

def test_params_defaults_valid():
    p = SystemParams()
    assert p.Np == 11 and p.f_c == 28e9
    assert p.sigma2 == pytest.approx(10 ** (-12.4))


def test_params_rejects_even_np():
    with pytest.raises(InvalidParameterError):
        SystemParams(Np=10)


def test_params_rejects_long_waveguide():
    with pytest.raises(InvalidParameterError):
        SystemParams(L=40.0, R=20.0)  # L/2 >= R


def test_params_rejects_bad_exponents():
    with pytest.raises(InvalidParameterError):
        SystemParams(alpha_L=1.5)
    with pytest.raises(InvalidParameterError):
        SystemParams(alpha_L=3.0, alpha_N=2.5)


def test_params_rejects_noninteger_shapes():
    with pytest.raises(InvalidParameterError):
        SystemParams(N_L=2.5)
    with pytest.raises(InvalidParameterError):
        SystemParams(N_N=0)


def test_params_allows_zero_intensity():
    assert SystemParams(lam=0.0).lam == 0.0
    with pytest.raises(InvalidParameterError):
        SystemParams(lam=-1e-6)


def test_params_rejects_nonfinite_numbers():
    for field in ("lam", "R", "L", "H", "beta", "alpha_L", "alpha_N", "f_c",
                  "sigma2", "P", "Rbar"):
        for value in (math.inf, -math.inf, math.nan, "1.0", True):
            with pytest.raises(InvalidParameterError, match=field):
                SystemParams(**{field: value})
    # so is a finite Rbar whose threshold 2^Rbar - 1 overflows; the largest
    # double below 1024 still gives a finite threshold
    assert SystemParams(Rbar=math.nextafter(1024.0, 0.0)).Rbar < 1024.0
    for rbar in (1024.0, 2000):
        with pytest.raises(InvalidParameterError, match="Rbar"):
            SystemParams(Rbar=rbar)


# ---------------- SINR threshold and noise term ----------------

def test_sinr_threshold():
    assert SystemParams(Rbar=0.0).epsilon == 0.0
    assert SystemParams(Rbar=1.0).epsilon == 1.0
    assert SystemParams(Rbar=2.0).epsilon == 3.0
    for rbar in (0.3, 4.5, 20.0):
        assert SystemParams(Rbar=rbar).epsilon == pytest.approx(
            math.expm1(rbar * math.log(2.0)), rel=1e-14)
    with pytest.raises(InvalidParameterError, match="Rbar"):
        SystemParams(Rbar=-0.5)


def test_params_xi_reference_gain():
    # eta = (c / (4 pi f_c))^2, the free-space gain at 1 m, is 7.26e-7 at 28 GHz
    p = SystemParams(f_c=28e9)
    eta = p.sigma2 / (p.xi * p.P)
    assert eta == pytest.approx((SPEED_OF_LIGHT / (4 * math.pi * 28e9)) ** 2, rel=1e-14)
    assert eta == pytest.approx(7.26e-7, rel=1e-2)


def test_params_xi():
    p = SystemParams(f_c=28e9, sigma2=10 ** (-12.4), P=1.0)  # 30 dBm
    eta = (SPEED_OF_LIGHT / (4 * math.pi * 28e9)) ** 2
    assert p.xi == pytest.approx(p.sigma2 / (eta * p.P), rel=1e-14)
    assert p.xi == pytest.approx(5.5e-7, rel=2e-2)


def test_params_xi_halves_with_doubled_power():
    assert SystemParams(P=0.5).xi == pytest.approx(2 * SystemParams(P=1.0).xi,
                                                     rel=1e-14)


def test_params_validates_threshold_and_noise_term():
    # a negative rate has no threshold
    with pytest.raises(InvalidParameterError, match="Rbar"):
        SystemParams(Rbar=-0.5)
    # finite fields whose noise term overflows: through the division, through
    # eta at a tiny carrier, and through eta P underflowing to 0
    for kw in ({"sigma2": 1e300, "P": 1e-300}, {"f_c": 1e-300},
               {"f_c": 1e300, "P": 1e-300}):
        with pytest.raises(InvalidParameterError, match="noise term"):
            SystemParams(**kw)
    # an underflowing one is a noiseless link
    assert SystemParams(sigma2=1e-300, P=1e300).xi == 0.0


# ---------------- PPP on the disc ----------------
#
# The simulator owns the sampling of the cluster-center PPP, so these tests
# read it through the simulator.  At s = 1e300 the Laplace sample
# exp(-s I) is the indicator that a realization has no interferer, whose
# probability on a disc of radius r is exp(-lam pi r^2).

VOID_S = 1e300


def _void_estimate(lam, R_sim, n, seed):
    return laplace_estimate(
        VOID_S, SystemParams(lam=lam),
        mc.SimConfig(n_realizations=n, R_sim=R_sim, seed=seed))


def test_ppp_mean_count():
    # lam pi R_sim^2 = 1 interferer on average: P(none) = e^-1
    R_sim = 1000.0
    estimate, se = _void_estimate(1.0 / (math.pi * R_sim ** 2), R_sim, 20_000, 29)
    assert abs(estimate - math.exp(-1.0)) <= 3.0 * se


def test_ppp_points_uniform():
    # points uniform on the disc: the void probability of every inner disc
    # is exp(-lam pi r^2), which pins the intensity per unit area
    lam = 1e-6
    for R_sim in (300.0, 600.0, 1200.0):
        estimate, se = _void_estimate(lam, R_sim, 20_000, 31)
        want = math.exp(-lam * math.pi * R_sim ** 2)
        assert abs(estimate - want) <= 3.0 * se


def test_ppp_radii_nest_with_truncation_radius():
    # same seed, larger disc: every interferer of the small disc is kept
    # with its marks and fading, so the interference sum can only grow;
    # the pair's limits lam pi R_sim^2 (78.5 and 201 arrivals on average)
    # lie in different bins of 32 arrivals: the far disc keeps all of the
    # near disc's last bin and draws four more
    params = SystemParams()
    interference = {
        R_sim: mc._simulate(
            [params], mc.SimConfig(n_realizations=600, seed=5, R_sim=R_sim))[0][1]
        for R_sim in (5000.0, 8000.0)}
    near, far = (params.lam * math.pi * r_sim * r_sim for r_sim in (5000.0, 8000.0))
    assert math.ceil(near / mc._BIN) == 3 and math.ceil(far / mc._BIN) == 7
    assert np.all(interference[8000.0] >= interference[5000.0])
    assert np.mean(interference[8000.0] > interference[5000.0]) > 0.9


# ---------------- presets ----------------

def test_preset_middle_index_at_center():
    assert preset_offsets(10.0, 11)[5] == 0.0  # n=6, 1-based


def test_preset_first_index():
    assert preset_offsets(10.0, 11)[0] == pytest.approx(-5.0, abs=1e-12)


def test_preset_single():
    assert np.array_equal(preset_offsets(10.0, 1), [0.0])


def test_preset_even_np_rejected():
    with pytest.raises(InvalidParameterError):
        preset_offsets(10.0, 4)


def test_preset_symmetry_and_spacing():
    offs = preset_offsets(10.0, 11)
    assert np.allclose(offs + offs[::-1], 0.0, atol=1e-15)
    assert np.allclose(np.diff(offs), 1.0, atol=1e-15)
    assert offs[0] == -5.0 and offs[-1] == 5.0


# ---------------- nearest preset ----------------

def test_nearest_preset_basic():
    assert float(nearest_preset_offset(0.3, 10.0, 11)) == 0.0
    got = nearest_preset_offset(np.array([-4.8, 2.4, 3.6]), 10.0, 11)
    assert np.array_equal(got, [-5.0, 2.0, 4.0])


def test_nearest_preset_tie_lowest_index():
    # every midpoint between adjacent presets goes to the lower preset
    offs = preset_offsets(10.0, 11)
    mids = 0.5 * (offs[:-1] + offs[1:])
    assert np.array_equal(nearest_preset_offset(mids, 10.0, 11), offs[:-1])


def test_nearest_preset_single():
    got = nearest_preset_offset(np.array([-9.0, 0.0, 9.0]), 10.0, 1)
    assert np.array_equal(got, np.zeros(3))


def test_nearest_preset_empty():
    # no preset (Np = 0) or an even count has no nearest-preset rule
    for np_ in (0, 4):
        with pytest.raises(InvalidParameterError):
            nearest_preset_offset(0.0, 10.0, np_)


def test_nearest_offset_matches_argmin():
    rng = np.random.default_rng(5)
    offs = preset_offsets(10.0, 11)
    proj = rng.uniform(-20, 20, size=500)
    # brute-force rule: first minimum of the distance to every preset
    want = offs[np.argmin(np.abs(proj[:, None] - offs[None, :]), axis=1)]
    assert np.allclose(nearest_preset_offset(proj, 10.0, 11), want, atol=1e-12)


def test_nearest_offset_midpoint_tie_breaks_low():
    # midpoints sit halfway between adjacent presets; tie goes left
    assert float(nearest_preset_offset(0.5, 10.0, 11)) == 0.0
    assert float(nearest_preset_offset(-0.5, 10.0, 11)) == -1.0
    assert float(nearest_preset_offset(100.0, 10.0, 11)) == 5.0  # clamped


@pytest.mark.parametrize("L,Np", [(10.0, 11), (100.0, 3), (7.0, 15)])
def test_nearest_offset_keeps_float32(L, Np):
    # the simulator's float32 rows are worked in float32, in place or not,
    # and pick the preset the float64 rule picks for the same value except
    # within float32 rounding of a midpoint; exact midpoints resolve to the
    # lower preset in both
    rng = np.random.default_rng(31)
    delta = L / (Np - 1)
    proj = rng.uniform(-L, L, 100_000).astype(np.float32)
    got = nearest_preset_offset(proj, L, Np)
    assert got.dtype == np.float32
    into = proj.copy()
    assert nearest_preset_offset(into, L, Np, out=into) is into
    assert into.tobytes() == got.tobytes()
    want = nearest_preset_offset(proj.astype(np.float64), L, Np)
    scaled = proj.astype(np.float64) / delta
    near_midpoint = np.abs(scaled - np.floor(scaled) - 0.5) <= 1e-5
    assert np.count_nonzero(near_midpoint) < 100
    assert np.array_equal(got[~near_midpoint], want[~near_midpoint].astype(np.float32))
    offs = preset_offsets(L, Np)
    mids = (0.5 * (offs[:-1] + offs[1:])).astype(np.float32)
    assert np.array_equal(mids.astype(np.float64), 0.5 * (offs[:-1] + offs[1:]))
    assert np.array_equal(nearest_preset_offset(mids, L, Np), offs[:-1])
    assert np.array_equal(nearest_preset_offset(mids.astype(np.float64), L, Np), offs[:-1])


# ---------------- Voronoi cells ----------------

def test_voronoi_examples():
    lo, hi = voronoi_cells(10.0, 11, 20.0)
    assert (lo[0], hi[0]) == (-20.0, -4.5)
    assert (lo[5], hi[5]) == (-0.5, 0.5)
    assert (lo[10], hi[10]) == (4.5, 20.0)
    # a single preset's cell is the whole diameter
    lo, hi = voronoi_cells(10.0, 1, 20.0)
    assert lo.tolist() == [-20.0] and hi.tolist() == [20.0]


def test_voronoi_tiling_exact():
    lo, hi = voronoi_cells(10.0, 11, 20.0)
    assert len(lo) == len(hi) == 11
    assert np.array_equal(lo[1:], hi[:-1])
    assert np.all(lo < hi)
    assert lo[0] == -20.0 and hi[-1] == 20.0


def test_voronoi_cells_contain_their_preset():
    offs = preset_offsets(30.0, 7)
    for n, (lo, hi) in enumerate(zip(*voronoi_cells(30.0, 7, 50.0))):
        for x in np.linspace(lo + 1e-9, hi - 1e-9, 25):
            d = np.abs(x - offs)
            assert d[n] <= d.min() + 1e-12


def test_voronoi_bad_index():
    # every cell comes at once, so no cell index can be out of range; the
    # preset count still has to be an odd positive integer
    for np_ in (0, 4, 3.0, True):
        with pytest.raises(InvalidParameterError, match="Np"):
            voronoi_cells(10.0, np_, 20.0)


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan])
def test_preset_geometry_refuses_bad_length(L):
    # a waveguide of no, negative or NaN length has no presets: without
    # the check the offsets came out reversed, the cells zero-width, and
    # the nearest preset a division by zero
    for call in (lambda: preset_offsets(L, 3), lambda: voronoi_cells(L, 3, 1.0),
                 lambda: nearest_preset_offset(np.array([0.3, -0.7]), L, 3)):
        with pytest.raises(InvalidParameterError, match="L"):
            call()


@pytest.mark.parametrize("R", [5.0, 2.0, math.nan])
def test_voronoi_refuses_waveguide_outside_cluster(R):
    # as SystemParams does: cells reaching -R and R need R > L/2, or the
    # outer cells come out empty or inverted
    with pytest.raises(InvalidParameterError, match="fit in the cluster"):
        voronoi_cells(10.0, 3, R)


# ---------------- preset selection vs the Voronoi partition ----------------

def test_realization_antenna_distribution_matches_cell_areas():
    # a user uniform on the disc lands on preset n with probability equal
    # to that Voronoi cell's share of the disc area: the simulator's preset
    # rule and the analysis' strip partition describe the same cells
    p = SystemParams()
    rng = np.random.default_rng(23)
    n_draws = 20_000
    r = p.R * np.sqrt(rng.random(n_draws))
    xs = nearest_preset_offset(r * np.cos(2 * np.pi * rng.random(n_draws)), p.L, p.Np)
    offs = preset_offsets(p.L, p.Np)
    area = math.pi * p.R ** 2
    for n, (lo, hi) in enumerate(zip(*voronoi_cells(p.L, p.Np, p.R)), start=1):
        frac = integrate.quad(lambda x: 2 * math.sqrt(p.R ** 2 - x * x), lo, hi)[0] / area
        hits = np.mean(np.isclose(xs, offs[n - 1], atol=1e-9))
        se = math.sqrt(frac * (1 - frac) / n_draws)
        assert abs(hits - frac) < 3.5 * se, f"cell {n}: {hits} vs {frac}"
