"""Spatial model: system parameters (with the SINR threshold epsilon and
noise term xi both engines read from them), preset layout, Voronoi cells.

The typical cluster sits at the origin with its waveguide on the x-axis.
Interfering cluster centers form a PPP of intensity lam truncated to a disc
of radius R_sim about the typical user; each interfering cluster carries
its own uniformly oriented waveguide and a served user whose projection
onto the waveguide fixes the activated preset (nearest_preset_offset).
The simulator draws them; this module holds the shared geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InvalidParameterError, _finite, _integer, _positive

__all__ = [
    "SystemParams",
    "preset_offsets",
    "nearest_preset_offset",
    "voronoi_cells",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class SystemParams:
    """Physical and protocol parameters of the network.

    lam       cluster-center intensity (1/m^2)
    R         cluster radius (m)
    L         waveguide length (m)
    Np        number of preset antenna locations (odd)
    H         waveguide height above the user plane (m)
    beta      blockage density (1/m); P(LoS at range d) = exp(-beta d)
    alpha_L   LoS path-loss exponent
    alpha_N   NLoS path-loss exponent
    N_L, N_N  Nakagami shape integers for LoS / NLoS fading
    f_c       carrier frequency (Hz)
    sigma2    noise power (W)
    P         transmit power (W)
    Rbar      target rate (bits per channel use)
    """

    lam: float = 1e-6
    R: float = 20.0
    L: float = 10.0
    Np: int = 11
    H: float = 3.0
    beta: float = 0.01
    alpha_L: float = 2.0
    alpha_N: float = 3.0
    N_L: int = 3
    N_N: int = 2
    f_c: float = 28e9
    sigma2: float = 10 ** (-12.4)  # -94 dBm: -174 dBm/Hz over 100 MHz
    P: float = 0.1                 # 20 dBm
    Rbar: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "Np":
                object.__setattr__(self, f.name, _odd(value))
            elif f.type == "int":
                object.__setattr__(self, f.name, _integer(value, f.name, 1))
            elif f.name in ("R", "L", "H", "f_c", "sigma2", "P"):
                _positive(value, f.name)
            else:
                _finite(value, f.name)
        for name, value in (("lam", self.lam), ("beta", self.beta)):
            if not value >= 0:
                raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")
        if not self.L / 2 < self.R:
            raise InvalidParameterError(
                f"waveguide must fit in the cluster: L/2 = {self.L / 2} >= R = {self.R}")
        if not self.alpha_L >= 2:
            raise InvalidParameterError(f"alpha_L must be >= 2, got {self.alpha_L!r}")
        if not self.alpha_N >= self.alpha_L:
            raise InvalidParameterError("alpha_N must be >= alpha_L")
        # epsilon = 2^Rbar - 1 overflows a double from Rbar = 1024
        if not 0 <= self.Rbar < 1024:
            raise InvalidParameterError(f"Rbar must be in [0, 1024), got {self.Rbar!r}")
        try:  # eta can overflow, and eta P underflow to 0
            xi = self.xi
        except (OverflowError, ZeroDivisionError):
            xi = math.inf
        if not math.isfinite(xi):
            raise InvalidParameterError(f"noise term xi = sigma2/(eta P) overflows: {xi!r}")

    @property
    def epsilon(self) -> float:
        """SINR below which the target rate Rbar is in outage."""
        return 2.0 ** self.Rbar - 1.0

    @property
    def xi(self) -> float:
        """Normalized noise sigma2/(eta P), eta = (c/(4 pi f_c))^2."""
        eta = (SPEED_OF_LIGHT / (4.0 * math.pi * self.f_c)) ** 2
        return self.sigma2 / (eta * self.P)

    def with_(self, **kw) -> "SystemParams":
        """Copy with selected fields replaced."""
        return replace(self, **kw)


# -------------------- preset geometry --------------------

def _odd(Np) -> int:
    """Np as an int, if it is an odd positive integer: a preset count."""
    if _integer(Np, "Np", 1) % 2 == 0:
        raise InvalidParameterError(f"Np must be odd, got {Np!r}")
    return int(Np)


def preset_offsets(L: float, Np: int) -> np.ndarray:
    """Signed offsets of the Np presets along the waveguide axis.

    Offset of preset n (n = 1..Np) is delta (n - (Np+1)/2) with the
    spacing delta = L/(Np-1), or L for a single preset, which sits at the
    center.
    """
    delta = L / max(_odd(Np) - 1, 1)
    return delta * (np.arange(1, Np + 1, dtype=np.float64) - (Np + 1) / 2.0)


def nearest_preset_offset(proj, L: float, Np: int, out=None):
    """Axis offset of the preset nearest to an axial coordinate proj.

    Closed form of the nearest-preset rule for points projected onto the
    waveguide axis; vectorized over proj, and written into out if given
    (which may be proj itself).  A float array proj keeps its dtype (the
    simulator's float32 rows stay float32), and any other proj is taken in
    float64.  Exact midpoint ties resolve to the lower-index (more negative)
    preset.  A single preset's offset is 0, of either sign.
    """
    proj = np.asarray(proj, dtype=getattr(proj, "dtype", np.float64))
    delta = L / max(_odd(Np) - 1, 1)
    half = (Np - 1) // 2
    idx = np.subtract(np.divide(proj, delta, out=out), 0.5, out=out)
    idx = np.clip(np.ceil(idx, out=out), -half, half, out=out)
    return np.multiply(idx, delta, out=out)


# -------------------- Voronoi partition --------------------

def voronoi_cells(L: float, Np: int, R: float) -> tuple[np.ndarray, np.ndarray]:
    """x-intervals (lo, hi) of the Np presets' cells on the typical tile,
    left to right, in the order of preset_offsets.

    Interior boundaries are midpoints between adjacent presets, and the
    outer cells reach -R and R, so a single preset's cell is (-R, R).
    """
    inner = (L / max(_odd(Np) - 1, 1)) * (np.arange(1, Np) - Np / 2.0)
    edges = np.concatenate([[-R], inner, [R]])
    return edges[:-1], edges[1:]
