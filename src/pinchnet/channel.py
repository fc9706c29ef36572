"""Link budget and SINR threshold shared by both engines."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError
from .geometry import SystemParams

__all__ = [
    "SPEED_OF_LIGHT",
    "LinkBudget",
    "link_budget",
    "sinr_threshold",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class LinkBudget:
    """Normalization constants: eta = (c / (4 pi f_c))^2 and xi = sigma2/(eta P)."""

    eta: float
    xi: float


def link_budget(params: SystemParams) -> LinkBudget:
    """Free-space reference gain and normalized noise level."""
    eta = (SPEED_OF_LIGHT / (4.0 * math.pi * params.f_c)) ** 2
    xi = params.sigma2 / (eta * params.P)
    return LinkBudget(eta=eta, xi=xi)


def sinr_threshold(rbar: float) -> float:
    """SINR level below which a target rate of rbar bits/use is in outage."""
    if rbar < 0:
        raise InvalidParameterError(f"rbar must be >= 0, got {rbar!r}")
    return 2.0 ** rbar - 1.0
