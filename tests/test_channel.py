"""Link-budget constants and the SINR threshold."""

import math

import pytest

from pinchnet.channel import SPEED_OF_LIGHT, link_budget, sinr_threshold
from pinchnet.errors import InvalidParameterError
from pinchnet.geometry import default_params


def test_link_budget_eta():
    p = default_params(f_c=28e9)
    b = link_budget(p)
    eta_exact = (SPEED_OF_LIGHT / (4 * math.pi * 28e9)) ** 2
    assert b.eta == pytest.approx(eta_exact, rel=1e-14)
    assert b.eta == pytest.approx(7.26e-7, rel=1e-2)


def test_link_budget_xi():
    p = default_params(f_c=28e9, sigma2=10 ** (-12.4), P=1.0)  # 30 dBm
    b = link_budget(p)
    assert b.xi == pytest.approx(p.sigma2 / b.eta, rel=1e-14)
    assert b.xi == pytest.approx(5.5e-7, rel=2e-2)


def test_link_budget_xi_halves_with_doubled_power():
    p1 = default_params(P=0.5)
    p2 = default_params(P=1.0)
    assert link_budget(p1).xi == pytest.approx(2 * link_budget(p2).xi, rel=1e-14)


def test_sinr_threshold():
    assert sinr_threshold(0.0) == 0.0
    assert sinr_threshold(1.0) == 1.0
    assert sinr_threshold(2.0) == 3.0
    with pytest.raises(InvalidParameterError):
        sinr_threshold(-0.5)

