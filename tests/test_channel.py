"""The SINR threshold epsilon = 2^Rbar - 1 that SystemParams derives."""

import math

import pytest

from pinchnet.errors import InvalidParameterError
from pinchnet.geometry import default_params


def test_sinr_threshold():
    assert default_params(Rbar=0.0).epsilon == 0.0
    assert default_params(Rbar=1.0).epsilon == 1.0
    assert default_params(Rbar=2.0).epsilon == 3.0
    for rbar in (0.3, 4.5, 20.0):
        assert default_params(Rbar=rbar).epsilon == pytest.approx(
            math.expm1(rbar * math.log(2.0)), rel=1e-14)
    with pytest.raises(InvalidParameterError, match="Rbar"):
        default_params(Rbar=-0.5)
