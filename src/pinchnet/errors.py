"""Exception types shared across the package, and the one check of each
kind of number its inputs take: an integer with a minimum, a finite
number, a positive finite number.

A number is a numbers.Real (int, float or a numpy scalar) of float range;
a bool is none, though Python makes it an int, so that a YAML `true` never
runs as 1.  Each check raises InvalidParameterError naming the field, and
returns the value unchanged (an integer as an int).
"""

import math
import numbers


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition."""


class ConfigError(ValueError):
    """A config file or override is malformed; message names the offending field."""


class NumericError(RuntimeError):
    """A numerical routine produced a non-finite or out-of-contract value."""


class NumericInstabilityError(NumericError):
    """A result violated its mathematical range by more than the clamp window."""


def _integer(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _finite(value, name: str):
    try:
        finite = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                  and math.isfinite(value))
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")
    return value


def _positive(value, name: str):
    if not _finite(value, name) > 0:
        raise InvalidParameterError(f"{name} must be positive, got {value!r}")
    return value
