"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition."""


class ConfigError(ValueError):
    """A config file or override is malformed; message names the offending field."""


class NumericError(RuntimeError):
    """A numerical routine produced a non-finite or out-of-contract value."""


class NumericInstabilityError(NumericError):
    """A result violated its mathematical range by more than the clamp window."""
