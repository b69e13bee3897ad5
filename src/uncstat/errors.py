"""Exception types shared across the package."""


class NumericError(ValueError):
    """A result cannot be computed in double precision from valid inputs."""


class DegenerateSampleError(NumericError):
    """A sample has zero spread, so no scale can be estimated from it."""


class ConfigurationError(ValueError):
    """Inputs are inconsistent with the requested analysis (missing or
    mixed known parameters, unknown ids, ambiguous group selection)."""


class DataFormatError(ValueError):
    """A data file violates the expected layout; messages name the line."""
