"""Exception and warning types shared across the package."""


class OrkmcError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(OrkmcError):
    """Input values are unusable (non-finite entries, length mismatch, ...)."""


class DimensionError(OrkmcError):
    """Matrix or vector shapes do not conform."""


class ConfigError(OrkmcError):
    """Hyperparameters or solver configuration are out of their valid range."""


class ParseError(OrkmcError):
    """A data file could not be parsed; the message carries file/row/column context."""


class UsageError(OrkmcError):
    """Caller asked for an unknown method code, preset or CLI combination."""


class ConvergenceWarning(RuntimeWarning):
    """An iterative solver hit its iteration cap before reaching its tolerance."""


class RidgeFallbackWarning(RuntimeWarning):
    """A degenerate linear system was regularized with a small ridge term."""


class DegenerateClusterWarning(RuntimeWarning):
    """A cluster's soft mass vanished and its center was frozen."""


class DataWarning(UserWarning):
    """The input data needed an automatic adjustment (e.g. min-shift to nonnegative)."""
