"""Exception hierarchy used across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericalError -> 4, ValidityGateError -> 5.
"""


class GeoriskError(Exception):
    """Base class for all errors raised by georisk."""


class ConfigError(GeoriskError):
    """Invalid configuration, arguments or unusable mode selection."""


class DataError(GeoriskError):
    """Malformed or inconsistent input data (bad CSV rows, duplicate sites)."""


class DuplicateLocationError(DataError):
    """Two sites lie within ``DUPLICATE_TOL``; ``indices`` names the first
    such pair (i < j) in input order."""

    def __init__(self, message, *, indices):
        super().__init__(message)
        self.indices = indices


class NumericalError(GeoriskError):
    """Base class for numerical failures in the estimation pipeline."""


class BandwidthTooSmallError(NumericalError):
    """Local design is singular or starved of neighbors at some point.

    ``indices`` holds the offending evaluation-point indices (when known),
    ``neighbors`` the smallest effective neighbor count observed.
    """

    def __init__(self, message, *, indices=None, neighbors=None):
        super().__init__(message)
        self.indices = list(indices) if indices is not None else None
        self.neighbors = neighbors


class FactorizationError(NumericalError):
    """Cholesky factorization failed; ``pivot`` names the failing pivot."""

    def __init__(self, message, *, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class ConvergenceError(NumericalError):
    """Iterative solver hit its cap; ``residual`` is the final residual norm."""

    def __init__(self, message, *, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateScoreError(NumericalError):
    """A cross-validation score had no usable terms (all pairs skipped)."""


class ValidityGateError(GeoriskError):
    """Too many replicate failures for a simulation run to be trusted."""
