"""Exception taxonomy shared across the package."""


class QmeterError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(QmeterError):
    """Operands live on incompatible tensor-product spaces."""


class NotPositiveSemidefiniteError(QmeterError):
    """An operator that must be PSD has a significantly negative eigenvalue."""


class InvalidObservableError(QmeterError):
    """Measurement basis matrix is not unitary (columns not orthonormal)."""


class InvalidStateError(QmeterError):
    """State fails validation (norm, Hermiticity, positivity or trace)."""


class UnsupportedDimensionError(QmeterError):
    """Requested construction only exists for a restricted set of dimensions."""


class ConsistencyError(QmeterError):
    """Internal cross-check failed (e.g. outcome probabilities do not sum to 1)."""


class ConfigError(QmeterError, ValueError):
    """Invalid simulation or CLI configuration (also a ValueError)."""
