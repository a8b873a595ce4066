"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """An object violates one of its structural invariants."""


class NotHermitianError(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class SizeCapError(ValueError):
    """Requested instance exceeds the supported size limits."""


class IndexOutOfRangeError(IndexError):
    """Bit index outside 1..n."""


class LabelMismatchError(ValueError):
    """Measurement outcome labels do not match the expected label set."""


class BadSplitError(ValueError):
    """Subsystem dimensions do not factor the joint dimension."""


class BadShiftError(ValueError):
    """Cyclic shift amount outside 1..n."""


class DomainError(ValueError):
    """Numeric argument outside the mathematical domain of the function."""


class DerandomizationFailedError(RuntimeError):
    """No sampled shift set passed the bad-event audit within the retry budget."""

    def __init__(self, message: str, worst_margin: float | None = None):
        super().__init__(message)
        self.worst_margin = worst_margin
