"""Exception types shared across the package.

ValidationError covers every "the object you handed me is not what the
operation requires" failure; its subclasses name the specific broken
invariant so callers can branch on them. Errors outside that branch signal
conditions arising during a computation (ambiguous eigenvalue clustering,
a vanishing compression).
"""

__all__ = [
    "BadShape", "ClusterAmbiguity", "DimMismatch", "InvalidPartitionData", "NotHermitian",
    "NotPSD", "ParseError", "QceError", "ValidationError", "ZeroCompression",
]


class QceError(Exception):
    """Base class for all package errors."""


class ParseError(QceError):
    """Malformed input document (JSON structure, shapes, non-finite entries)."""


class ValidationError(QceError):
    """An object fails the invariants its role requires."""


class BadShape(ValidationError):
    """Array has the wrong shape or dimensions for the requested object."""


class DimMismatch(ValidationError):
    """Operands live in spaces of different dimension."""


class NotHermitian(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class NotPSD(ValidationError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class InvalidPartitionData(ValidationError):
    """Classical partition data violates consistency (marginals or Bayes)."""


class ClusterAmbiguity(QceError):
    """Eigenvalue gaps fall in the unstable band between merge and split."""


class ZeroCompression(QceError):
    """Compression Q rho Q vanishes, or has zero modes, where the operation needs it positive."""
