"""Exception types shared across the package."""

__all__ = [
    "NCGLError",
    "StructureError",
    "DomainError",
    "NumericalInstabilityError",
]


class NCGLError(Exception):
    """Base class for all package errors."""


class StructureError(NCGLError, ValueError):
    """Operands live on different algebras or have mismatched block shapes."""


class DomainError(NCGLError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NumericalInstabilityError(NCGLError, ArithmeticError):
    """A computed value cannot be trusted: an iterated projection drifted too
    far from idempotency, a Cuculescu invariant failed, or a side of a report
    is not finite."""
