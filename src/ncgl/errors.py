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
    """An iterated projection drifted too far from idempotency to be trusted."""
