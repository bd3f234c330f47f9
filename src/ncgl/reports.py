"""Verification report records shared by all theorem-checking operations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NumericalInstabilityError


def report_tolerance(lhs: float, rhs: float) -> float:
    """Acceptance tolerance, relative to the larger side: no pass flag depends on scale."""
    return 1e-8 * max(abs(lhs), abs(rhs))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one inequality check: lhs <= rhs up to the tolerance; both
    sides finite, since a check cannot pass or fail on an overflowed side."""

    lhs: float
    rhs: float
    constant: float
    margin: float
    passed: bool
    meta: dict = field(default_factory=dict)

    @staticmethod
    def compare(lhs: float, rhs: float, constant: float,
                meta: dict | None = None) -> "VerifyReport":
        lhs = float(lhs)
        rhs = float(rhs)
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise NumericalInstabilityError(f"a side is not finite: {lhs} <= {rhs} at {meta}")
        margin = rhs - lhs
        return VerifyReport(lhs, rhs, float(constant), margin,
                            margin >= -report_tolerance(lhs, rhs), dict(meta or {}))
