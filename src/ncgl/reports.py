"""Verification report records shared by all theorem-checking operations."""

from __future__ import annotations

from dataclasses import dataclass, field


def report_tolerance(rhs: float) -> float:
    """Default acceptance tolerance, relative to the bound being checked."""
    return 1e-8 * (1.0 + abs(rhs))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one inequality check: lhs <= rhs up to the tolerance."""

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
        margin = rhs - lhs
        return VerifyReport(lhs, rhs, float(constant), margin,
                            margin >= -report_tolerance(rhs), dict(meta or {}))
