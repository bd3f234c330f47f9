"""Cuculescu projection sequences, corrected projections, weak maximal operators.

The recursion R_n = R_{n-1} I_{(-inf,1)}(R_{n-1} (y_n/level) R_{n-1}) is the
noncommutative stand-in for the running event "the martingale has stayed
below the level so far".  The two-parameter family P_n^{B^k} (lattice meets
over all higher levels) restores joint monotonicity in time and level, and
the weak maximal operators a_N^± are the spectral staircases built from the
increments of that family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalInstabilityError
from .filtration import Martingale, cond_exp
from .opalgebra import (
    Interval,
    Operator,
    Projection,
    _projection,
    _spectrum,
    min_eigenvalue,
    operator_norm,
    proj_meet,
    psd_power,
    spectral_projection,
)

__all__ = [
    "CuculescuSeq",
    "CorrectedSeq",
    "WeakMax",
    "cuculescu_r",
    "corrected_p",
    "weak_max",
    "fubini_identity_gap",
]

_DRIFT_LIMIT = 1e-6


def _normalized(p: Projection) -> Projection:
    """Snap full-rank / rank-zero projections to exact I / 0."""
    alg = p.op.algebra
    r = p.rank()
    if r == 0:
        return Projection(alg.zero(), check=False)
    if r == alg.total_dim:
        return Projection(alg.identity(), check=False)
    return p


def _snap_projection(raw: Operator) -> Projection:
    """Re-symmetrize and round a near-projection; abort on real drift."""
    spectrum, tol = _spectrum(raw.symmetrized(), "_snap_projection")
    drift = max(float(np.abs(e - (e >= 0.5)).max()) for e, _ in spectrum)
    if drift > _DRIFT_LIMIT:
        raise NumericalInstabilityError(
            f"projection drifted by {drift:.2e} from idempotency"
        )
    return _normalized(
        _projection(raw.algebra, spectrum, Interval.at_least(0.5), tol, check=False)
    )


@dataclass(frozen=True, eq=False)
class CuculescuSeq:
    """R_{-1} = I together with R_0..R_N at a fixed positive level."""

    martingale: Martingale
    level: float
    projections: tuple[Projection, ...]

    def R(self, n: int) -> Projection:
        if n == -1:
            return Projection(self.martingale.algebra.identity(), check=False)
        return self.projections[n]

    @property
    def N(self) -> int:
        return len(self.projections) - 1

    def final(self) -> Projection:
        return self.projections[-1]


def _validate_step(
    y: Martingale, n: int, yn: Operator, compressed: Operator,
    r_prev: Projection, r_n: Projection,
) -> None:
    """Check R_n against y_n/level (`yn`) and R_{n-1} yn R_{n-1} (`compressed`)."""
    scale = 1.0 + operator_norm(yn)
    # membership in M_n
    adapted = (cond_exp(y.filtration, n, r_n.op) - r_n.op).entry_max()
    if adapted > 1e-9 * scale:
        raise NumericalInstabilityError(f"R_{n} left the level-{n} subalgebra")
    # monotone
    if min_eigenvalue(r_prev.op - r_n.op) < -1e-9:
        raise NumericalInstabilityError(f"R_{n} is not below R_{n-1}")
    # commutation with the compressed martingale value
    comm = (r_n.op @ compressed - compressed @ r_n.op).entry_max()
    if comm > 1e-8 * scale:
        raise NumericalInstabilityError(f"R_{n} fails to commute at step {n}")
    # cut-off bound, relative: products with yn carry rounding of size ||yn||
    cut = min_eigenvalue(r_n.op - (r_n.op @ yn @ r_n.op).symmetrized())
    if cut < -1e-8 * scale:
        raise NumericalInstabilityError(f"R_{n} y_n R_{n} exceeds R_{n}")


def cuculescu_r(y: Martingale, level: float) -> CuculescuSeq:
    """The level-`level` Cuculescu sequence of a self-adjoint martingale."""
    if not (level > 0):
        raise DomainError("the cut level must be positive")
    if not y.is_selfadjoint():
        raise DomainError("Cuculescu projections need a self-adjoint martingale")
    alg = y.algebra
    r_prev = Projection(alg.identity(), check=False)
    out = []
    for n, yn in enumerate(y.values):
        yn = yn / level
        compressed = (r_prev.op @ yn @ r_prev.op).symmetrized()
        if r_prev.rank() == 0:
            r_n = r_prev
        else:
            e = spectral_projection(compressed, Interval.below(1.0))
            r_n = _snap_projection(r_prev.op @ e.op)
        _validate_step(y, n, yn, compressed, r_prev, r_n)
        out.append(r_n)
        r_prev = r_n
    return CuculescuSeq(y, float(level), tuple(out))


# ---------------------------------------------------------------------------
# corrected projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CorrectedSeq:
    """Meets P_n^{B^k} of Cuculescu projections over all levels >= B^k."""

    martingale: Martingale
    base: float
    k_min: int
    k_top: int
    rows: tuple[int, ...]          # which n indices the grid carries
    grid: dict

    def P(self, n: int, k: int) -> Projection:
        if k > self.k_top:
            return Projection(self.martingale.algebra.identity(), check=False)
        if k < self.k_min:
            raise DomainError(f"k={k} below the truncation point {self.k_min}")
        if n not in self.rows:
            raise DomainError(f"row n={n} was not computed")
        return self.grid[(n, k)]


def _k_range(y: Martingale, B: float, k_min: int | None) -> tuple[int, int, float]:
    sup = max(operator_norm(v) for v in y.values)
    if sup <= 0.0:
        top = 0
    else:
        top = int(math.ceil(math.log(sup, B))) + 1
    lo = int(math.floor(math.log(1e-8 * (1.0 + sup), B))) if k_min is None else int(k_min)
    lo = min(lo, top)
    return lo, top, sup


def corrected_p(
    y: Martingale,
    B: float,
    k_min: int | None = None,
    final_only: bool = False,
) -> CorrectedSeq:
    """Compute the grid P_n^{B^k} for k in [k_min, k_top].

    The lattice meet over l >= k is truncated at k_top, above which every
    R_n^{B^l} equals the identity because the martingale is bounded; this is
    exact, not an approximation.
    """
    if not (B > 1):
        raise DomainError("the base B must exceed 1")
    if not y.is_selfadjoint():
        raise DomainError("corrected projections need a self-adjoint martingale")
    lo, top, sup = _k_range(y, B, k_min)
    alg = y.algebra
    ident = Projection(alg.identity(), check=False)
    rows = (y.N,) if final_only else tuple(range(y.N + 1))
    grid: dict = {}
    prev_col = {n: ident for n in rows}
    for k in range(top, lo - 1, -1):
        if all(prev_col[n].rank() == 0 for n in rows):
            for n in rows:
                grid[(n, k)] = prev_col[n]
            continue
        seq = cuculescu_r(y, B ** k)
        col = {}
        for n in rows:
            above = prev_col[n]
            if above.rank() == 0:
                col[n] = above
            else:
                col[n] = _normalized(proj_meet(seq.R(n), above))
        for n in rows:
            grid[(n, k)] = col[n]
        prev_col = col
    return CorrectedSeq(y, float(B), lo, top, rows, grid)


@dataclass(frozen=True, eq=False)
class WeakMax:
    """One-sided weak maximal operator a_N^± with its residual kernel."""

    operator: Operator
    residual: Projection
    corrected: CorrectedSeq
    sign: str

    @property
    def base(self) -> float:
        return self.corrected.base


def weak_max(y: Martingale, B: float, sign: str = "+",
             k_min: int | None = None) -> WeakMax:
    """a_N^+ = sum_k B^k (P_N^{B^{k+1}} - P_N^{B^k}); a_N^- = a_N^+(-y).

    Spectral mass below B^{k_min} is assigned to the residual kernel
    projection; the moment verifications account for it with an analytic
    geometric tail.
    """
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    base_y = y if sign == "+" else -y
    cp = corrected_p(base_y, B, k_min=k_min, final_only=True)
    N = base_y.N
    acc = y.algebra.zero()
    for k in range(cp.k_min, cp.k_top + 1):
        diff = cp.P(N, k + 1).op - cp.P(N, k).op
        acc = acc + diff * (B ** k)
    return WeakMax(acc.symmetrized(), cp.P(N, cp.k_min), cp, sign)


def fubini_identity_gap(wm: WeakMax, p: float) -> float:
    """Relative gap in the summation identity linking P_N^{B^k} and a_N^+.

    lhs: sum over the truncated k-range of B^{k(p-2)} (I - P_N^{B^k}) plus the
    analytic geometric tail below the truncation point; rhs is
    (a_N^+)^{p-2} / (1 - B^{2-p}).
    """
    if p <= 2:
        raise DomainError("the identity needs p > 2")
    cp = wm.corrected
    B = cp.base
    N = cp.martingale.N
    alg = cp.martingale.algebra
    ident = alg.identity()
    lhs = alg.zero()
    for k in range(cp.k_min, cp.k_top + 1):
        lhs = lhs + (ident - cp.P(N, k).op) * (B ** (k * (p - 2.0)))
    tail_coeff = B ** (cp.k_min * (p - 2.0)) / (1.0 - B ** (-(p - 2.0)))
    lhs = lhs + (ident - cp.P(N, cp.k_min).op) * tail_coeff
    rhs = psd_power(wm.operator, p - 2.0) * (1.0 / (1.0 - B ** (2.0 - p)))
    return operator_norm(lhs - rhs) / (1.0 + operator_norm(rhs))
