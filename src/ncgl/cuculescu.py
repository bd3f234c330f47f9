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
    _TIE_TOL,
    _by_summand,
    _projection,
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

_BELOW_ONE = Interval.below(1.0)


def _normalized(p: Operator) -> Operator:
    """Snap each full-rank / rank-zero summand of a projection to exact I / 0."""
    alg = p.algebra
    if p.rank() == 0:
        return alg.zero()
    if p.rank() == alg.total_dim:
        return alg.identity()
    ranks, size = p.summand_ranks, alg.total_dim // alg.summands
    if 0 not in ranks and size not in ranks:
        return p
    return (p.summand_scaled([0 < r < size for r in ranks])
            + alg.identity().summand_scaled([r == size for r in ranks]))


def _snap_projection(raw: Operator) -> Operator:
    """Re-symmetrize and round a near-projection; abort on real drift."""
    sym = raw.symmetrized()
    drift = max(float(np.abs(e - (e >= 0.5)).max()) for e, _ in sym.spectrum[0])
    if drift > _DRIFT_LIMIT:
        raise NumericalInstabilityError(
            f"projection drifted by {drift:.2e} from idempotency"
        )
    return _normalized(_projection(sym, Interval.at_least(0.5)))


@dataclass(frozen=True, eq=False)
class _Step:
    """The level-free measurements of one step R_{n-1} -> R_n, one float per
    summand of the algebra.

    `top` comes from its own eigensolve of the snapped C = R_n y_n R_n, not
    from the spectrum that set the cut.  C kills ker R_n and maps into
    range R_n, so R_n - C/level is 1 - C/level on the range and 0 on the
    kernel; its smallest eigenvalue is below a negative threshold iff
    1 - top/level is."""

    norm: list[float]        # ||y_n||
    adapted: list[float]     # entry_max(E_n(R_n) - R_n)
    monotone: list[float]    # min_eig(R_{n-1} - R_n)
    commutator: list[float]  # entry_max([R_n, R_{n-1} y_n R_{n-1}])
    top: list[float]         # max_eig(R_n y_n R_n)

    def __post_init__(self):
        # the five measurements of each summand, as _check_level reads them
        object.__setattr__(self, "summands", tuple(zip(
            self.norm, self.adapted, self.monotone, self.commutator, self.top)))


@dataclass(frozen=True, eq=False)
class CuculescuSeq:
    """R_{-1} = I and R_0..R_N with their measurements, and per step n the
    window (lo, hi) of levels lo < level < hi at which steps 0..n all make
    the same spectral cut; the windows are nested."""

    windows: tuple[tuple[float, float], ...]
    projections: tuple[Operator, ...]
    steps: tuple[_Step, ...]

    lo = property(lambda self: self.windows[-1][0])
    hi = property(lambda self: self.windows[-1][1])

    def shared(self, level: float) -> int:
        """How many leading steps make the same cut at `level` as here."""
        return sum(lo < level < hi for lo, hi in self.windows)

    def R(self, n: int) -> Operator:
        if n == -1:
            return self.projections[0].algebra.identity()
        return self.projections[n]

    @property
    def N(self) -> int:
        return len(self.projections) - 1

    def final(self) -> Operator:
        return self.projections[-1]


def _check_level(seq: CuculescuSeq, level: float) -> None:
    """The Lemma invariants of `seq` as a level-`level` sequence, from its
    stored measurements (the cut-off bound through `_Step.top`).

    Tolerances scale with 1 + ||y_n||/level of each summand: products with
    y_n/level carry rounding of that size.  Messages name the summand.
    """
    fail = NumericalInstabilityError
    for n, s in enumerate(seq.steps):
        for i, (norm, adapted, monotone, commutator, top) in enumerate(s.summands):
            scale = 1.0 + norm / level
            # membership in M_n
            if adapted > 1e-9 * scale:
                raise fail(f"R_{n} left the level-{n} subalgebra (summand {i})")
            if monotone < -1e-9:
                raise fail(f"R_{n} is not below R_{n-1} (summand {i})")
            # commutation with the compressed martingale value
            if commutator / level > 1e-8 * scale:
                raise fail(f"R_{n} fails to commute at step {n} (summand {i})")
            if 1.0 - top / level < -1e-8 * scale:
                raise fail(f"R_{n} y_n R_{n} exceeds R_{n} (summand {i})")


def _step_window(compressed: Operator, level: float,
                 norm: list[float], live: list[bool]) -> tuple[float, float]:
    """Levels (lo, hi) at which the cut of R_{n-1} y_n R_{n-1} below 1 keeps
    the eigenvectors it keeps at `level`, on every live summand; `compressed`
    is that operator scaled by 1/level, and `norm` holds ||y_n|| per summand.

    With m the largest absolute eigenvalue of a summand, tol = _TIE_TOL (1 + m),
    and at level l an eigenvalue e is kept iff e level/l < 1 - _TIE_TOL (1 + m level/l),
    that is iff l > t(e) = level (e + _TIE_TOL m) / (1 - _TIE_TOL).  Each
    summand's bounds are shrunk by 1e-8 relative (100x the tie tolerance) plus
    1e-12 ||y_n||, far above the rounding of the eigenvalues at other levels;
    the window is the intersection of the summands' windows.
    """
    spectrum, tol = compressed.spectrum
    kept_t, cut_t = [], []
    for (eigs, _), t_col in zip(spectrum, tol):
        kept = _BELOW_ONE.contains(eigs, t_col)
        t = level * (eigs + t_col - _TIE_TOL) / (1.0 - _TIE_TOL)
        kept_t.append(np.where(kept, t, 0.0))
        cut_t.append(np.where(kept, math.inf, t))
    bounds = [(lo, hi, n) for lo, hi, n, ok in zip(
        _by_summand(compressed.algebra, kept_t, "max"),
        _by_summand(compressed.algebra, cut_t, "min"), norm, live) if ok]
    return (max(lo + 1e-8 * abs(lo) + 1e-12 * n for lo, _, n in bounds),
            min((hi - 1e-8 * abs(hi) - 1e-12 * n for _, hi, n in bounds if hi < math.inf),
                default=math.inf))


def _fresh_sequence(y: Martingale, level: float,
                    prefix: CuculescuSeq | None) -> CuculescuSeq:
    """The level-`level` recursion, resumed after the leading steps that the
    cached `prefix` shares at this level (the same cuts, so the same
    projections and level-free measurements), or from R_{-1} = I."""
    k = prefix.shared(level) if prefix else 0
    windows, projections, steps = (
        [list(part[:k]) for part in (prefix.windows, prefix.projections, prefix.steps)]
        if k else ([], [], []))
    lo, hi = windows[-1] if k else (0.0, math.inf)
    r_prev = projections[-1] if k else y.algebra.identity()
    for n, y_n in enumerate(y.values[k:], k):
        norm = operator_norm(y_n, per_summand=True)
        compressed = (r_prev @ (y_n / level) @ r_prev).symmetrized()
        # a summand cut down to 0 stays 0 (the snap below keeps it exactly 0)
        # and no longer bounds the window
        live = [r > 0 for r in r_prev.summand_ranks]
        if not any(live):
            r_n = r_prev
        else:
            e = spectral_projection(compressed, _BELOW_ONE)
            r_n = _snap_projection(r_prev @ e)
            step_lo, step_hi = _step_window(compressed, level, norm, live)
            lo, hi = max(lo, step_lo), min(hi, step_hi)
        steps.append(_Step(
            norm=norm,
            adapted=(cond_exp(y.filtration, n, r_n) - r_n).entry_max(per_summand=True),
            monotone=min_eigenvalue(r_prev - r_n, per_summand=True),
            commutator=[c * level for c in (r_n @ compressed - compressed @ r_n)
                        .entry_max(per_summand=True)],
            top=[-t for t in min_eigenvalue(-(r_n @ y_n @ r_n).symmetrized(),
                                            per_summand=True)],
        ))
        projections.append(r_n)
        windows.append((lo, hi))
        r_prev = r_n
    return CuculescuSeq(tuple(windows), tuple(projections), tuple(steps))


def cuculescu_r(y: Martingale, level: float) -> CuculescuSeq:
    """The level-`level` Cuculescu sequence of a self-adjoint martingale.

    R_n only changes where the level crosses an eigenvalue of
    R_{n-1} y_n R_{n-1}, so each computed sequence is kept on the martingale
    with the window of levels each of its steps serves, and returned itself
    for any level inside its last window; any other level resumes after the
    most leading steps a cached sequence shares.  The Lemma invariants are
    checked from the stored measurements at every level returned.
    """
    if not (level > 0):
        raise DomainError("the cut level must be positive")
    if not y.is_selfadjoint():
        raise DomainError("Cuculescu projections need a self-adjoint martingale")
    cache = y.cuculescu_cache
    seq = next((s for s in cache if s.lo < level < s.hi), None)
    if seq is None:
        prefix = max(cache, key=lambda s: s.shared(level), default=None)
        seq = _fresh_sequence(y, level, prefix)
        cache.append(seq)
    _check_level(seq, level)
    return seq


# ---------------------------------------------------------------------------
# corrected projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CorrectedSeq:
    """Meets P_n^{B^k} of Cuculescu projections over all levels >= B^k, as
    bands (high, low, column) from k_top down to k_min without gaps: every k
    in [low, high] has the column {n: P_n^{B^k}}, and a new band starts only
    where the Cuculescu sequence changes."""

    martingale: Martingale
    base: float
    bands: tuple[tuple[int, int, dict], ...]

    k_top = property(lambda self: self.bands[0][0])
    k_min = property(lambda self: self.bands[-1][1])

    def P(self, n: int, k: int) -> Operator:
        if k > self.k_top:
            return self.martingale.algebra.identity()
        if k < self.k_min:
            raise DomainError(f"k={k} below the truncation point {self.k_min}")
        column = next(col for _, low, col in self.bands if low <= k)
        if n not in column:
            raise DomainError(f"row n={n} was not computed")
        return column[n]


def _k_range(y: Martingale, B: float, k_min: int | None) -> tuple[int, int]:
    sup = max(operator_norm(v) for v in y.values)
    if sup <= 0.0:
        top = 0
    else:
        top = int(math.ceil(math.log(sup, B))) + 1
    lo = int(math.floor(math.log(1e-8 * (1.0 + sup), B))) if k_min is None else int(k_min)
    return min(lo, top), top


def corrected_p(
    y: Martingale,
    B: float,
    k_min: int | None = None,
    final_only: bool = False,
) -> CorrectedSeq:
    """Compute the bands of P_n^{B^k} for k in [k_min, k_top].

    The lattice meet over l >= k is truncated at k_top, above which every
    R_n^{B^l} equals the identity because the martingale is bounded; this is
    exact, not an approximation.  The first all-zero column is P at every
    lower level, so its band reaches k_min.
    """
    if not (B > 1):
        raise DomainError("the base B must exceed 1")
    if not y.is_selfadjoint():
        raise DomainError("corrected projections need a self-adjoint martingale")
    lo, top = _k_range(y, B, k_min)
    ident = y.algebra.identity()
    rows = (y.N,) if final_only else tuple(range(y.N + 1))
    col, prev, starts = {n: ident for n in rows}, None, []
    for k in range(top, lo - 1, -1):
        if all(p.rank() == 0 for p in col.values()):
            break
        seq = cuculescu_r(y, B ** k)
        # within a band P^{k+1} <= R^{k+1} = R^k, so the meet is P^{k+1} itself
        if seq is not prev:
            col = {n: above if above.rank() == 0 else _normalized(proj_meet(seq.R(n), above))
                   for n, above in col.items()}
            starts.append((k, col))
        prev = seq
    lows = [high + 1 for high, _ in starts[1:]] + [lo]
    return CorrectedSeq(y, float(B), tuple(
        (high, low, col) for (high, col), low in zip(starts, lows)))


@dataclass(frozen=True, eq=False)
class WeakMax:
    """One-sided weak maximal operator a_N^± with its residual kernel."""

    operator: Operator
    corrected: CorrectedSeq

    @property
    def residual(self) -> Operator:
        """P_N^{B^{k_min}}, the kernel left below the truncation point."""
        return self.corrected.bands[-1][2][self.corrected.martingale.N]


def weak_max(y: Martingale, B: float, sign: str = "+") -> WeakMax:
    """a_N^+ = sum_k B^k (P_N^{B^{k+1}} - P_N^{B^k}); a_N^- = a_N^+(-y).

    Only the top level of each band of `corrected_p` has a nonzero term.
    Spectral mass below the truncation point B^{k_min} is assigned to the
    residual kernel projection; the moment verifications account for it
    with an analytic geometric tail.
    """
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    base_y = y if sign == "+" else -y
    cp = corrected_p(base_y, B, final_only=True)
    N = base_y.N
    acc = y.algebra.zero()
    for high, _, col in reversed(cp.bands):
        acc = acc + (cp.P(N, high + 1) - col[N]) * (B ** high)
    return WeakMax(acc.symmetrized(), cp)


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
    for high, low, col in reversed(cp.bands):
        lhs = lhs + (ident - col[N]) * sum(B ** (k * (p - 2.0)) for k in range(low, high + 1))
    tail_coeff = B ** (cp.k_min * (p - 2.0)) / (1.0 - B ** (-(p - 2.0)))
    lhs = lhs + (ident - wm.residual) * tail_coeff
    rhs = psd_power(wm.operator, p - 2.0) * (1.0 / (1.0 - B ** (2.0 - p)))
    return operator_norm(lhs - rhs) / (1.0 + operator_norm(rhs))
