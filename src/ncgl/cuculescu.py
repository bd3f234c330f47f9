"""Cuculescu projection sequences, corrected projections, weak maximal operators.

The recursion R_n = R_{n-1} I_{(-inf,1)}(R_{n-1} (y_n/level) R_{n-1}) is the
noncommutative stand-in for the running event "the martingale has stayed
below the level so far".  The two-parameter family P_n^{B^k} (lattice meets
over all higher levels) restores joint monotonicity in time and level, and
the weak maximal operators a_N^± are the spectral staircases built from the
increments of that family.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalInstabilityError
from .filtration import Martingale, cond_exp
from .opalgebra import (
    Operator,
    level_thresholds,
    min_eigenvalue,
    operator_norm,
    proj_meet,
    psd_power,
    spectral_cuts,
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
    eigs = [e for e, _ in sym.spectrum[0]]
    drift = max(float(np.abs(e - (e >= 0.5)).max()) for e in eigs)
    if drift > _DRIFT_LIMIT:
        raise NumericalInstabilityError(
            f"projection drifted by {drift:.2e} from idempotency"
        )
    return _normalized(spectral_cuts(sym, [(e >= 0.5)[None] for e in eigs]))


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
    """R_{-1} = I and R_0..R_N with their measurements, and the levels
    lo < level <= hi at which every one of their cuts is made."""

    lo: float
    hi: float
    projections: tuple[Operator, ...]
    steps: tuple[_Step, ...]

    def R(self, n: int) -> Operator:
        if n == -1:
            return self.projections[0].algebra.identity()
        return self.projections[n]

    def final(self) -> Operator:
        return self.projections[-1]


def _check_level(seq: CuculescuSeq, level: float) -> None:
    """The Lemma invariants of `seq` as a level-`level` sequence, from its
    stored measurements (the cut-off bound through `_Step.top`).

    Tolerances scale with 1 + ||y_n||/level of each summand: products with
    y_n/level carry rounding of that size.  As computed, the adapted test fails
    on an up-set of levels, the commutation and cut-off tests on a down-set,
    and the monotone test on all or none: a run's two ends decide for it all.
    """
    fail = NumericalInstabilityError
    for n, s in enumerate(seq.steps):
        for i, (norm, adapted, monotone, commutator, top) in enumerate(s.summands):
            # membership in M_n
            if adapted > 1e-9 * (1.0 + norm / level):
                raise fail(f"R_{n} left the level-{n} subalgebra (summand {i})")
            if monotone < -1e-9:
                raise fail(f"R_{n} is not below R_{n-1} (summand {i})")
            # commutation with the compressed martingale value
            if commutator > 1e-8 * (level + norm):
                raise fail(f"R_{n} fails to commute at step {n} (summand {i})")
            if level - top < -1e-8 * (level + norm):
                raise fail(f"R_{n} y_n R_{n} exceeds R_{n} (summand {i})")


@dataclass(eq=False)
class _Node:
    """R_n on one branch of a martingale's tree of Cuculescu steps, with the
    sequence R_0..R_n that leads to it (none at the root, where R_{-1} = I),
    and, formed once for its first child, the cut of the next step: the
    unscaled C = R_n y_{n+1} R_n, per run the threshold t(e) of each
    eigenvalue e of C, and every threshold in ascending order."""

    r: Operator
    seq: CuculescuSeq
    cut: tuple | None = None


def _cut(r: Operator, y_next: Operator) -> tuple:
    """C = R y_{n+1} R and the thresholds of `level_thresholds`: the cut of
    C/l below 1 keeps an eigenvalue iff l exceeds its threshold."""
    c = (r @ y_next @ r).symmetrized()
    t = level_thresholds(c)
    return c, t, sorted(np.concatenate([x.ravel() for x in t]).tolist())


def _child(y: Martingale, n: int, node: _Node, keep: list, lo: float, hi: float) -> _Node:
    """The step from `node` that keeps the eigenvalues of its C marked in
    `keep`, made at the levels lo < l <= hi: R_n = R_{n-1} I(C/l < 1),
    snapped, and its measurements."""
    r_prev, (c, _, _), y_n = node.r, node.cut, y.values[n]
    r_n = _snap_projection(r_prev @ spectral_cuts(c, keep))
    step = _Step(
        norm=operator_norm(y_n, per_summand=True),
        adapted=(cond_exp(y.filtration, n, r_n) - r_n).entry_max(per_summand=True),
        monotone=min_eigenvalue(r_prev - r_n, per_summand=True),
        commutator=(r_n @ c - c @ r_n).entry_max(per_summand=True),
        top=[-t for t in min_eigenvalue(-(r_n @ y_n @ r_n).symmetrized(), per_summand=True)],
    )
    seq = node.seq
    return _Node(r_n, CuculescuSeq(max(seq.lo, lo), min(seq.hi, hi),
                                   seq.projections + (r_n,), seq.steps + (step,)))


def cuculescu_r(y: Martingale, level: float) -> CuculescuSeq:
    """The level-`level` Cuculescu sequence of a self-adjoint martingale.

    R_n only changes where the level crosses a threshold of an eigenvalue of
    C = R_{n-1} y_n R_{n-1}, so the sequences of all levels form one tree
    per martingale (`Martingale.cuculescu_cache`), each step computed once.
    The walk from its root takes at each node the child of the thresholds
    below the level, built on first use from that one comparison, and
    returns the record stored at the leaf, whose window lo < level <= hi
    is exact.  The Lemma invariants are checked from the stored measurements
    at every level returned.
    """
    if not (level > 0):
        raise DomainError("the cut level must be positive")
    if not y.is_selfadjoint():
        raise DomainError("Cuculescu projections need a self-adjoint martingale")
    tree, path = y.cuculescu_cache, ()
    if not tree:
        tree[path] = _Node(y.algebra.identity(), CuculescuSeq(0.0, math.inf, (), ()))
    node = tree[path]
    for n, y_n in enumerate(y.values):
        if node.cut is None:
            node.cut = _cut(node.r, y_n)
        _, t, ordered = node.cut
        k = bisect.bisect_left(ordered, level)  # the thresholds below the level
        path += (k,)
        if path not in tree:
            tree[path] = _child(y, n, node, [(x < level)[None] for x in t],
                                ordered[k - 1] if k else 0.0,
                                ordered[k] if k < len(ordered) else math.inf)
        node = tree[path]
    _check_level(node.seq, level)
    return node.seq


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
    exact, not an approximation.  A band is one pass: one sequence, one meet,
    its ends checked (see `_check_level`).  An all-zero column holds to k_min.
    """
    if not (B > 1):
        raise DomainError("the base B must exceed 1")
    if not y.is_selfadjoint():
        raise DomainError("corrected projections need a self-adjoint martingale")
    lo, k = _k_range(y, B, k_min)
    rows = (y.N,) if final_only else tuple(range(y.N + 1))
    col, bands = {n: y.algebra.identity() for n in rows}, []
    while k >= lo:
        seq = cuculescu_r(y, B ** k)
        col = {n: above if above.rank() == 0 else _normalized(proj_meet(seq.R(n), above))
               for n, above in col.items()}
        low = lo
        if any(p.rank() > 0 for p in col.values()):
            # the band's bottom, the lowest level above seq.lo, sought from below it
            start = math.floor(math.log(seq.lo, B)) - 1 if seq.lo > 0 else lo
            low = next((j for j in range(max(lo, start), k) if B ** j > seq.lo), k)
            _check_level(seq, B ** low)
        bands.append((k, low, col))
        k = low - 1
    return CorrectedSeq(y, float(B), tuple(bands))


@dataclass(frozen=True, eq=False)
class WeakMax:
    """One-sided weak maximal operator a_N^± with its residual kernel."""

    operator: Operator
    corrected: CorrectedSeq

    @property
    def residual(self) -> Operator:
        """P_N^{B^{k_min}}, the kernel left below the truncation point."""
        return self.corrected.bands[-1][2][self.corrected.martingale.N]


def weak_max(y: Martingale, B: float) -> WeakMax:
    """a_N^+ = sum_k B^k (P_N^{B^{k+1}} - P_N^{B^k}); a_N^- is weak_max(-y, B).

    Only the top level of each band of `corrected_p` has a nonzero term.
    Spectral mass below the truncation point B^{k_min} is assigned to the
    residual kernel projection; the moment verifications account for it
    with an analytic geometric tail.
    """
    cp = corrected_p(y, B, final_only=True)
    acc = sum(((cp.P(y.N, high + 1) - col[y.N]) * (B ** high)
               for high, _, col in reversed(cp.bands)), y.algebra.zero())
    return WeakMax(acc.symmetrized(), cp)


def _band_sum(B: float, q: float, top: int, n: int) -> float:
    """sum_{j=0}^{n-1} B^{(top - j) q}, in closed form from the top term down:
    B^{top q} (1 - B^{-n q}) / (1 - B^{-q}).  With top <= 0 nothing overflows,
    and expm1 keeps both factors exact to rounding as q -> 0."""
    ln_b = math.log(B)
    return B ** (top * q) * math.expm1(-n * q * ln_b) / math.expm1(-q * ln_b)


def fubini_identity_gap(wm: WeakMax, p: float) -> float:
    """Relative gap ||lhs - rhs|| / (1 + ||rhs||) in the summation identity
    linking P_N^{B^k} and a_N^+.

    lhs: sum over the truncated k-range of B^{k(p-2)} (I - P_N^{B^k}) plus the
    analytic geometric tail below the truncation point; rhs is
    (a_N^+)^{p-2} / (1 - B^{2-p}).  Both are formed divided by c = B^{h(p-2)},
    B^h = ||a_N^+||, as l and r, and the gap is c ||l - r|| / (1 + c ||r||): at
    large p no power overflows and no top term underflows.  Each band's levels
    share one projection, and their geometric sum is one closed-form term.
    """
    if p <= 2:
        raise DomainError("the identity needs p > 2")
    cp = wm.corrected
    B, N, q = cp.base, cp.martingale.N, p - 2.0
    alg = cp.martingale.algebra
    ident = alg.identity()
    # P_N^{B^k} falls with k, so the bands where it is not I are the lowest
    bands = [(hi, lo, col) for hi, lo, col in cp.bands if col[N].rank() < alg.total_dim]
    if not bands:  # a_N^+ = 0 and P_N^{B^k} = I: both sides are 0
        return 0.0
    h = bands[0][0]
    lhs = sum(((ident - col[N]) * _band_sum(B, q, high - h, high - low + 1)
               for high, low, col in reversed(bands)), alg.zero())
    tail_coeff = B ** ((cp.k_min - h) * q) / (1.0 - B ** (-q))
    lhs = lhs + (ident - wm.residual) * tail_coeff
    rhs = psd_power(wm.operator / B ** h, q) * (1.0 / (1.0 - B ** (2.0 - p)))
    # c = up / down, with the factor that would overflow kept at 1
    up, down = B ** (min(h, 0) * q), B ** (-max(h, 0) * q)
    return up * operator_norm(lhs - rhs) / (down + up * operator_norm(rhs))
