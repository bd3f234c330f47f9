"""Good-lambda testing conditions and the core distribution/moment bounds.

A triple (x_N, y, z_N) -- a self-adjoint martingale flanked by two
self-adjoint operators -- either satisfies the trace testing conditions or it
does not; when it does, the trace inequality

    tau((I - R_N)(y_N - I)^2) <= 2 tau((I - R_N)(x_N^2 + z_N^2))

holds for the level-1 Cuculescu sequence R, the tail bound

    tau(I - Q_N) <= 4 (beta-1)^{-2} tau((I - R_N)(x_N^2 + z_N^2))

holds for every beta > 1, and for p > 2 the weak maximal operators obey the
explicit moment estimates that combine into

    ||y_N||_p <= C_{p,B} (||x_N||_p^2 + ||z_N||_p^2)^{1/2}.

On a direct sum of trials the testing conditions, the labels and the core,
tail and moment bounds run once and give one result per trial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cuculescu import WeakMax, cuculescu_r, weak_maxima
from .errors import DomainError
from .filtration import Martingale, cond_exp
from .opalgebra import Operator, direct_sum, min_eigenvalue, schatten_norm, trace, trace_pair
from .reports import VerifyReport

__all__ = [
    "Triple",
    "check_testing",
    "check_strong_testing",
    "hypothesis_status",
    "verify_core",
    "verify_tail",
    "tail_constant",
    "simplified_moment_constant",
    "moment_constant",
    "verify_moment",
    "MomentReports",
]


@dataclass(frozen=True, eq=False)
class Triple:
    """(x_N, y, z_N) on one filtered algebra; x_N, z_N and all y_n Hermitian;
    on a direct sum of trials each summand is one trial's triple."""

    x: Operator
    y: Martingale
    z: Operator

    def __post_init__(self):
        if not (self.x.hermitian and self.z.hermitian):
            raise DomainError("x_N and z_N must be Hermitian")
        if not self.y.is_selfadjoint():
            raise DomainError("y must be a self-adjoint martingale")
        if self.x.algebra.dims != self.y.algebra.dims or \
           self.z.algebra.dims != self.y.algebra.dims:
            raise DomainError("triple members live on different algebras")

    @property
    def filtration(self):
        return self.y.filtration

    @property
    def algebra(self):
        return self.y.algebra

    @cached_property
    def hypothesis(self) -> tuple[str, ...]:
        """The labels of :func:`hypothesis_status` at level 1, computed once per triple."""
        return hypothesis_status(self)

    @cached_property
    def squares(self) -> tuple[Operator, Operator, tuple[Operator, ...]]:
        """x_N^2, z_N^2 and the dy_n^2, formed once per triple."""
        square = lambda a: (a @ a).symmetrized()
        return square(self.x), square(self.z), tuple(map(square, self.y.diffs))

    @cached_property
    def tolerances(self) -> tuple[np.ndarray, np.ndarray]:
        """The gates of the x and z testing margins, per summand: 1e-8 times
        the largest entry of x_N^2 or z_N^2 and of the dy_n^2, the terms of
        that margin, so each gate scales as its margin does and a large x
        loosens no z margin, nor a large z an x margin."""
        x_sq, z_sq, dy_sq = self.squares
        scale = lambda ops: 1e-8 * np.max([a.entry_max(per_summand=True) for a in ops], axis=0)
        return scale((x_sq, *dy_sq)), scale((z_sq, *dy_sq))

    def scale(self, mu: float) -> "Triple":
        return Triple(self.x * mu, self.y.scale(mu), self.z * mu)


# ---------------------------------------------------------------------------
# testing conditions
# ---------------------------------------------------------------------------


def check_testing(t: Triple, level: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the two trace testing conditions of the triple at `level`.

    Condition (i) is the exact double-sum domination by tau((I-R_N) x_N^2),
    R the Cuculescu sequence of y at `level`.
    Condition (ii), tau(dy_k^2 p) <= tau(z_N^2 p) for every projection p of
    the level-k algebra, holds exactly when E_k(z_N^2) - dy_k^2 >= 0 (take p
    its negative spectral projection), so it is check_strong_testing's z
    margin.  Returns (passed, slack_i, slack_ii), arrays over the summands
    like check_strong_testing's, with slack_ii that margin.  Slack (ii) is
    gated as that margin is, and slack (i), a trace of x_N^2 and the dy_k^2,
    at the x gate of `Triple.tolerances` times tau(I) of its summand.
    """
    y = t.y
    seq = cuculescu_r(y, level)

    # (i), per summand; a summand whose d_n is 0 adds exact zeros
    double_sum = np.zeros(t.algebra.summands)
    for n in range(y.N + 1):
        d_n = seq.R(n - 1) - seq.R(n)
        if d_n.entry_max() == 0.0:
            continue
        r_prev = seq.R(n - 1)
        for k in range(n + 1, y.N + 1):
            inner = y.diffs[k] @ r_prev @ y.diffs[k]
            double_sum += trace_pair(inner, d_n, per_summand=True).real
    rhs_i = trace_pair(t.squares[0], t.algebra.identity() - seq.final(), per_summand=True).real
    slack_i = rhs_i - double_sum

    # (ii)
    slack_ii = check_strong_testing(t)[2]
    tol_x, tol_z = t.tolerances
    tol_i = tol_x * trace(t.algebra.identity(), per_summand=True)
    return (slack_i >= -tol_i) & (slack_ii >= -tol_z), slack_i, slack_ii


def check_strong_testing(t: Triple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PSD form of the testing conditions, checked for every level k.

    Returns (passed, margin_x, margin_z), arrays over the summands: the minimum
    eigenvalues of E_k(x_N^2) - sum_{m>k} E_k(dy_m^2) and E_k(z_N^2) - dy_k^2
    over k; each must be >= minus its gate in `Triple.tolerances`, relative
    to the summand's scale of its own terms, so a rescaled triple passes
    where the triple does.
    """
    filt = t.filtration
    x_sq, z_sq, dy_sq = t.squares

    # suffixes[k] = sum_{m>k} dy_m^2, accumulated from m = N down
    suffixes = list(itertools.accumulate(reversed(dy_sq[1:]), initial=t.algebra.zero()))[::-1]

    margin_x = np.full(t.algebra.summands, math.inf)
    margin_z = np.full(t.algebra.summands, math.inf)
    for k in range(t.y.N + 1):
        gap_x = cond_exp(filt, k, x_sq - suffixes[k])
        margin_x = np.minimum(margin_x, min_eigenvalue(gap_x, per_summand=True))
        gap_z = cond_exp(filt, k, z_sq) - dy_sq[k]
        margin_z = np.minimum(margin_z, min_eigenvalue(gap_z, per_summand=True))
    tol_x, tol_z = t.tolerances
    passed = (margin_x >= -tol_x) & (margin_z >= -tol_z)
    return passed, margin_x, margin_z


def hypothesis_status(t: Triple, level: float = 1.0) -> tuple[str, ...]:
    """'strong-pass' (certificate, at every level), 'testing-pass' (at
    `level`), or 'unverified' per summand; when some summand lacks the
    certificate, check_testing runs once on the whole triple."""
    strong = check_strong_testing(t)[0]
    testing = strong if strong.all() else check_testing(t, level)[0]
    return tuple("strong-pass" if s else "testing-pass" if ok else "unverified"
                 for s, ok in zip(strong, testing))


# ---------------------------------------------------------------------------
# the two distribution inequalities
# ---------------------------------------------------------------------------


def _rhs_weights(t: Triple, proj: Operator) -> np.ndarray:
    return trace_pair(t.squares[0] + t.squares[1], proj, per_summand=True).real


def _reports(lhs, rhs, constant: float, meta: dict, t: Triple) -> tuple[VerifyReport, ...]:
    # the labels at meta's level, level 1's cached on the triple
    labels = t.hypothesis if meta["level"] == 1.0 else hypothesis_status(t, meta["level"])
    return tuple(VerifyReport.compare(a, b, constant, {**meta, "hypothesis": label})
                 for a, b, label in zip(lhs, rhs, labels))


def verify_core(t: Triple, level: float = 1.0) -> tuple[VerifyReport, ...]:
    """tau((I-R_N)(y_N - level)^2) <= 2 tau((I-R_N)(x_N^2 + z_N^2)) per summand."""
    seq = cuculescu_r(t.y, level)
    ident = t.algebra.identity()
    tail = ident - seq.final()
    dev = t.y.final - ident * level
    lhs = trace_pair(dev @ tail @ dev, ident, per_summand=True).real
    rhs = 2.0 * _rhs_weights(t, tail)
    return _reports(lhs, rhs, 2.0, {"level": level}, t)


def tail_constant(beta: float, level: float = 1.0) -> float:
    """4 ((beta-1) level)^{-2}, the constant of the tail bound; a DomainError
    where it leaves the float range."""
    try:
        const = 4.0 / ((beta - 1.0) * level) ** 2
    except ArithmeticError:  # the square overflows, or underflows to 0
        const = 0.0
    if not 0.0 < const < math.inf:
        raise DomainError(f"the tail constant 4/((beta-1) level)^2 leaves the float range"
                          f" at beta = {beta!r}, level = {level!r}")
    return const


def verify_tail(t: Triple, beta: float, level: float = 1.0) -> tuple[VerifyReport, ...]:
    """tau(I - Q_N^{level*beta}) <= 4 ((beta-1) level)^{-2} tau((I-R_N^{level})
    (x_N^2 + z_N^2)) per summand; at level = 1 this is the plain tail bound."""
    if not (beta > 1):
        raise DomainError("beta must exceed 1")
    if not (level > 0):
        raise DomainError("the level must be positive")
    const = tail_constant(beta, level)
    # the threshold ratio beta exceeds 1; the absolute cut beta*level may not
    qseq = cuculescu_r(t.y, beta * level)
    rseq = cuculescu_r(t.y, level)
    ident = t.algebra.identity()
    lhs = trace(ident - qseq.final(), per_summand=True)
    rhs = const * _rhs_weights(t, ident - rseq.final())
    return _reports(lhs, rhs, const, {"beta": beta, "level": level}, t)


# ---------------------------------------------------------------------------
# moment estimates
# ---------------------------------------------------------------------------


def _weak_max_constant(p: float, B: float) -> float:
    """2 B^{p/2} / ((B-1) (1 - B^{2-p})^{1/2}), the bound on ||a_N^±||_p."""
    return 2.0 * B ** (p / 2.0) / ((B - 1.0) * math.sqrt(1.0 - B ** (2.0 - p)))


def simplified_moment_constant(p: float) -> float:
    """12p / (1 - (1+1/p)^{2-p})^{1/2}, the simplified moment constant; the
    power goes through log1p, as 1 + 1/p may round to 1."""
    if not (p > 2):
        raise DomainError("the moment bound needs p > 2")
    return 12.0 * p / math.sqrt(1.0 - math.exp((2.0 - p) * math.log1p(1.0 / p)))


def moment_constant(p: float, B: float) -> tuple[float, float]:
    """(C_{p,B}, simplified 12p bound) for the final moment inequality; a
    DomainError where C_{p,B} passes the float range."""
    if not (p > 2):
        raise DomainError("the moment bound needs p > 2")
    if not (B > 1):
        raise DomainError("the base B must exceed 1")
    # (2p B^{p-1} (B-1) / (1 - B^{-p}))^{1/p}; B^{p-1} alone may overflow.  This
    # first factor exceeds 1, so C_{p,B} overflows wherever _weak_max_constant does
    try:
        first = B ** (1.0 - 1.0 / p) * (2.0 * p * (B - 1.0) / (1.0 - B ** (-p))) ** (1.0 / p)
        c_pb = first * _weak_max_constant(p, B)
    except OverflowError:
        c_pb = math.inf
    if c_pb == math.inf:
        raise DomainError(f"C_{{p,B}} passes the float range at p = {p!r}, B = {B!r}")
    return float(c_pb), float(simplified_moment_constant(p))


@dataclass(frozen=True, eq=False)
class MomentReports:
    """Sub-reports of the moment verification: a_N^+, a_N^-, final bounds,
    and the weak maximal operator a_N^+ they were measured on."""

    max_plus: VerifyReport
    max_minus: VerifyReport
    moment: VerifyReport
    moment_simplified: VerifyReport
    weak_plus: WeakMax

    def all_passed(self) -> bool:
        return (self.max_plus.passed and self.max_minus.passed
                and self.moment.passed and self.moment_simplified.passed)


def verify_moment(t: Triple, ys: list[Martingale], p: float,
                  B: float | None = None) -> tuple[MomentReports, ...]:
    """Verify the weak-maximal and final moment bounds at exponent p > 2, one
    MomentReports per summand of `t`.

    `ys` are the trials whose direct sum is t.y, each with its own Cuculescu
    tree: a_N^± is weak_max of each, as a tree of the sum would branch at the
    union of every trial's thresholds; all a_N^+ are one `weak_maxima`, then
    all a_N^-.  A lone trial is a batch of one, verify_moment(t, [t.y], p).
    The labels are one hypothesis_status of the whole triple, and each norm
    is one per-summand schatten_norm.  B defaults to 1 + 1/p, under which
    C_{p,B} collapses to the simplified 12p bound.  Each testing margin is
    gated relative to its summand's scale of its own terms (`Triple.tolerances`),
    so t.scale(mu) has the strong certificate where t has it, at every mu.
    """
    if not (p > 2):
        raise DomainError("the moment bound needs p > 2")
    finals = t.y.final.parts(ys[0].algebra) if ys else []
    if len(ys) != t.algebra.summands or not all(
            all(map(np.array_equal, a.stacks, y.final.stacks)) for a, y in zip(finals, ys)):
        raise DomainError("ys must be the trials whose direct sum is t.y")
    if B is None:
        B = 1.0 + 1.0 / p
    c_pb, simplified = moment_constant(p, B)
    max_const = _weak_max_constant(p, B)
    norms = lambda a: schatten_norm(a, p, per_summand=True)
    hyp_norms = [math.sqrt(a ** 2 + b ** 2) for a, b in zip(norms(t.x), norms(t.z))]
    y_norms = norms(t.y.final)
    maxima = weak_maxima(ys, B), weak_maxima([-y for y in ys], B)
    max_norms = [norms(direct_sum([wm.operator for wm in side])) for side in maxima]
    out = []
    for i, label in enumerate(t.hypothesis):
        meta = {"p": p, "B": B, "hypothesis": label}
        rep_plus, rep_minus = (
            VerifyReport.compare(a[i], max_const * hyp_norms[i], max_const, {**meta, "side": side})
            for a, side in zip(max_norms, "+-"))
        rep_final, rep_simple = (
            VerifyReport.compare(y_norms[i], c * hyp_norms[i], c, {**meta, "bound": bound})
            for c, bound in ((c_pb, "C_pB"), (simplified, "12p")))
        out.append(MomentReports(rep_plus, rep_minus, rep_final, rep_simple, maxima[0][i]))
    return tuple(out)
