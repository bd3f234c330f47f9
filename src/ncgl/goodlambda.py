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

On a direct sum of trials the strong conditions, the labels and the core and
tail bounds run once and give one result per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cuculescu import WeakMax, corrected_p, cuculescu_r, weak_max
from .errors import DomainError
from .filtration import Martingale, cond_exp
from .instances import gaussian_hermitian, stream
from .opalgebra import (
    Interval,
    Operator,
    min_eigenvalue,
    operator_norm,
    schatten_norm,
    spectral_projection,
    trace,
    trace_pair,
)
from .reports import VerifyReport, report_tolerance

__all__ = [
    "Triple",
    "check_testing",
    "check_strong_testing",
    "hypothesis_status",
    "verify_core",
    "verify_tail",
    "verify_good_hom",
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
        """The labels of :func:`hypothesis_status`, computed once per triple."""
        return hypothesis_status(self)

    @cached_property
    def squares(self) -> tuple[Operator, Operator, tuple[Operator, ...]]:
        """x_N^2, z_N^2 and the dy_n^2, formed once per triple."""
        square = lambda a: (a @ a).symmetrized()
        return square(self.x), square(self.z), tuple(map(square, self.y.diffs))

    def scale(self, mu: float) -> "Triple":
        return Triple(self.x * mu, self.y.scale(mu), self.z * mu)

    def summand(self, i: int) -> "Triple":
        return Triple(self.x.summand(i), self.y.summand(i), self.z.summand(i))


def _one_trial(t: Triple) -> None:
    """For the checks that reduce over the whole algebra."""
    if t.algebra.summands > 1:
        raise DomainError("this check takes one trial: see Triple.summand")


# ---------------------------------------------------------------------------
# testing conditions
# ---------------------------------------------------------------------------


def check_testing(
    t: Triple,
    seed: int = 0,
    n_random: int = 50,
) -> tuple[bool, float, float]:
    """Check the two trace testing conditions of the triple.

    Condition (i) is the exact double-sum domination by tau((I-R_N) x_N^2).
    Condition (ii) quantifies over all projections in the level subalgebras;
    it is sampled over a structured family (identity, the R_j and the level-2
    Q_j for j <= k, and seeded random spectral projections in the range of
    E_k), so a pass here is a "sampled-pass", not a certificate.  Returns
    (passed, slack_i, slack_ii) where the slacks are the worst margins seen.
    """
    _one_trial(t)
    y = t.y
    seq = cuculescu_r(y, 1.0)
    qseq = cuculescu_r(y, 2.0)
    ident = t.algebra.identity()
    x_sq, z_sq, dy_sq = t.squares

    # (i)
    double_sum = 0.0
    for n in range(y.N + 1):
        d_n = seq.R(n - 1) - seq.R(n)
        if d_n.entry_max() == 0.0:
            continue
        r_prev = seq.R(n - 1)
        for k in range(n + 1, y.N + 1):
            inner = y.diffs[k] @ r_prev @ y.diffs[k]
            double_sum += float(trace_pair(inner, d_n).real)
    rhs_i = float(trace_pair(x_sq, ident - seq.final()).real)
    slack_i = rhs_i - double_sum
    pass_i = slack_i >= -report_tolerance(rhs_i)

    # (ii): sampled projections in the range of E_k
    rng = stream(seed, 7701)
    slack_ii = math.inf
    pass_ii = True
    for k in range(y.N + 1):
        w = z_sq - dy_sq[k]
        candidates = [ident]
        candidates += [seq.R(j) for j in range(k + 1)]
        candidates += [qseq.R(j) for j in range(k + 1)]
        for _ in range(n_random):
            h = cond_exp(t.filtration, k, gaussian_hermitian(t.algebra, rng))
            hi = operator_norm(h)
            cut = float(rng.uniform(-hi, hi)) if hi > 0.0 else 0.0
            candidates.append(spectral_projection(h, Interval.at_least(cut)))
        for p in candidates:
            gain = float(trace_pair(w, p).real)
            ref = float(trace_pair(z_sq, p).real)
            slack_ii = min(slack_ii, gain)
            if gain < -report_tolerance(ref):
                pass_ii = False
    return bool(pass_i and pass_ii), float(slack_i), float(slack_ii)


def check_strong_testing(t: Triple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PSD form of the testing conditions, checked for every level k.

    Returns (passed, margin_x, margin_z), arrays over the summands: the minimum
    eigenvalues of E_k(x_N^2) - sum_{m>k} E_k(dy_m^2) and E_k(z_N^2) - dy_k^2
    over k; both must be >= -1e-8.
    """
    y = t.y
    filt = t.filtration
    x_sq, z_sq, dy_sq = t.squares

    suffix = t.algebra.zero()
    suffixes = [suffix]  # suffixes[j] = sum_{m > N-j} dy_m^2, built backwards
    for m in range(y.N, 0, -1):
        suffix = suffix + dy_sq[m]
        suffixes.append(suffix)
    suffixes = suffixes[::-1]  # suffixes[k] = sum_{m>k} dy_m^2

    margin_x = np.full(t.algebra.summands, math.inf)
    margin_z = np.full(t.algebra.summands, math.inf)
    for k in range(y.N + 1):
        gap_x = cond_exp(filt, k, x_sq - suffixes[k])
        margin_x = np.minimum(margin_x, min_eigenvalue(gap_x, per_summand=True))
        gap_z = cond_exp(filt, k, z_sq) - dy_sq[k]
        margin_z = np.minimum(margin_z, min_eigenvalue(gap_z, per_summand=True))
    passed = (margin_x >= -1e-8) & (margin_z >= -1e-8)
    return passed, margin_x, margin_z


def hypothesis_status(t: Triple) -> tuple[str, ...]:
    """'strong-pass' (certificate), 'sampled-pass', or 'unverified' per
    summand; one without the certificate is sampled on its own triple."""
    return tuple(
        "strong-pass" if strong
        else "sampled-pass" if check_testing(t.summand(i))[0]
        else "unverified"
        for i, strong in enumerate(check_strong_testing(t)[0]))


# ---------------------------------------------------------------------------
# the two distribution inequalities
# ---------------------------------------------------------------------------


def _rhs_weights(t: Triple, proj: Operator) -> np.ndarray:
    return trace_pair(t.squares[0] + t.squares[1], proj, per_summand=True).real


def _reports(lhs, rhs, constant: float, meta: dict, t: Triple) -> tuple[VerifyReport, ...]:
    return tuple(VerifyReport.compare(a, b, constant, {**meta, "hypothesis": label})
                 for a, b, label in zip(lhs, rhs, t.hypothesis))


def verify_core(t: Triple, level: float = 1.0) -> tuple[VerifyReport, ...]:
    """tau((I-R_N)(y_N - level)^2) <= 2 tau((I-R_N)(x_N^2 + z_N^2)) per summand."""
    seq = cuculescu_r(t.y, level)
    ident = t.algebra.identity()
    tail = ident - seq.final()
    dev = t.y.final - ident * level
    lhs = trace_pair(dev @ tail @ dev, ident, per_summand=True).real
    rhs = 2.0 * _rhs_weights(t, tail)
    return _reports(lhs, rhs, 2.0, {"level": level}, t)


def verify_tail(t: Triple, beta: float, level: float = 1.0) -> tuple[VerifyReport, ...]:
    """tau(I - Q_N^{level*beta}) <= 4 ((beta-1) level)^{-2} tau((I-R_N^{level})
    (x_N^2 + z_N^2)) per summand; at level = 1 this is the plain tail bound."""
    if not (beta > 1):
        raise DomainError("beta must exceed 1")
    if not (level > 0):
        raise DomainError("the level must be positive")
    # the threshold ratio beta exceeds 1; the absolute cut beta*level may not
    qseq = cuculescu_r(t.y, beta * level)
    rseq = cuculescu_r(t.y, level)
    ident = t.algebra.identity()
    lhs = trace(ident - qseq.final(), per_summand=True)
    const = 4.0 / ((beta - 1.0) * level) ** 2
    rhs = const * _rhs_weights(t, ident - rseq.final())
    return _reports(lhs, rhs, const, {"beta": beta, "level": level}, t)


def verify_good_hom(t: Triple, B: float, k: int) -> VerifyReport:
    """Homogenized tail bound on the corrected projections at scale B^k.

    tau(P_N^{B^{k+2}} - P_N^{B^{k+1}})
        <= 4 B^{-2k} (B-1)^{-2} tau((I - P_N^{B^k})(x_N^2 + z_N^2)).
    """
    _one_trial(t)
    cp = corrected_p(t.y, B, k_min=k, final_only=True)
    N = t.y.N
    lhs = trace(cp.P(N, k + 2) - cp.P(N, k + 1))
    const = 4.0 * B ** (-2.0 * k) / (B - 1.0) ** 2
    rhs = const * _rhs_weights(t, t.algebra.identity() - cp.P(N, k))[0]
    meta = {"B": B, "k": k, "hypothesis": t.hypothesis[0]}
    return VerifyReport.compare(lhs, rhs, const, meta)


# ---------------------------------------------------------------------------
# moment estimates
# ---------------------------------------------------------------------------


def _weak_max_constant(p: float, B: float) -> float:
    """2 B^{p/2} / ((B-1) (1 - B^{2-p})^{1/2}), the bound on ||a_N^±||_p."""
    return 2.0 * B ** (p / 2.0) / ((B - 1.0) * math.sqrt(1.0 - B ** (2.0 - p)))


def _moment_factor(p: float) -> float:
    """12p / (1 - (1+1/p)^{2-p})^{1/2}, the simplified moment constant."""
    if not (p > 2):
        raise DomainError("the moment bound needs p > 2")
    return 12.0 * p / math.sqrt(1.0 - (1.0 + 1.0 / p) ** (2.0 - p))


def moment_constant(p: float, B: float) -> tuple[float, float]:
    """(C_{p,B}, simplified 12p bound) for the final moment inequality."""
    if not (p > 2):
        raise DomainError("the moment bound needs p > 2")
    if not (B > 1):
        raise DomainError("the base B must exceed 1")
    first = (2.0 * p * B ** (p - 1.0) * (B - 1.0) / (1.0 - B ** (-p))) ** (1.0 / p)
    c_pb = first * _weak_max_constant(p, B)
    return float(c_pb), float(_moment_factor(p))


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


def verify_moment(t: Triple, p: float, B: float | None = None) -> MomentReports:
    """Verify the weak-maximal and final moment bounds at exponent p > 2.

    B defaults to 1 + 1/p, the choice under which C_{p,B} collapses to the
    simplified 12p bound.  The strong testing conditions are scale invariant,
    so the mu = 1 hypothesis check covers every rescaled level.
    """
    if not (p > 2):
        raise DomainError("the moment bound needs p > 2")
    _one_trial(t)
    if B is None:
        B = 1.0 + 1.0 / p
    if not (B > 1):
        raise DomainError("the base B must exceed 1")
    hyp_norm = math.sqrt(schatten_norm(t.x, p) ** 2 + schatten_norm(t.z, p) ** 2)
    max_const = _weak_max_constant(p, B)
    c_pb, simplified = moment_constant(p, B)

    wm_plus = weak_max(t.y, B, "+")
    wm_minus = weak_max(t.y, B, "-")
    meta = {"p": p, "B": B, "hypothesis": t.hypothesis[0]}

    rep_plus = VerifyReport.compare(
        schatten_norm(wm_plus.operator, p), max_const * hyp_norm, max_const,
        {**meta, "side": "+"},
    )
    rep_minus = VerifyReport.compare(
        schatten_norm(wm_minus.operator, p), max_const * hyp_norm, max_const,
        {**meta, "side": "-"},
    )
    y_norm = schatten_norm(t.y.final, p)
    rep_final = VerifyReport.compare(
        y_norm, c_pb * hyp_norm, c_pb, {**meta, "bound": "C_pB"},
    )
    rep_simple = VerifyReport.compare(
        y_norm, simplified * hyp_norm, simplified, {**meta, "bound": "12p"},
    )
    return MomentReports(rep_plus, rep_minus, rep_final, rep_simple, wm_plus)
