"""Burkholder-Gundy, transform, Stein/Doob, tangent-sequence and refined-Doob
verifications, together with the matrix embeddings they are proved through.

All `verify_*` functions compute both sides of the final inequality with the
constants assembled exactly as in the underlying proofs and report the
margin; the `*_embed` constructors build the enlarged-algebra instances and
assert their structural identities on the spot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .filtration import (
    Filtration,
    Martingale,
    cond_exp,
    lift_with_matrix_factor,
    make_filtration,
    martingale_from_diffs,
    martingale_from_final,
    sign_matrix_filtration,
    square_function,
)
from .goodlambda import _moment_factor
from .instances import gaussian_hermitian, stream
from .opalgebra import (
    Interval,
    Operator,
    abs_spectral_trace,
    cluster_eigenvalues,
    min_eigenvalue,
    operator_norm,
    psd_sqrt,
    schatten_norm,
    spectral_projection,
    trace_pair,
)
from .reports import VerifyReport

__all__ = [
    "EmbeddedInstance",
    "bg_embed",
    "bg_constant_norm_by_square",
    "bg_constant_square_by_norm",
    "verify_bg",
    "BGReports",
    "interp_bound",
    "transform_constant",
    "verify_transform",
    "doob_embed",
    "dual_doob_constant",
    "stein_constant",
    "verify_dual_doob",
    "verify_stein",
    "check_tangent",
    "tangent_counterexample",
    "CounterexampleReport",
    "counterexample_pair",
    "dominated_constant",
    "verify_dominated",
    "positive_tangent_constant",
    "verify_positive_tangent",
    "refined_doob_constant",
    "refined_doob",
]

# duality pairings sampled by verify_transform at 1 < p < 2
_DUAL_SAMPLES = 20


# ---------------------------------------------------------------------------
# constants, assembled from the proofs
# ---------------------------------------------------------------------------


def bg_constant_norm_by_square(p: float) -> float:
    """Constant in ||y_N||_p <= C ||S_N(y)||_p (1 at p = 2)."""
    if p < 2:
        raise DomainError("needs p >= 2")
    if p == 2:
        return 1.0
    return math.sqrt(2.0) * _moment_factor(p)


def bg_constant_square_by_norm(p: float) -> float:
    """Constant in ||S_N(x)||_p <= C ||x_N||_p (1 at p = 2)."""
    if p < 2:
        raise DomainError("needs p >= 2")
    if p == 2:
        return 1.0
    return (
        _moment_factor(p)
        * math.sqrt(1.0 + 2.0 ** (2.0 - 4.0 / p))
        * (1.0 + 2.0 ** (p - 2.0)) ** (1.0 / p)
    )


def transform_constant(p: float) -> float:
    """Constant for martingale transforms at p >= 2 (1 at p = 2)."""
    if p < 2:
        raise DomainError("needs p >= 2")
    if p == 2:
        return 1.0
    return _moment_factor(p) * math.sqrt(1.0 + 2.0 ** (2.0 - 4.0 / p))


def dominated_constant(p: float) -> float:
    """Constant for conditionally dominated martingales (Theorem on tangent
    differences); same assembly as the transform constant."""
    return transform_constant(p)


def dual_doob_constant(p: float) -> float:
    """Constant for || sum E_n(u_n) ||_p <= C || sum u_n ||_p, p >= 1.

    p = 1 is an exact trace identity (constant 1); for p > 1 the moment bound
    is applied at exponent 2p on the enlarged algebra and squared, picking up
    the 2^{1/2} from x = z and 2^{1/(2p)} from the interpolation step.
    """
    if p < 1:
        raise DomainError("needs p >= 1")
    if p == 1:
        return 1.0
    q = 2.0 * p
    return (math.sqrt(2.0) * _moment_factor(q) * 2.0 ** (1.0 / q)) ** 2


def stein_constant(p: float) -> float:
    """Constant for the conditioned square-function bound at p >= 2."""
    if p < 2:
        raise DomainError("needs p >= 2")
    return math.sqrt(dual_doob_constant(p / 2.0))


def positive_tangent_constant(p: float, kappa: float = 1.0) -> float:
    """Constant for sums of tangent positive operators.

    For p > 2 the triangle-inequality route gives 1 + (1+kappa) C_p with C_p
    the dominated-martingale constant; for 1 <= p <= 2 the square-function
    route runs through both Burkholder-Gundy directions at exponent 2p.
    """
    if p < 1:
        raise DomainError("needs p >= 1")
    if p >= 2:
        return 1.0 + (1.0 + kappa) * dominated_constant(p)
    q = 2.0 * p
    return (
        bg_constant_square_by_norm(q)
        * dominated_constant(q) * math.sqrt(kappa)
        * bg_constant_norm_by_square(q)
    ) ** 2


def refined_doob_constant(p: float) -> float:
    """Constant for || sum E_{n-1}(u_n) ||_p <= c_p || sum u_n ||_p, adapted u.

    For p >= 2: (1 + 3 C_p)/2 with C_p the tangent positive-sum constant; for
    1 <= p < 2 the plain dual-Doob constant is used.
    """
    if p < 1:
        raise DomainError("needs p >= 1")
    if p < 2:
        return dual_doob_constant(p)
    return (1.0 + 3.0 * positive_tangent_constant(p)) / 2.0


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmbeddedInstance:
    """An enlarged-algebra instance together with its structural pieces."""

    big_algebra: object
    big_filtration: Filtration
    y: Martingale
    x_tilde: object  # Martingale or Operator
    extras: dict


def _embed_outer(big_filt: Filtration, outer: int, i: int, j: int,
                 base_op: Operator, sign_coord: int | None = None) -> Operator:
    """e_{ij} (x) [sign] (x) base_op on the lifted (uniform) algebra."""
    n = big_filt.algebra.n_blocks
    if len(base_op.stacks) != 1 or len(base_op.stacks[0]) not in (1, n):
        raise DomainError("base operator does not match the lifted block layout")
    base = base_op.stacks[0]
    if sign_coord is not None:
        base = base * big_filt.signs[:, sign_coord, None, None]
    d = base.shape[1]
    out = np.zeros((n, outer * d, outer * d), dtype=complex)
    out[:, i * d:(i + 1) * d, j * d:(j + 1) * d] = base
    return big_filt.algebra.operator(out)


def bg_embed(x: Martingale) -> EmbeddedInstance:
    """Embed a martingale into M_{N+2} (x) M so its square function becomes a
    corner of the modulus of a bigger self-adjoint martingale.

    Asserts y_n^2 >= e_{11} (x) S_n^2(x) and dy_n^2 = (dx~_n)^2 on the spot.
    """
    if not x.is_selfadjoint():
        raise DomainError("the embedding needs a self-adjoint martingale")
    N = x.N
    outer = N + 2
    big = lift_with_matrix_factor(x.filtration, outer)
    dys = []
    dxts = []
    for n, dx in enumerate(x.diffs):
        dys.append(_embed_outer(big, outer, 0, n + 1, dx)
                   + _embed_outer(big, outer, n + 1, 0, dx))
        dxts.append(_embed_outer(big, outer, 0, 0, dx)
                    + _embed_outer(big, outer, n + 1, n + 1, dx))
    y = martingale_from_diffs(big, dys, validate=False)
    x_tilde = martingale_from_diffs(big, dxts, validate=False)

    # structural identities
    running = x.algebra.zero()
    for n, dx in enumerate(x.diffs):
        running = running + dx @ dx
        corner = _embed_outer(big, outer, 0, 0, running.symmetrized())
        gap = (y.values[n] @ y.values[n]).symmetrized() - corner
        scale = 1.0 + operator_norm(y.values[n]) ** 2
        if min_eigenvalue(gap) < -1e-9 * scale:
            raise DomainError("embedding identity y_n^2 >= e11 (x) S_n^2 failed")
        dd = (dys[n] @ dys[n] - dxts[n] @ dxts[n]).entry_max()
        if dd > 1e-10 * scale:
            raise DomainError("embedding identity dy_n^2 = dx~_n^2 failed")
    return EmbeddedInstance(big.algebra, big, y, x_tilde, {"base": x})


def doob_embed(u: list[Operator], filtration: Filtration) -> EmbeddedInstance:
    """Embed a (not necessarily adapted) positive sequence for Doob/Stein.

    Builds M_{N+2} (x) L^inf(signs) (x) M with dy_k = (e_{1,k+2}+e_{k+2,1})
    (x) eps_k (x) E_k(u_k)^{1/2} and x_N = z_N the block diagonal of square
    roots; asserts y_N^2 >= e11 (x) 1 (x) sum E_n(u_n) and the conditional
    identity for dy_k^2.
    """
    if not u:
        raise DomainError("need at least one operator")
    scale = _require_positive(u, "doob_embed needs positive operators")
    N = len(u) - 1
    outer = N + 2
    big = sign_matrix_filtration(outer, N + 1, filtration)

    ident_base = filtration.algebra.identity()
    x_big = _embed_outer(big, outer, 0, 0, psd_sqrt(_sum_ops(u).symmetrized()))
    dys = []
    ceus = []
    for k, uk in enumerate(u):
        ceu = cond_exp(filtration, k, uk).symmetrized()
        ceus.append(ceu)
        root = psd_sqrt(ceu)
        dys.append(_embed_outer(big, outer, 0, k + 1, root, sign_coord=k)
                   + _embed_outer(big, outer, k + 1, 0, root, sign_coord=k))
        x_big = x_big + _embed_outer(big, outer, k + 1, k + 1, psd_sqrt(uk))
    y = martingale_from_diffs(big, dys, validate=False)

    # dy_k^2 equals the big conditional expectation of (e11+e_{k+2,k+2}) (x) u_k
    for k, uk in enumerate(u):
        lhs = (dys[k] @ dys[k]).symmetrized()
        probe = (_embed_outer(big, outer, 0, 0, uk)
                 + _embed_outer(big, outer, k + 1, k + 1, uk))
        rhs = cond_exp(big, k, probe)
        if (lhs - rhs).entry_max() > 1e-10 * scale:
            raise DomainError("embedding identity for dy_k^2 failed")
    corner = _embed_outer(big, outer, 0, 0, _sum_ops(ceus).symmetrized())
    gap = (y.final @ y.final).symmetrized() - corner
    if min_eigenvalue(gap) < -1e-9 * (1.0 + operator_norm(y.final) ** 2):
        raise DomainError("embedding identity y_N^2 >= e11 (x) sum E_n(u_n) failed")
    return EmbeddedInstance(big.algebra, big, y, x_big,
                            {"u": tuple(u), "conditional": tuple(ceus)})


def _require_positive(u, message: str) -> float:
    """Raise `message` unless every u_n is positive; returns 1 + max ||u_n||."""
    scale = 1.0 + max(operator_norm(ui) for ui in u)
    if any(not ui.hermitian or min_eigenvalue(ui) < -1e-10 * scale for ui in u):
        raise DomainError(message)
    return scale


def _sum_ops(ops) -> Operator:
    acc = ops[0]
    for o in ops[1:]:
        acc = acc + o
    return acc


# ---------------------------------------------------------------------------
# Burkholder-Gundy and transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BGReports:
    norm_by_square: VerifyReport
    square_by_norm: VerifyReport
    interpolation: VerifyReport

    def all_passed(self) -> bool:
        return (self.norm_by_square.passed and self.square_by_norm.passed
                and self.interpolation.passed)


def interp_bound(m: Martingale, p: float) -> VerifyReport:
    """(sum_k ||dx_k||_p^p)^{1/p} <= 2^{1-2/p} ||x_N||_p."""
    if p < 2:
        raise DomainError("the interpolation bound needs p >= 2")
    lhs = sum(schatten_norm(d, p) ** p for d in m.diffs) ** (1.0 / p)
    const = 2.0 ** (1.0 - 2.0 / p)
    rhs = const * schatten_norm(m.final, p)
    return VerifyReport.compare(lhs, rhs, const, {"p": p})


def verify_bg(x: Martingale, p: float) -> BGReports:
    """Both Burkholder-Gundy directions plus the interpolation inequality."""
    if p < 2:
        raise DomainError("the square-function bounds need p >= 2")
    s = square_function(x)
    nx = schatten_norm(x.final, p)
    ns = schatten_norm(s, p)
    c1 = bg_constant_norm_by_square(p)
    c2 = bg_constant_square_by_norm(p)
    r1 = VerifyReport.compare(nx, c1 * ns, c1, {"p": p, "direction": "norm<=C*S"})
    r2 = VerifyReport.compare(ns, c2 * nx, c2, {"p": p, "direction": "S<=C*norm"})
    return BGReports(r1, r2, interp_bound(x, p))


def verify_transform(x: Martingale, v, p: float, seed: int = 0) -> VerifyReport:
    """Martingale transform dy_n = v_n dx_n with scalar multipliers in [-1,1].

    For p >= 2 the transform bound is checked directly; for 1 < p < 2 only
    the duality pairing |tau(y_N w)| <= C_{p'} ||x_N||_p ||w||_{p'} is checked
    on seeded samples (flagged in the report metadata).
    """
    v = [float(c) for c in v]
    if len(v) != x.N + 1:
        raise DomainError("one multiplier per martingale step expected")
    if any(abs(c) > 1.0 + 1e-12 for c in v):
        raise DomainError("multipliers must lie in [-1, 1]")
    if p <= 1:
        raise DomainError("needs p > 1")
    dys = [d * c for d, c in zip(x.diffs, v)]
    y = martingale_from_diffs(x.filtration, dys, validate=False)
    if p >= 2:
        const = transform_constant(p)
        lhs = schatten_norm(y.final, p)
        rhs = const * schatten_norm(x.final, p)
        return VerifyReport.compare(lhs, rhs, const, {"p": p, "mode": "direct"})
    p_dual = p / (p - 1.0)
    const = transform_constant(p_dual)
    rng = stream(seed, 4242)
    lhs = 0.0
    for _ in range(_DUAL_SAMPLES):
        w = gaussian_hermitian(x.algebra, rng)
        lhs = max(lhs, abs(float(trace_pair(y.final, w).real))
                  / max(schatten_norm(w, p_dual), 1e-300))
    rhs = const * schatten_norm(x.final, p)
    return VerifyReport.compare(lhs, rhs, const,
                                {"p": p, "mode": "duality-sampled",
                                 "samples": _DUAL_SAMPLES})


# ---------------------------------------------------------------------------
# Stein and dual Doob
# ---------------------------------------------------------------------------


def verify_dual_doob(u: list[Operator], filtration: Filtration,
                     p: float) -> VerifyReport:
    """|| sum E_n(u_n) ||_p <= C_p || sum u_n ||_p for positive u_n, p >= 1."""
    _require_positive(u, "dual Doob needs positive operators")
    if p < 1:
        raise DomainError("needs p >= 1")
    const = dual_doob_constant(p)
    ce = [cond_exp(filtration, n, ui) for n, ui in enumerate(u)]
    lhs = schatten_norm(_sum_ops(ce), p)
    rhs = const * schatten_norm(_sum_ops(u), p)
    return VerifyReport.compare(lhs, rhs, const, {"p": p})


def verify_stein(u: list[Operator], filtration: Filtration,
                 p: float) -> VerifyReport:
    """|| (sum |E_n(u_n)|^2)^{1/2} ||_p <= C_p || (sum |u_n|^2)^{1/2} ||_p."""
    if p < 2:
        raise DomainError("the duality range p < 2 is out of numerical scope")
    const = stein_constant(p)
    sq_ce = _sum_ops([
        (lambda e: (e.adjoint() @ e))(cond_exp(filtration, n, ui))
        for n, ui in enumerate(u)
    ])
    sq_u = _sum_ops([ui.adjoint() @ ui for ui in u])
    lhs = schatten_norm(psd_sqrt(sq_ce.symmetrized()), p)
    rhs = const * schatten_norm(psd_sqrt(sq_u.symmetrized()), p)
    return VerifyReport.compare(lhs, rhs, const, {"p": p})


# ---------------------------------------------------------------------------
# tangency
# ---------------------------------------------------------------------------


def _check_adapted(seq, filtration: Filtration, name: str) -> None:
    for n, a in enumerate(seq):
        if not a.hermitian:
            raise DomainError(f"{name}_{n} is not Hermitian")
        scale = 1.0 + operator_norm(a)
        if (cond_exp(filtration, n, a) - a).entry_max() > 1e-9 * scale:
            raise DomainError(f"{name}_{n} is not adapted")


def check_tangent(a, b, filtration: Filtration) -> tuple[bool, float]:
    """Tangency of two adapted Hermitian sequences.

    For every step n, the union spectrum of a_n and b_n is clustered (merging
    eigenvalues closer than the clustering rule allows) and the conditional
    expectations of the cluster indicators are compared; the sequences are
    tangent when the worst deviation stays below 1e-8.
    """
    if len(a) != len(b):
        raise DomainError("sequences must have the same length")
    _check_adapted(a, filtration, "a")
    _check_adapted(b, filtration, "b")
    worst = 0.0
    for n, (an, bn) in enumerate(zip(a, b)):
        eigs = np.concatenate([e.ravel() for e, _ in an.spectrum[0] + bn.spectrum[0]])
        for cluster in cluster_eigenvalues(eigs, float(np.abs(eigs).max())):
            window = Interval(float(cluster.min()), float(cluster.max()), True, True)
            # cond_exp is linear: one application to the difference of the cuts
            dev = operator_norm(cond_exp(
                filtration, n - 1,
                spectral_projection(an, window) - spectral_projection(bn, window)))
            worst = max(worst, dev)
    return bool(worst <= 1e-8), float(worst)


# ---------------------------------------------------------------------------
# the weak-type / L^p counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    N: int
    p: float
    weak_y: float            # tau(I_{[1,inf)}(|y_N|))
    l1_x: float              # tau(|x_N|)
    p_norm_y: float
    p_norm_x: float
    expected_weak: float     # N + 1
    expected_l1: float       # 2 sqrt(N)
    ratio: float             # (N+1) / (2 sqrt(N))


def counterexample_pair(N: int) -> tuple[Martingale, Martingale, Filtration]:
    """The tangent martingale pair of the weak-type counterexample.

    dx_0 = dy_0 = 0 and, for 1 <= n <= N, dx_n = eps_n (x) (e_{1,n+1} +
    e_{n+1,1}),  dy_n = eps_n (x) (e_{11} + e_{n+1,n+1}) on L^inf(signs) (x)
    M_{N+1}; intended for moderate N.
    """
    if N > 11:
        raise DomainError("full martingale storage is limited to N <= 11; "
                          "tangent_counterexample handles larger N")
    x_final, y_final, filt = _counterexample_finals(N)
    return (martingale_from_final(filt, x_final),
            martingale_from_final(filt, y_final), filt)


def _counterexample_finals(N: int) -> tuple[Operator, Operator, Filtration]:
    """Final operators x_N = sum_n eps_n (x) (e_{1,n+1} + e_{n+1,1}) and
    y_N = sum_n eps_n (x) (e_{11} + e_{n+1,n+1}) of the pair, with their
    filtration; built without the 2(N+1) martingale levels, which matters
    once the sign algebra has thousands of blocks."""
    filt = make_filtration("rademacher", depth=N, matrix_dim=N + 1)
    eps = filt.signs  # (blocks, N)
    idx = np.arange(1, N + 1)
    x_stack = np.zeros((len(eps), N + 1, N + 1), dtype=complex)
    x_stack[:, 0, idx] = eps
    x_stack[:, idx, 0] = eps
    y_stack = np.zeros((len(eps), N + 1, N + 1), dtype=complex)
    y_stack[:, 0, 0] = eps.sum(axis=1)
    y_stack[:, idx, idx] = eps
    return filt.algebra.operator(x_stack), filt.algebra.operator(y_stack), filt


def tangent_counterexample(N: int, p: float) -> CounterexampleReport:
    """Evaluate the weak-type and L^p quantities of the counterexample pair.

    All four come from one values-only eigensolve of each final operator:
    tau(|x_N|) is the Schatten 1-norm, and abs_spectral_trace counts |y_N|'s
    eigenvalues in [1, inf) without forming |y_N|; N odd, at most 13.
    """
    if N % 2 == 0:
        raise DomainError("the construction needs N odd")
    if not 1 <= N <= 13:
        raise DomainError("N must lie in 1..13")
    x_final, y_final, _ = _counterexample_finals(N)
    return CounterexampleReport(
        N=N,
        p=float(p),
        weak_y=abs_spectral_trace(y_final, Interval.at_least(1.0)),
        l1_x=schatten_norm(x_final, 1),
        p_norm_y=schatten_norm(y_final, p),
        p_norm_x=schatten_norm(x_final, p),
        expected_weak=float(N + 1),
        expected_l1=2.0 * math.sqrt(N),
        ratio=(N + 1) / (2.0 * math.sqrt(N)),
    )


# ---------------------------------------------------------------------------
# dominated and tangent verifications
# ---------------------------------------------------------------------------


def verify_dominated(x: Martingale, y: Martingale, p: float,
                     kappa: float = 1.0) -> VerifyReport:
    """||y_N||_p <= C_p kappa ||x_N||_p under conditional square domination
    E_{n-1}(dy_n^2) <= E_{n-1}(dx_n^2) and ||dy_n||_p <= kappa ||dx_n||_p."""
    if p < 2:
        raise DomainError("fails for p < 2; needs p >= 2")
    if kappa < 1:
        raise DomainError("kappa must be at least 1")
    hyp_ok = True
    filt = x.filtration
    for n in range(x.N + 1):
        gap = cond_exp(filt, n - 1,
                       (x.diffs[n] @ x.diffs[n] - y.diffs[n] @ y.diffs[n]).symmetrized())
        scale = 1.0 + operator_norm(x.diffs[n]) ** 2
        if min_eigenvalue(gap) < -1e-8 * scale:
            hyp_ok = False
        if schatten_norm(y.diffs[n], p) > kappa * schatten_norm(x.diffs[n], p) \
                * (1.0 + 1e-8) + 1e-12:
            hyp_ok = False
    const = dominated_constant(p) * kappa if p > 2 else kappa
    lhs = schatten_norm(y.final, p)
    rhs = const * schatten_norm(x.final, p)
    return VerifyReport.compare(
        lhs, rhs, const,
        {"p": p, "kappa": kappa,
         "hypothesis": "verified" if hyp_ok else "unverified"})


def verify_positive_tangent(u, v, filtration: Filtration, p_grid,
                            kappa: float = 1.0,
                            relaxed: bool = False) -> tuple[VerifyReport, ...]:
    """|| sum v_n ||_p <= C_p || sum u_n ||_p for tangent positive sequences,
    one report per p of `p_grid`.

    With `relaxed=True` only the first-moment identity, the conditional
    square domination and the kappa-norm comparison are required (v_n may be
    merely self-adjoint), the last at each p; otherwise full tangency is
    checked, once for the whole grid.
    """
    if any(p < 1 for p in p_grid):
        raise DomainError("needs p >= 1")
    scale = _require_positive(u, "the u_n must be positive")
    if relaxed:
        moments_ok = all(
            cond_exp(filtration, n - 1, vn - un).entry_max() <= 1e-8 * scale
            and min_eigenvalue(cond_exp(filtration, n - 1, (un @ un - vn @ vn)
                                        .symmetrized())) >= -1e-8 * scale ** 2
            for n, (un, vn) in enumerate(zip(u, v)))
    else:
        label = "tangent" if check_tangent(u, v, filtration)[0] else "unverified"
    sum_u, sum_v = _sum_ops(u), _sum_ops(v)
    reports = []
    for p in p_grid:
        if relaxed:
            label = "relaxed-verified" if moments_ok and all(
                schatten_norm(vn, p) <= kappa * schatten_norm(un, p) * (1 + 1e-8)
                for un, vn in zip(u, v)) else "unverified"
        const = positive_tangent_constant(p, kappa)
        reports.append(VerifyReport.compare(
            schatten_norm(sum_v, p), const * schatten_norm(sum_u, p), const,
            {"p": p, "kappa": kappa, "hypothesis": label}))
    return tuple(reports)


def refined_doob(u, filtration: Filtration, p: float) -> VerifyReport:
    """|| sum E_{n-1}(u_n) ||_p <= c_p || sum u_n ||_p for adapted positive u."""
    if p < 1:
        raise DomainError("needs p >= 1")
    scale = _require_positive(u, "refined Doob needs positive operators")
    for n, ui in enumerate(u):
        if (cond_exp(filtration, n, ui) - ui).entry_max() > 1e-9 * scale:
            raise DomainError("refined Doob needs an adapted sequence")
    const = refined_doob_constant(p)
    ce = [cond_exp(filtration, n - 1, ui) for n, ui in enumerate(u)]
    lhs = schatten_norm(_sum_ops(ce), p)
    rhs = const * schatten_norm(_sum_ops(u), p)
    return VerifyReport.compare(lhs, rhs, const, {"p": p})
