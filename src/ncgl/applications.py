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
from .goodlambda import simplified_moment_constant
from .opalgebra import (
    Interval,
    Operator,
    TracialAlgebra,
    abs_spectral_trace,
    cluster_tops,
    min_eigenvalue,
    operator_norm,
    psd_sqrt,
    schatten_norm,
    spectral_cuts,
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

# ---------------------------------------------------------------------------
# constants, assembled from the proofs
# ---------------------------------------------------------------------------


def bg_constant_norm_by_square(p: float) -> float:
    """Constant in ||y_N||_p <= C ||S_N(y)||_p (1 at p = 2)."""
    if p < 2:
        raise DomainError("needs p >= 2")
    if p == 2:
        return 1.0
    return math.sqrt(2.0) * simplified_moment_constant(p)


def bg_constant_square_by_norm(p: float) -> float:
    """Constant in ||S_N(x)||_p <= C ||x_N||_p (1 at p = 2)."""
    if p < 2:
        raise DomainError("needs p >= 2")
    if p == 2:
        return 1.0
    # (1 + 2^{p-2})^{1/p} = 2^{1-2/p} (1 + 2^{2-p})^{1/p}, finite at any p
    return (
        simplified_moment_constant(p)
        * math.sqrt(1.0 + 2.0 ** (2.0 - 4.0 / p))
        * 2.0 ** (1.0 - 2.0 / p) * (1.0 + 2.0 ** (2.0 - p)) ** (1.0 / p)
    )


def transform_constant(p: float) -> float:
    """Constant for martingale transforms at p >= 2 (1 at p = 2)."""
    if p < 2:
        raise DomainError("needs p >= 2")
    if p == 2:
        return 1.0
    return simplified_moment_constant(p) * math.sqrt(1.0 + 2.0 ** (2.0 - 4.0 / p))


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
    return (math.sqrt(2.0) * simplified_moment_constant(q) * 2.0 ** (1.0 / q)) ** 2


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
    scale, = _require_positive(u, "doob_embed needs positive operators")
    N = len(u) - 1
    outer = N + 2
    big = sign_matrix_filtration(outer, N + 1, filtration)

    ident_base = filtration.algebra.identity()
    x_big = _embed_outer(big, outer, 0, 0, psd_sqrt(sum(u[1:], u[0]).symmetrized()))
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
    corner = _embed_outer(big, outer, 0, 0, sum(ceus[1:], ceus[0]).symmetrized())
    gap = (y.final @ y.final).symmetrized() - corner
    if min_eigenvalue(gap) < -1e-9 * (1.0 + operator_norm(y.final) ** 2):
        raise DomainError("embedding identity y_N^2 >= e11 (x) sum E_n(u_n) failed")
    return EmbeddedInstance(big.algebra, big, y, x_big,
                            {"u": tuple(u), "conditional": tuple(ceus)})


def _require_positive(u, message: str) -> np.ndarray:
    """Raise `message` unless every u_n is Hermitian with no eigenvalue below
    -1e-10 max ||u_n|| in each summand, the norms of that summand, read off
    the eigendecomposition: relative, so the decision does not depend on
    scale.  Returns max ||u_n|| per summand.  An empty sequence is a
    DomainError of its own."""
    if not u:
        raise DomainError("need at least one operator")
    if not all(ui.hermitian for ui in u):
        raise DomainError(message)
    eigs = np.concatenate([ui.algebra.summand_rows([e for e, _ in ui.spectrum]) for ui in u],
                          axis=1)
    norm = np.abs(eigs).max(axis=1)
    if (eigs.min(axis=1) < -1e-10 * norm).any():
        raise DomainError(message)
    return norm


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
    norms = [schatten_norm(d, p) for d in m.diffs]
    top = max(norms)  # factored out, so no power overflows at large p
    lhs = top * sum((v / top) ** p for v in norms) ** (1.0 / p) if top else 0.0
    const = 2.0 ** (1.0 - 2.0 / p)
    rhs = const * schatten_norm(m.final, p)
    return VerifyReport.compare(lhs, rhs, const, {"p": p})


def verify_bg(x: Martingale, p: float) -> BGReports:
    """Both Burkholder-Gundy directions plus the interpolation inequality."""
    c1 = bg_constant_norm_by_square(p)
    c2 = bg_constant_square_by_norm(p)
    s = square_function(x)
    nx = schatten_norm(x.final, p)
    ns = schatten_norm(s, p)
    r1 = VerifyReport.compare(nx, c1 * ns, c1, {"p": p, "direction": "norm<=C*S"})
    r2 = VerifyReport.compare(ns, c2 * nx, c2, {"p": p, "direction": "S<=C*norm"})
    return BGReports(r1, r2, interp_bound(x, p))


def verify_transform(x: Martingale, v, p: float) -> VerifyReport:
    """Martingale transform dy_n = v_n dx_n with scalar multipliers in [-1,1]:
    ||y_N||_p <= C ||x_N||_p at every p > 1, with C the transform constant at
    max(p, p'); below 2 the bound holds by duality, the transform being its
    own adjoint.
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
    const = transform_constant(max(p, p / (p - 1.0)))
    lhs = schatten_norm(y.final, p)
    rhs = const * schatten_norm(x.final, p)
    return VerifyReport.compare(lhs, rhs, const, {"p": p})


# ---------------------------------------------------------------------------
# Stein and dual Doob
# ---------------------------------------------------------------------------


def verify_dual_doob(u: list[Operator], filtration: Filtration,
                     p: float) -> VerifyReport:
    """|| sum E_n(u_n) ||_p <= C_p || sum u_n ||_p for positive u_n, p >= 1."""
    _require_positive(u, "dual Doob needs positive operators")
    const = dual_doob_constant(p)
    ce = [cond_exp(filtration, n, ui) for n, ui in enumerate(u)]
    lhs = schatten_norm(sum(ce[1:], ce[0]), p)
    rhs = const * schatten_norm(sum(u[1:], u[0]), p)
    return VerifyReport.compare(lhs, rhs, const, {"p": p})


def verify_stein(u: list[Operator], filtration: Filtration,
                 p: float) -> VerifyReport:
    """|| (sum |E_n(u_n)|^2)^{1/2} ||_p <= C_p || (sum |u_n|^2)^{1/2} ||_p."""
    const = stein_constant(p)  # the duality range p < 2 is out of scope
    if not u:
        raise DomainError("need at least one operator")
    sq_ce = [e.adjoint() @ e for e in (cond_exp(filtration, n, ui) for n, ui in enumerate(u))]
    sq_u = [ui.adjoint() @ ui for ui in u]
    lhs = schatten_norm(psd_sqrt(sum(sq_ce[1:], sq_ce[0]).symmetrized()), p)
    rhs = const * schatten_norm(psd_sqrt(sum(sq_u[1:], sq_u[0]).symmetrized()), p)
    return VerifyReport.compare(lhs, rhs, const, {"p": p})


# ---------------------------------------------------------------------------
# tangency
# ---------------------------------------------------------------------------


def _check_adapted(seq, filtration: Filtration, name: str) -> None:
    """DomainError unless every seq[n] is Hermitian and E_n-measurable, within
    1e-9 ||seq[n]|| in each summand, the norm that summand's, read off the
    eigendecomposition: relative, so the decision does not depend on scale."""
    for n, a in enumerate(seq):
        if not a.hermitian:
            raise DomainError(f"{name}_{n} is not Hermitian")
        drift = (cond_exp(filtration, n, a) - a).entry_max(per_summand=True)
        eigs = a.algebra.summand_rows([e for e, _ in a.spectrum])
        if (drift > 1e-9 * np.abs(eigs).max(axis=1)).any():
            raise DomainError(f"{name}_{n} is not adapted")


def check_tangent(a, b, filtration: Filtration, per_summand: bool = False):
    """Tangency of two adapted Hermitian sequences: (tangent, worst deviation)
    over all summands, or with `per_summand` two lists, one entry per summand.

    For every step n, each summand's union spectrum of a_n and b_n is
    clustered on that summand's scale, all in one `cluster_tops` call, and the
    conditional expectations of the cluster indicators are compared; tangent
    means a worst deviation below 1e-8.  A step is one batch of up to 2**14
    block rows: each eigenvalue labelled with its cluster, the first whose
    largest value is not below it, the cuts of a_n and of b_n onto labels
    0 .. C - 1 (C the most clusters of any summand, a block composed only for
    the labels it holds) are each one operator on a direct sum of C copies,
    their difference conditioned once on ``filtration.direct_sum(C)``, one
    operator norm per copy and summand.
    """
    if len(a) != len(b):
        raise DomainError("sequences must have the same length")
    # the clustering needs each spectrum with vectors: the norm reads it too
    _check_adapted(a, filtration, "a")
    _check_adapted(b, filtration, "b")
    alg = filtration.algebra
    worst = np.zeros(alg.summands)
    for n, (an, bn) in enumerate(zip(a, b)):
        rows = [alg.summand_rows([e for e, _ in op.spectrum]) for op in (an, bn)]
        tops = cluster_tops(np.concatenate(rows, axis=1))
        count = tops.shape[1]
        # a label is the number of cluster tops below the eigenvalue, per summand
        la, lb = (alg.summand_columns((row[:, :, None] > tops[:, None, :]).sum(axis=2))
                  for row in rows)
        # at most 2**14 block rows a batch; unequal blocks have no direct sum
        size = min(count, 2**14 // an.algebra.total_dim or 1) if len(an.algebra.runs) == 1 else 1
        for i in range(0, count, size):
            ids = np.arange(i, i + size)[:, None, None]
            # cond_exp is linear: one application to the difference of the cuts
            cuts = spectral_cuts(an, [lab == ids for lab in la]) \
                - spectral_cuts(bn, [lab == ids for lab in lb])
            dev = operator_norm(cond_exp(filtration.direct_sum(size), n - 1, cuts),
                                per_summand=True)
            worst = np.maximum(worst, np.reshape(dev, (size, -1)).max(axis=0))
    ok = worst <= 1e-8
    return (ok.tolist(), worst.tolist()) if per_summand else (bool(ok.all()), float(worst.max()))


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
    y_N = sum_n eps_n (x) (e_{11} + e_{n+1,n+1}) of the pair, whole, with
    their filtration; built without the 2(N+1) martingale levels.
    tangent_counterexample builds one block of each orbit of them."""
    filt = make_filtration("rademacher", depth=N, matrix_dim=N + 1)
    return (filt.algebra.operator(_x_blocks(filt.signs)),
            filt.algebra.operator(_y_blocks(filt.signs)), filt)


def _x_blocks(eps: np.ndarray) -> np.ndarray:
    """The blocks of x_N at the sign rows `eps` (blocks, N)."""
    n, N = eps.shape
    idx = np.arange(1, N + 1)
    out = np.zeros((n, N + 1, N + 1), dtype=complex)
    out[:, 0, idx] = eps
    out[:, idx, 0] = eps
    return out


def _y_blocks(eps: np.ndarray) -> np.ndarray:
    """The blocks of y_N at the sign rows `eps` (blocks, N)."""
    n, N = eps.shape
    idx = np.arange(1, N + 1)
    out = np.zeros((n, N + 1, N + 1), dtype=complex)
    out[:, 0, 0] = eps.sum(axis=1)
    out[:, idx, idx] = eps
    return out


def _counterexample_orbits(N: int) -> tuple[Operator, Operator]:
    """x_N and y_N on one sign row per orbit of the coordinate permutations:
    row k is +1 k times, then -1, with weight C(N, k)/2^N, the share of the
    2^N sign rows with k plus signs.  A block's spectrum depends on k alone,
    so these N + 1 blocks carry the traces, norms and tie bands of all 2^N."""
    eps = np.where(np.arange(N) < np.arange(N + 1)[:, None], 1.0, -1.0)
    alg = TracialAlgebra((N + 1,) * (N + 1), [math.comb(N, k) / 2**N for k in range(N + 1)])
    return alg.operator(_x_blocks(eps)), alg.operator(_y_blocks(eps))


def tangent_counterexample(N: int, p_grid) -> tuple[CounterexampleReport, ...]:
    """Evaluate the weak-type and L^p quantities of the counterexample pair,
    one report per p of `p_grid`.

    All of them come from one values-only eigensolve of each final operator,
    built on the N + 1 sign-row orbits of _counterexample_orbits (x_N is one
    LAPACK call, y_N is diagonal and needs none): tau(|x_N|) is the Schatten
    1-norm, and the weak trace counts |y_N|'s eigenvalues in [1, inf) under
    the tie band of ||y_N||, which the orbit blocks share with the 2^N
    blocks.  N odd, at most 101.
    """
    if N % 2 == 0:
        raise DomainError("the construction needs N odd")
    if not 1 <= N <= 101:
        raise DomainError("N must lie in 1..101")
    x, y = _counterexample_orbits(N)
    weak_y = abs_spectral_trace(y, Interval.at_least(1.0))
    l1_x = schatten_norm(x, 1)
    return tuple(CounterexampleReport(
        N=N,
        p=float(p),
        weak_y=weak_y,
        l1_x=l1_x,
        p_norm_y=schatten_norm(y, p),
        p_norm_x=schatten_norm(x, p),
        expected_weak=float(N + 1),
        expected_l1=2.0 * math.sqrt(N),
        ratio=(N + 1) / (2.0 * math.sqrt(N)),
    ) for p in p_grid)


# ---------------------------------------------------------------------------
# dominated and tangent verifications
# ---------------------------------------------------------------------------


def verify_dominated(x: Martingale, y: Martingale, p: float,
                     kappa: float = 1.0) -> VerifyReport:
    """||y_N||_p <= C_p kappa ||x_N||_p under conditional square domination
    E_{n-1}(dy_n^2) <= E_{n-1}(dx_n^2) and ||dy_n||_p <= kappa ||dx_n||_p,
    each checked relative to ||dx_n||, so the label does not depend on scale."""
    if kappa < 1:
        raise DomainError("kappa must be at least 1")
    const = dominated_constant(p) * kappa  # the bound fails for p < 2: DomainError
    hyp_ok = True
    filt = x.filtration
    for n in range(x.N + 1):
        gap = cond_exp(filt, n - 1,
                       (x.diffs[n] @ x.diffs[n] - y.diffs[n] @ y.diffs[n]).symmetrized())
        if min_eigenvalue(gap) < -1e-8 * operator_norm(x.diffs[n]) ** 2:
            hyp_ok = False
        if schatten_norm(y.diffs[n], p) > kappa * schatten_norm(x.diffs[n], p) * (1.0 + 1e-8):
            hyp_ok = False
    lhs = schatten_norm(y.final, p)
    rhs = const * schatten_norm(x.final, p)
    return VerifyReport.compare(
        lhs, rhs, const,
        {"p": p, "kappa": kappa,
         "hypothesis": "verified" if hyp_ok else "unverified"})


def verify_positive_tangent(u, v, filtration: Filtration, p_grid,
                            kappa: float = 1.0,
                            relaxed: bool = False) -> tuple[VerifyReport, ...]:
    """|| sum v_n ||_p <= C_p || sum u_n ||_p for tangent positive sequences:
    one report per p of `p_grid` for each summand in turn, each summand
    decided as it is alone.

    With `relaxed=True` only the first-moment identity, the conditional
    square domination and the kappa-norm comparison are required (v_n may be
    merely self-adjoint), the last at each p; otherwise full tangency is
    checked, once for the whole grid and every summand.
    """
    if any(p < 1 for p in p_grid):
        raise DomainError("needs p >= 1")
    if len(u) != len(v):
        raise DomainError("sequences must have the same length")
    # the tangency route solves each u_n with vectors anyway: positivity reads it
    scale = _require_positive(u, "the u_n must be positive")
    if relaxed:
        moments_ok = np.all([
            (cond_exp(filtration, n - 1, vn - un).entry_max(per_summand=True) <= 1e-8 * scale)
            & (min_eigenvalue(cond_exp(filtration, n - 1, (un @ un - vn @ vn).symmetrized()),
                              per_summand=True) >= -1e-8 * scale ** 2)
            for n, (un, vn) in enumerate(zip(u, v))], axis=0)
    else:
        labels = ["tangent" if ok else "unverified"
                  for ok in check_tangent(u, v, filtration, per_summand=True)[0]]
    norms = lambda a, p: np.asarray(schatten_norm(a, p, per_summand=True))
    sum_u, sum_v = sum(u[1:], u[0]), sum(v[1:], v[0])
    by_p = []
    for p in p_grid:
        if relaxed:
            labels = np.where(moments_ok & np.all(
                [norms(vn, p) <= kappa * norms(un, p) * (1 + 1e-8) for un, vn in zip(u, v)],
                axis=0), "relaxed-verified", "unverified").tolist()
        const = positive_tangent_constant(p, kappa)
        by_p.append([VerifyReport.compare(lhs, const * rhs, const,
                                          {"p": p, "kappa": kappa, "hypothesis": label})
                     for lhs, rhs, label in zip(norms(sum_v, p), norms(sum_u, p), labels)])
    return tuple(rep for reps in zip(*by_p) for rep in reps)


def refined_doob(u, filtration: Filtration, p: float) -> VerifyReport:
    """|| sum E_{n-1}(u_n) ||_p <= c_p || sum u_n ||_p for adapted positive u."""
    const = refined_doob_constant(p)
    _require_positive(u, "refined Doob needs positive operators")
    _check_adapted(u, filtration, "u")
    ce = [cond_exp(filtration, n - 1, ui) for n, ui in enumerate(u)]
    lhs = schatten_norm(sum(ce[1:], ce[0]), p)
    rhs = const * schatten_norm(sum(u[1:], u[0]), p)
    return VerifyReport.compare(lhs, rhs, const, {"p": p})
