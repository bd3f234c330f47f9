"""Schur (entrywise) multipliers on finite Schatten classes.

Patterns are 0/1 matrices; the reversed-L family (constant on L-shaped
hooks) is the one carrying a sharp O(p) multiplier bound, proved through the
corner-filtration martingale of the multiplied matrix and its sign-flipped
tangent partner.  Exact multiplier norms are not computable, so the module
only certifies lower bounds (attained ratios) and checks them against the
theorem's upper bounds.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .applications import dominated_constant
from .errors import DomainError, StructureError
from .filtration import make_filtration, martingale_from_final
from .instances import hook_flipped, stream
from .opalgebra import TracialAlgebra, schatten_norm
from .reports import VerifyReport

__all__ = [
    "Pattern",
    "reversed_l_pattern",
    "triangular_pattern",
    "interlace_pattern",
    "schur_multiply",
    "triangular_projection",
    "interlace_t",
    "matrix_p_norm",
    "schur_norm_lower",
    "verify_reversed_L",
    "reversed_l_bound",
]


@dataclass(frozen=True, eq=False)
class Pattern:
    """0/1 multiplier pattern with a structural tag."""

    entries: np.ndarray
    tag: str = "custom"

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise StructureError("patterns must be square")
        if not np.all((e == 0) | (e == 1)):
            raise DomainError("pattern entries must be 0 or 1")
        object.__setattr__(self, "entries", e.astype(float))
        if self.tag == "reversed-L":
            _check_reversed_l(self.entries)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _check_reversed_l(e: np.ndarray) -> None:
    # off-diagonal entries must depend on max(i, j) only
    n = e.shape[0]
    for k in range(1, n):
        row = e[k, :k]
        col = e[:k, k]
        if not (np.all(row == row[0]) and np.all(col == row[0])):
            raise StructureError("not a reversed-L pattern")


def reversed_l_pattern(m_off, n_diag) -> Pattern:
    """Pattern with off-diagonal hooks m_2..m_N and diagonal n_1..n_N."""
    n_diag = [int(v) for v in n_diag]
    m_off = [int(v) for v in m_off]
    n = len(n_diag)
    if len(m_off) != n - 1:
        raise StructureError("need N-1 hook values for an N x N pattern")
    e = np.zeros((n, n))
    for i in range(n):
        e[i, i] = n_diag[i]
        for j in range(n):
            if i != j:
                e[i, j] = m_off[max(i, j) - 1]
    return Pattern(e, "reversed-L")


def triangular_pattern(n: int) -> Pattern:
    return Pattern(np.triu(np.ones((n, n))), "triangular")


def interlace_pattern(n2: int) -> Pattern:
    """The even/odd reversed-L pattern satisfying m * t(A) = t(T(A))."""
    if n2 % 2:
        raise DomainError("the interlacing pattern has even dimension")
    hooks = [1 if (k + 2) % 2 == 0 else 0 for k in range(n2 - 1)]
    diag = [1 if (k + 1) % 2 == 0 else 0 for k in range(n2)]
    return reversed_l_pattern(hooks, diag)


def _pattern_matrix(m) -> np.ndarray:
    if isinstance(m, Pattern):
        return m.entries
    return np.asarray(m)


def schur_multiply(m, a: np.ndarray) -> np.ndarray:
    """Entrywise (Hadamard) product m * a."""
    mm = _pattern_matrix(m)
    a = np.asarray(a)
    if mm.shape != a.shape:
        raise StructureError("pattern and matrix shapes differ")
    return mm * a


def triangular_projection(a: np.ndarray) -> np.ndarray:
    """Keep the upper triangle (diagonal included), zero the rest."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructureError("need a square matrix")
    return np.triu(a)


def interlace_t(a: np.ndarray) -> np.ndarray:
    """Interlace zero rows/columns: entry (i, j) lands at (2i, 2j+1), 0-based.

    A leading zero column is inserted in front, so a 1 x 1 matrix [alpha]
    becomes [[0, alpha], [0, 0]]; p-norms are unchanged.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructureError("need a square matrix")
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=a.dtype)
    out[0::2, 1::2] = a
    return out


def matrix_p_norm(a: np.ndarray, p: float) -> float:
    """Schatten p-norm of a square matrix (usual trace): schatten_norm on the
    one-block algebra of weight 1."""
    a = np.asarray(a)
    return schatten_norm(TracialAlgebra(a.shape[:1], (1.0,)).operator(a[None]), p)


# ---------------------------------------------------------------------------
# numerical lower bounds on multiplier norms
# ---------------------------------------------------------------------------


def _norm_quotient(x: np.ndarray, p: float) -> tuple[float, Callable[[float], np.ndarray]]:
    """||x||_p from one SVD x = U S V*, and a callable giving its
    forward-difference quotient (||x + hE||_p - ||x||_p)/h at step h, real
    part for E = e_i e_j^T and imaginary part for E = i e_i e_j^T.

    The norm needs only the SVD; the callable keeps U, S, V* and forms the
    quotient from them each time it is called, never before.  Closed form to
    second order in h, f'(E) + (h/2) f''(E, E): f = F^{1/p}, F = tr phi(x*x),
    phi(t) = t^{p/2}, F' = p U S^{p-1} V*, and F'' from the Daleckii-Krein
    divided differences psi of phi' on S^2 (phi'' on pairs within 1e-8
    relative).  Only numerically positive singular values, where phi' and
    phi'' are finite, enter the h/2 term.
    """
    u, s, vh = np.linalg.svd(x)  # s is sorted in decreasing order
    if not s.any():
        return 0.0, lambda h: np.zeros_like(x)
    # at x / s[0] F >= 1 for any p; the norm has degree 1, the quotient 0 (h scaled too)
    top = s[0]
    s = s / top
    F = np.sum(s**p)

    def quotient(h: float) -> np.ndarray:
        h = h / top
        w = (u * s ** (p - 1.0)) @ vh
        keep = s > s[0] * x.shape[0] * np.finfo(float).eps
        us, vbar, lam = u[:, keep] * s[keep], vh[keep].T, s[keep] ** 2
        d1 = 0.5 * p * lam ** (0.5 * p - 1.0)
        d2 = 0.5 * p * (0.5 * p - 1.0) * lam ** (0.5 * p - 2.0)
        gap = lam[:, None] - lam[None, :]
        close = np.abs(gap) <= 1e-8 * np.maximum(lam[:, None], lam[None, :])
        psi = np.where(close, 0.5 * (d2[:, None] + d2[None, :]),
                       (d1[:, None] - d1[None, :]) / np.where(close, 1.0, gap))
        v2 = np.abs(vbar) ** 2
        # F'' = both + cross for the real direction, both - cross for the imaginary
        both = 2.0 * (v2 @ d1)[None, :] + 2.0 * (np.abs(us) ** 2 @ psi @ v2.T)
        q = us[:, None, :] * vbar[None, :, :]  # q[i, j, k] = (U S)_ik conj(V)_jk
        cross = 2.0 * np.sum((q @ psi) * q, axis=-1).real
        second = ((1 + 1j) * both + (1 - 1j) * cross
                  + p * (1.0 - p) * (w.real**2 + 1j * w.imag**2) / F)
        return F ** (1.0 / p - 1.0) * (w + h / (2 * p) * second)

    return float(top * F ** (1.0 / p)), quotient


def _ratio_quotient(m: np.ndarray, a: np.ndarray,
                    p: float) -> tuple[float, Callable[[], np.ndarray]]:
    """||m*a||_p / ||a||_p from one SVD pair, and a callable giving its
    forward-difference quotient at step h = 1e-6 ||a||_2, by the quotient
    rule from the two norm quotients; the numerator only moves where m is
    nonzero."""
    num, num_quotient = _norm_quotient(m * a, p)
    den, den_quotient = _norm_quotient(a, p)
    if den < 1e-300:
        return 0.0, lambda: np.zeros_like(a)

    def quotient() -> np.ndarray:
        h = 1e-6 * np.linalg.norm(a)
        return (m * num_quotient(h) * den - num * den_quotient(h)) / den**2

    return num / den, quotient


def _hilbert_start(n: int) -> np.ndarray:
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return (1.0 / (i - j + 0.5)).astype(complex)


def schur_norm_lower(m, p: float, budget: int = 40, restarts: int = 3,
                     seed: int = 0, starts=None,
                     return_argmax: bool = False):
    """Certified lower bound on the S^p -> S^p norm of a multiplier.

    Maximizes ||m*a||_p / ||a||_p by normalized gradient ascent along the
    forward-difference quotient (step h = 1e-6 ||a||_2), computed in closed
    form to second order in h, from `restarts` seeded random starts plus one
    deterministic Cauchy-kernel start.  Every start and every candidate costs
    one SVD pair (m*a and a), which gives its ratio; a rejected candidate
    costs nothing more.  The quotient pair is formed from the kept SVDs of
    an iterate only when a step is taken from it: once for each start, and
    once for each accepted candidate that the budget leaves a further step.
    The returned value is an attained ratio, hence a genuine lower bound.
    """
    if budget <= 0:
        raise DomainError("the iteration budget must be positive")
    if not (1.0 < p < math.inf):
        raise DomainError("needs 1 < p < inf")
    mm = _pattern_matrix(m).astype(float)
    n = mm.shape[0]
    rng = stream(seed, 3301)
    start_list = [
        _hilbert_start(n),
    ]
    for _ in range(max(restarts, 0)):
        start_list.append(rng.standard_normal((n, n))
                          + 1j * rng.standard_normal((n, n)))
    if starts is not None:
        start_list.extend(np.asarray(s, dtype=complex) for s in starts)

    best_val = 0.0
    best_arg = start_list[0]
    for a0 in start_list:
        a = a0 / max(np.linalg.norm(a0), 1e-300)
        val, quotient = _ratio_quotient(mm, a, p)
        g, lr = None, 0.5
        for _ in range(budget):
            if g is None:  # a new iterate: its quotient is formed now
                g = quotient()
            gn = np.linalg.norm(g)
            if gn < 1e-14:
                break
            cand = a + lr * np.linalg.norm(a) * g / gn
            cand_val, cand_quotient = _ratio_quotient(mm, cand, p)
            if cand_val > val:
                a, val, quotient, g = cand, cand_val, cand_quotient, None
                lr = min(lr * 1.3, 1.0)
            else:
                lr *= 0.5
                if lr < 1e-6:
                    break
        if val > best_val:
            best_val, best_arg = val, a
    if return_argmax:
        return float(best_val), best_arg
    return float(best_val)


# ---------------------------------------------------------------------------
# the reversed-L theorem
# ---------------------------------------------------------------------------


def reversed_l_bound(p: float) -> float:
    """(1 + C_p)/2 with C_p the dominated-martingale constant."""
    return (1.0 + dominated_constant(p)) / 2.0


def verify_reversed_L(m: Pattern, p: float, trials: int = 200,
                      seed: int = 0) -> VerifyReport:
    """Check ||m*a||_p <= (1+C_p)/2 ||a||_p on random self-adjoint matrices.

    For each trial the corner-filtration martingale (a_n) of a is built, the
    hook signs gamma_k = 2 m_k - 1 produce the tangent partner (b_n) by
    conjugating each difference with diag(1,..,gamma_k,..,1), and the exact
    identity m_unit * a = (a_N + b_N)/2 is asserted before the norm bound
    (m_unit is the pattern with its diagonal reset to ones, as in the
    diagonal-splitting reduction).
    """
    if m.tag != "reversed-L":
        raise DomainError("needs a reversed-L pattern")
    if p < 2:
        raise DomainError("the direct verification needs p >= 2")
    n = m.size
    filt = make_filtration("corner", dim=n)
    alg = filt.algebra
    m_unit = m.entries.copy()
    np.fill_diagonal(m_unit, 1.0)
    hooks = np.array([m.entries[k, 0] for k in range(1, n)])  # m_2..m_N
    gammas = 2.0 * hooks - 1.0

    const = reversed_l_bound(p)
    rng = stream(seed, 5501)
    worst_ratio = 0.0
    worst_identity = 0.0
    for _ in range(max(trials, 1)):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (g + g.conj().T) / 2.0
        mart = martingale_from_final(filt, alg.operator([a]))
        b_final = hook_flipped(mart, (1, 1, *gammas)).final.data[0]
        identity_dev = np.abs(m_unit * a - (a + b_final) / 2.0).max()
        worst_identity = max(worst_identity, float(identity_dev))
        scale = 1.0 + np.abs(a).max()
        if identity_dev > 1e-12 * scale:
            raise DomainError("the martingale splitting identity failed")
        worst_ratio = max(worst_ratio, matrix_p_norm(m.entries * a, p) / matrix_p_norm(a, p))
    return VerifyReport.compare(
        worst_ratio, const, const,
        {"p": p, "trials": trials, "identity_dev": worst_identity},
    )
