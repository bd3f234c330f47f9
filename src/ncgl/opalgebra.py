"""Dense complex block-matrix operator algebras with weighted traces.

An algebra here is a finite direct sum of full matrix blocks M_{d_1} + ... +
M_{d_m}, each block carrying a positive weight; the trace of an element is the
weighted sum of the ordinary block traces.  All elements are kept as dense
complex matrices, one per block.  This is enough to model every finite
von Neumann algebra with a faithful trace, including classical probability
spaces (all blocks of dimension one) and their tensor products with matrix
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, StructureError

__all__ = [
    "TracialAlgebra",
    "Operator",
    "Projection",
    "Interval",
    "trace",
    "schatten_norm",
    "operator_norm",
    "spectral_projection",
    "func_calculus",
    "proj_meet",
    "operator_abs",
    "psd_sqrt",
    "psd_power",
    "min_eigenvalue",
    "cluster_eigenvalues",
]

# Hermitian flag detection; entrywise, stricter than the operator-norm bound
# the flag promises.
_HERM_TOL = 1e-12

# Eigenvalues closer than this (relative) are treated as one spectral cluster
# wherever distinct spectral projections are extracted.
_CLUSTER_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class TracialAlgebra:
    """Finite direct sum of matrix blocks with positive block weights."""

    dims: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "weights", weights)
        if len(dims) != len(weights):
            raise StructureError("one weight per block is required")
        if not dims:
            raise StructureError("algebra needs at least one block")
        if any(d <= 0 for d in dims):
            raise StructureError("block dimensions must be positive")
        if any(not (w > 0) for w in weights):
            raise StructureError("block weights must be positive")

    @property
    def n_blocks(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def trace_identity(self) -> float:
        return float(sum(w * d for w, d in zip(self.weights, self.dims)))

    def identity(self) -> "Operator":
        return Operator(self, tuple(np.eye(d, dtype=complex) for d in self.dims), True)

    def zero(self) -> "Operator":
        return Operator(
            self, tuple(np.zeros((d, d), dtype=complex) for d in self.dims), True
        )

    def operator(self, blocks: Iterable[np.ndarray]) -> "Operator":
        """Wrap raw block matrices, auto-detecting the Hermitian flag."""
        data = []
        for d, b in zip(self.dims, blocks):
            m = np.asarray(b, dtype=complex)
            if m.shape != (d, d):
                raise StructureError(f"block shape {m.shape} does not match dim {d}")
            data.append(m)
        if len(data) != self.n_blocks:
            raise StructureError("wrong number of blocks")
        return Operator(self, tuple(data), _detect_hermitian(data))

    def diagonal_operator(self, diagonals: Iterable[np.ndarray]) -> "Operator":
        return self.operator(
            [np.diag(np.asarray(v, dtype=complex)) for v in diagonals]
        )

    def tensor(self, other: "TracialAlgebra") -> "TracialAlgebra":
        """Tensor product algebra, blocks ordered self-major."""
        dims = tuple(d1 * d2 for d1 in self.dims for d2 in other.dims)
        weights = tuple(w1 * w2 for w1 in self.weights for w2 in other.weights)
        return TracialAlgebra(dims, weights)


def _detect_hermitian(blocks: Sequence[np.ndarray]) -> bool:
    for b in blocks:
        scale = 1.0 + (np.abs(b).max() if b.size else 0.0)
        if np.abs(b - b.conj().T).max() > _HERM_TOL * scale:
            return False
    return True


@dataclass(frozen=True, eq=False)
class Operator:
    """Element of a :class:`TracialAlgebra`: one complex matrix per block."""

    algebra: TracialAlgebra
    data: tuple[np.ndarray, ...]
    hermitian: bool

    # -- arithmetic ---------------------------------------------------------

    def _same_algebra(self, other: "Operator") -> None:
        if self.algebra.dims != other.algebra.dims:
            raise StructureError("operands live on different algebras")

    def __add__(self, other: "Operator") -> "Operator":
        self._same_algebra(other)
        return Operator(
            self.algebra,
            tuple(a + b for a, b in zip(self.data, other.data)),
            self.hermitian and other.hermitian,
        )

    def __sub__(self, other: "Operator") -> "Operator":
        self._same_algebra(other)
        return Operator(
            self.algebra,
            tuple(a - b for a, b in zip(self.data, other.data)),
            self.hermitian and other.hermitian,
        )

    def __neg__(self) -> "Operator":
        return Operator(self.algebra, tuple(-a for a in self.data), self.hermitian)

    def __mul__(self, c) -> "Operator":
        c = complex(c)
        herm = self.hermitian and c.imag == 0.0
        return Operator(self.algebra, tuple(c * a for a in self.data), herm)

    __rmul__ = __mul__

    def __truediv__(self, c) -> "Operator":
        return self * (1.0 / complex(c))

    def __matmul__(self, other: "Operator") -> "Operator":
        self._same_algebra(other)
        data = tuple(a @ b for a, b in zip(self.data, other.data))
        return Operator(self.algebra, data, _detect_hermitian(data))

    def adjoint(self) -> "Operator":
        return Operator(
            self.algebra, tuple(a.conj().T for a in self.data), self.hermitian
        )

    def symmetrized(self) -> "Operator":
        data = tuple(0.5 * (a + a.conj().T) for a in self.data)
        return Operator(self.algebra, data, True)

    # -- misc ---------------------------------------------------------------

    def entry_max(self) -> float:
        return max(float(np.abs(b).max()) if b.size else 0.0 for b in self.data)

    def allclose(self, other: "Operator", tol: float = 1e-10) -> bool:
        self._same_algebra(other)
        return all(
            np.abs(a - b).max() <= tol for a, b in zip(self.data, other.data)
        )


@dataclass(frozen=True)
class Interval:
    """Real interval with individually open/closed endpoints (lower <= upper)."""

    lower: float = -math.inf
    upper: float = math.inf
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self):
        if self.lower > self.upper:
            raise DomainError("interval endpoints out of order")

    @staticmethod
    def below(b: float, closed: bool = False) -> "Interval":
        return Interval(-math.inf, b, False, closed)

    @staticmethod
    def at_least(a: float) -> "Interval":
        return Interval(a, math.inf, True, False)

    @staticmethod
    def above(a: float) -> "Interval":
        return Interval(a, math.inf, False, False)

    def contains(self, eigs: np.ndarray, tol: float) -> np.ndarray:
        """Membership mask under the boundary tie rule.

        An eigenvalue within ``tol`` of an endpoint is treated as sitting
        exactly on the endpoint, so the pair (-inf, c) / [c, inf) always
        partitions the spectrum exactly.
        """
        eigs = np.asarray(eigs, dtype=float)
        mask = np.ones(eigs.shape, dtype=bool)
        if np.isfinite(self.lower):
            side = _tie_compare(eigs, self.lower, tol)
            mask &= (side >= 0) if self.lower_closed else (side > 0)
        if np.isfinite(self.upper):
            side = _tie_compare(eigs, self.upper, tol)
            mask &= (side <= 0) if self.upper_closed else (side < 0)
        return mask


def _tie_compare(eigs: np.ndarray, c: float, tol: float) -> np.ndarray:
    """-1 / 0 / +1 comparison of eigenvalues against an endpoint with snapping."""
    side = np.sign(eigs - c).astype(int)
    side[np.abs(eigs - c) <= tol] = 0
    return side


# ---------------------------------------------------------------------------
# eigendecomposition helpers
# ---------------------------------------------------------------------------


def _is_exact_diagonal(block: np.ndarray) -> bool:
    if block.shape[0] <= 1:
        return True
    off = block.copy()
    np.fill_diagonal(off, 0.0)
    return not np.any(off)


def _eigh_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh with an exact fast path for diagonal blocks.

    The fast path keeps classical (all-diagonal) computations exact, which is
    what makes the commutative coincidences in the projection machinery hold
    with equality instead of to rounding error.
    """
    if _is_exact_diagonal(block):
        d = block.shape[0]
        eigs = np.real(np.diag(block)).astype(float)
        order = np.argsort(eigs, kind="stable")
        vecs = np.zeros((d, d), dtype=complex)
        vecs[order, np.arange(d)] = 1.0
        return eigs[order], vecs
    return np.linalg.eigh(block)


def _spectrum(a: Operator, what: str) -> tuple[list, float]:
    """Per-block eigendecomposition of a Hermitian operator and its tie tolerance.

    Every eigenvector-based helper solves its operator here, once.  The
    tolerance 1e-10 * (1 + ||a||) is read off the same eigenvalues, ||a||
    being the largest absolute eigenvalue over all blocks.
    """
    if not a.hermitian:
        raise DomainError(f"{what} requires a Hermitian operator")
    spectrum = [_eigh_block(0.5 * (b + b.conj().T)) for b in a.data]
    norm = max((float(np.abs(e).max()) for e, _ in spectrum if e.size), default=0.0)
    return spectrum, 1e-10 * (1.0 + norm)


def _projection(algebra: TracialAlgebra, spectrum: list, interval: Interval,
                tol: float, check: bool = True) -> "Projection":
    """Spectral projection onto `interval` assembled from a computed spectrum."""
    blocks = []
    for eigs, vecs in spectrum:
        v = vecs[:, interval.contains(eigs, tol)]
        blocks.append(v @ v.conj().T)
    return Projection(Operator(algebra, tuple(blocks), True), check=check)


def _eigvalsh_blocks(x: Operator) -> list[np.ndarray]:
    return [np.linalg.eigvalsh(0.5 * (b + b.conj().T)) for b in x.data]


# ---------------------------------------------------------------------------
# trace and norms
# ---------------------------------------------------------------------------


def trace(x: Operator):
    """Weighted sum of block traces; returns a float for Hermitian input."""
    val = sum(
        w * complex(np.trace(b)) for w, b in zip(x.algebra.weights, x.data)
    )
    return float(val.real) if x.hermitian else val


def trace_pair(x: Operator, y: Operator):
    """tau(x y) without forming the full product."""
    x._same_algebra(y)
    val = sum(
        w * complex(np.einsum("ij,ji->", a, b))
        for w, a, b in zip(x.algebra.weights, x.data, y.data)
    )
    return val


def _singular_values(x: Operator) -> list[np.ndarray]:
    if x.hermitian:
        return [np.abs(e) for e in _eigvalsh_blocks(x)]
    return [np.linalg.svd(b, compute_uv=False) for b in x.data]


def operator_norm(x: Operator) -> float:
    """Largest singular value across blocks (weights are irrelevant here)."""
    return max(float(s.max()) if s.size else 0.0 for s in _singular_values(x))


def schatten_norm(x: Operator, p: float) -> float:
    """Weighted Schatten norm (tau(|x|^p))^(1/p); p = inf is the operator norm."""
    if p != math.inf and p < 1:
        raise DomainError("Schatten norms are only supported for p >= 1")
    if p == math.inf:
        return operator_norm(x)
    sv = _singular_values(x)
    total = sum(
        w * float(np.sum(s**p)) for w, s in zip(x.algebra.weights, sv)
    )
    return total ** (1.0 / p)


def min_eigenvalue(a: Operator) -> float:
    """Smallest eigenvalue over all blocks of a Hermitian operator."""
    if not a.hermitian:
        raise DomainError("min_eigenvalue requires a Hermitian operator")
    return min(float(e.min()) for e in _eigvalsh_blocks(a))


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------


def spectral_projection(a: Operator, interval: Interval) -> "Projection":
    """Spectral projection of a Hermitian operator onto an interval.

    Eigenvalue membership at the endpoints follows the tie rule of
    :meth:`Interval.contains` with tolerance 1e-10 * (1 + operator norm).
    """
    spectrum, tol = _spectrum(a, "spectral_projection")
    return _projection(a.algebra, spectrum, interval, tol)


def _apply(a: Operator, spectrum: list,
           f: Callable[[np.ndarray], np.ndarray]) -> Operator:
    """f applied eigenvalue-wise to a spectrum computed by :func:`_spectrum`."""
    out = []
    all_real = True
    for eigs, vecs in spectrum:
        vals = np.asarray(f(eigs), dtype=complex)
        if vals.shape != eigs.shape:
            raise DomainError("f must map the spectrum array to an array")
        if not np.all(np.isfinite(vals)):
            raise DomainError("f is undefined at an eigenvalue of the operator")
        all_real = all_real and not np.any(vals.imag)
        out.append((vecs * vals) @ vecs.conj().T)
    return Operator(a.algebra, tuple(out), all_real)


def func_calculus(a: Operator, f: Callable[[np.ndarray], np.ndarray]) -> Operator:
    """Apply a scalar function to a Hermitian operator eigenvalue-wise.

    ``f`` must accept a float array; NaN/inf in the result means the function
    is undefined somewhere on the spectrum and raises DomainError.
    """
    return _apply(a, _spectrum(a, "func_calculus")[0], f)


def _psd_calculus(a: Operator, f: Callable[[np.ndarray], np.ndarray],
                  what: str) -> Operator:
    """f of a PSD operator; eigenvalues down to -1e-10 (1 + ||a||) clip to 0."""
    spectrum, tol = _spectrum(a, what)
    if any(e.size and e.min() < -tol for e, _ in spectrum):
        raise DomainError(f"{what} needs a positive semidefinite operator")
    return _apply(a, spectrum, lambda e: f(np.clip(e, 0.0, None)))


def psd_sqrt(a: Operator) -> Operator:
    """Square root of a PSD Hermitian operator (tiny negative noise clipped)."""
    return _psd_calculus(a, np.sqrt, "psd_sqrt")


def psd_power(a: Operator, p: float) -> Operator:
    """a^p for PSD Hermitian a and real p > 0."""
    if p <= 0:
        raise DomainError("psd_power expects a positive exponent")
    return _psd_calculus(a, lambda e: e ** p, "psd_power")


def operator_abs(x: Operator) -> Operator:
    """|x| = (x* x)^(1/2); eigenvalue-wise for Hermitian input."""
    if x.hermitian:
        return func_calculus(x, np.abs)
    return psd_sqrt(x.adjoint() @ x)


def cluster_eigenvalues(values: np.ndarray, scale: float) -> list[np.ndarray]:
    """Group sorted eigenvalues into clusters separated by > 1e-8*(1+scale)."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        return []
    tol = _CLUSTER_TOL * (1.0 + scale)
    clusters = [[vals[0]]]
    for v in vals[1:]:
        if v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [np.asarray(c) for c in clusters]


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Projection:
    """Hermitian idempotent wrapped with a validity check on construction."""

    op: Operator
    check: bool = True

    def __post_init__(self):
        if not self.check:
            return
        if not self.op.hermitian:
            raise DomainError("projections must be Hermitian")
        for eigs in _eigvalsh_blocks(self.op):
            if eigs.size and np.abs(eigs - np.round(eigs)).max() > 1e-10:
                raise DomainError("eigenvalues are not within 1e-10 of {0, 1}")
            if eigs.size and (eigs.min() < -1e-10 or eigs.max() > 1.0 + 1e-10):
                raise DomainError("eigenvalues are not within 1e-10 of {0, 1}")

    @property
    def algebra(self) -> TracialAlgebra:
        return self.op.algebra

    def complement(self) -> "Projection":
        return Projection(self.op.algebra.identity() - self.op, check=False)

    def trace(self) -> float:
        return trace(self.op)

    def rank(self) -> int:
        return int(round(sum(float(np.trace(b).real) for b in self.op.data)))

    def allclose(self, other: "Projection", tol: float = 1e-10) -> bool:
        return self.op.allclose(other.op, tol)


def proj_meet(e: Projection, f: Projection) -> Projection:
    """Projection onto range(e) & range(f).

    Computed blockwise as the eigenvalue-0 eigenspace of (I-e) + (I-f) with
    threshold 1e-8; exact entrywise minimum when both are exactly diagonal
    (which keeps diagonals that are 0/1 only to rounding as they are).
    """
    e.op._same_algebra(f.op)
    out = []
    for be, bf in zip(e.op.data, f.op.data):
        if _is_exact_diagonal(be) and _is_exact_diagonal(bf):
            out.append(np.diag(np.minimum(np.diag(be).real, np.diag(bf).real)).astype(complex))
            continue
        m = 2.0 * np.eye(be.shape[0]) - be - bf
        eigs, vecs = _eigh_block(0.5 * (m + m.conj().T))
        v = vecs[:, eigs < 1e-8]
        out.append(v @ v.conj().T)
    return Projection(Operator(e.op.algebra, tuple(out), True), check=False)
