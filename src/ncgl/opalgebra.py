"""Dense complex block-matrix operator algebras with weighted traces.

An algebra here is a finite direct sum of full matrix blocks M_{d_1} + ... +
M_{d_m}, each block carrying a positive weight; the trace of an element is the
weighted sum of the ordinary block traces.  An element is stored as one
complex (count, d, d) stack per maximal run of consecutive blocks of equal
dimension d, so every uniform algebra has a single stack and all block-wise
work runs as batched NumPy calls over the stacks.  This is enough to model
every finite von Neumann algebra with a faithful trace, including classical
probability spaces (all blocks of dimension one) and their tensor products
with matrix factors.
An algebra may be the direct sum of ``summands`` equal copies, one per trial
of a batch: reductions with ``per_summand=True`` give one value per copy, and
tie tolerances are taken per copy, so each trial is decided as it is alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, StructureError

__all__ = [
    "TracialAlgebra",
    "Operator",
    "Interval",
    "trace",
    "direct_sum",
    "schatten_norm",
    "operator_norm",
    "spectral_projection",
    "func_calculus",
    "abs_spectral_trace",
    "proj_meet",
    "operator_abs",
    "psd_sqrt",
    "psd_power",
    "min_eigenvalue",
    "cluster_eigenvalues",
]

# Hermitian detection; entrywise, stricter than the operator-norm bound the
# flag promises.
_HERM_TOL = 1e-12

# Eigenvalues closer than this (relative) are treated as one spectral cluster
# wherever distinct spectral projections are extracted.
_CLUSTER_TOL = 1e-8

# Relative tie tolerance of spectral cuts: an eigenvalue within
# _TIE_TOL * (1 + ||a||) of an interval endpoint sits on it, ||a|| per summand.
_TIE_TOL = 1e-10

# Batched kernels take at most this many blocks per call, so the temporaries
# of an 8,192-block stack stay an eighth of its size.
_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class TracialAlgebra:
    """Finite direct sum of matrix blocks with positive block weights; with
    ``summands`` = T > 1 the blocks are equal and the weights T copies."""

    dims: tuple[int, ...]
    weights: tuple[float, ...]
    summands: int = 1

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
        copies = self.summands
        if copies != 1 and (len(set(dims)) > 1 or
                            weights != weights[:len(dims) // max(copies, 1)] * copies):
            raise StructureError("a direct sum of trials needs equal blocks, weights repeated")

    @property
    def n_blocks(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @cached_property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """(count, d) of each maximal run of consecutive equal block dims."""
        return tuple((len(list(g)), d) for d, g in itertools.groupby(self.dims))

    def direct_sum(self, copies: int) -> "TracialAlgebra":
        """`copies` copies side by side, each keeping its block weights."""
        if copies == 1:
            return self
        return TracialAlgebra(self.dims * copies, self.weights * copies, self.summands * copies)

    def trace_identity(self) -> float:
        return float(sum(w * d for w, d in zip(self.weights, self.dims)))

    def identity(self) -> "Operator":
        return Operator(self, tuple(
            np.repeat(np.eye(d, dtype=complex)[None], n, axis=0) for n, d in self.runs))

    def zero(self) -> "Operator":
        return Operator(self, tuple(
            np.zeros((n, d, d), dtype=complex) for n, d in self.runs))

    def operator(self, blocks) -> "Operator":
        """Wrap block matrices given in algebra order.

        ``blocks`` holds one matrix per block; on an algebra with a single run
        it may also be the whole (n_blocks, d, d) stack, which is kept without
        copying when it is already complex.
        """
        if isinstance(blocks, np.ndarray) and blocks.ndim == 3:
            stacks = (np.asarray(blocks, dtype=complex),)
            shapes = [s.shape for s in stacks]
            if shapes != [(n, d, d) for n, d in self.runs]:
                raise StructureError(f"stack shape {shapes[0]} does not match dims {self.dims}")
        else:
            mats = [np.asarray(b, dtype=complex) for b in blocks]
            shapes = [m.shape for m in mats]
            if shapes != [(d, d) for d in self.dims]:
                raise StructureError(f"block shapes {shapes} do not match dims {self.dims}")
            it = iter(mats)
            stacks = tuple(np.stack(list(itertools.islice(it, n))) for n, _ in self.runs)
        return Operator(self, stacks)


def _total(alg: TracialAlgebra, per_run: list[np.ndarray], per_summand: bool = False):
    """sum_b w_b t_b for per-block values t given as one array per run, over
    all blocks or over those of each summand."""
    t = np.asarray(alg.weights) * np.concatenate(per_run)
    return t.reshape(alg.summands, -1).sum(axis=1) if per_summand else t.sum()


_REDUCE = {"max": max, "min": min, "sum": sum}


def _by_summand(alg: TracialAlgebra, per_run: list[np.ndarray], kind: str) -> list[float]:
    """The max, min or sum (`kind`) of the entries of each summand, for
    per-block arrays given as one per run (a direct sum of several summands
    has a single run)."""
    if alg.summands == 1:
        vals = [float(getattr(v, kind)()) for v in per_run]
        return vals if len(vals) == 1 else [_REDUCE[kind](vals)]
    return getattr(per_run[0].reshape(alg.summands, -1), kind)(axis=1).tolist()


def _block_columns(alg: TracialAlgebra, per_summand) -> tuple:
    """One value per summand as a column over its blocks, one per run; the
    value itself for a single summand."""
    if alg.summands == 1:
        return (per_summand[0],) * len(alg.runs)
    return (_readonly(np.repeat(per_summand, alg.n_blocks // alg.summands)[:, None]),)


def _tie_tols(alg: TracialAlgebra, magnitudes: list[np.ndarray]) -> tuple:
    """1e-10 * (1 + m) per block, m the largest magnitude of its summand."""
    norms = _by_summand(alg, magnitudes, "max")
    return _block_columns(alg, [_TIE_TOL * (1.0 + m) for m in norms])


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _h(s: np.ndarray) -> np.ndarray:
    """Blockwise adjoint of a stack."""
    return s.conj().swapaxes(-1, -2)


def _sym(s: np.ndarray) -> np.ndarray:
    return 0.5 * (s + _h(s))


def _per_block(kernel: Callable, *stacks: np.ndarray):
    """kernel(*stacks) for a kernel that maps blocks to per-block results (an
    array, or a tuple of arrays), run on slices of at most _CHUNK blocks."""
    n = len(stacks[0])
    if n <= _CHUNK:
        return kernel(*stacks)
    out = None
    for i in range(0, n, _CHUNK):
        part = kernel(*(s[i:i + _CHUNK] for s in stacks))
        parts = part if isinstance(part, tuple) else (part,)
        if out is None:
            out = tuple(np.empty((n,) + p.shape[1:], p.dtype) for p in parts)
        for o, p in zip(out, parts):
            o[i:i + _CHUNK] = p
    return out if isinstance(part, tuple) else out[0]


def _non_hermitian_blocks(s: np.ndarray) -> np.ndarray:
    scale = 1.0 + np.abs(s).max(axis=(1, 2))
    return np.abs(s - _h(s)).max(axis=(1, 2)) > _HERM_TOL * scale


@dataclass(frozen=True, eq=False)
class Operator:
    """Element of a :class:`TracialAlgebra`: one complex (count, d, d) stack
    per run of equal block dimension (``TracialAlgebra.runs``)."""

    algebra: TracialAlgebra
    stacks: tuple[np.ndarray, ...]

    @cached_property
    def hermitian(self) -> bool:
        """Every block within 1e-12 (1 + max|block|) of its adjoint, entrywise."""
        return not any(_per_block(_non_hermitian_blocks, s).any() for s in self.stacks)

    @cached_property
    def data(self):
        """Read-only blocks in algebra order; the stack itself for one run."""
        views = [_readonly(s.view()) for s in self.stacks]
        return views[0] if len(views) == 1 else tuple(itertools.chain(*views))

    # -- spectra, each solved at most once per operator ----------------------

    @cached_property
    def eigenvalues(self) -> tuple[np.ndarray, ...]:
        """Read-only (count, d) eigenvalues of each run of the symmetrized
        operator, from a values-only solve."""
        return tuple(_readonly(_per_block(lambda c: np.linalg.eigvalsh(_sym(c)), s))
                     for s in self.stacks)

    @cached_property
    def spectrum(self) -> tuple[tuple, tuple]:
        """Read-only per-run (eigenvalues, eigenvectors) of a Hermitian
        operator, and its tie tolerances 1e-10 * (1 + ||a||) per block, ||a||
        the largest absolute eigenvalue of its summand (_block_columns)."""
        if not self.hermitian:
            raise DomainError("spectral calculus requires a Hermitian operator")
        runs = tuple(tuple(map(_readonly, _per_block(_eigh, s))) for s in self.stacks)
        return runs, _tie_tols(self.algebra, [np.abs(e) for e, _ in runs])

    @cached_property
    def basis_ok(self) -> bool:
        """|V*V - I| <= 1e-10/d entrywise in each d x d block of the eigenbasis V, so
        (Gershgorin on V_S*V_S) every cut V_S V_S* is within 1e-10 of {0, 1}."""
        return all(
            _per_block(lambda v: np.abs(_h(v) @ v - np.eye(v.shape[1])).max(axis=(1, 2)), vecs)
            .max() <= 1e-10 / vecs.shape[1] for _, vecs in self.spectrum[0])

    # -- arithmetic ---------------------------------------------------------

    def _same_algebra(self, other: "Operator") -> None:
        if self.algebra.dims != other.algebra.dims:
            raise StructureError("operands live on different algebras")

    def _binary(self, op: Callable, other: "Operator") -> "Operator":
        self._same_algebra(other)
        return Operator(self.algebra, tuple(map(op, self.stacks, other.stacks)))

    def __add__(self, other: "Operator") -> "Operator":
        return self._binary(np.add, other)

    def __sub__(self, other: "Operator") -> "Operator":
        return self._binary(np.subtract, other)

    def __neg__(self) -> "Operator":
        return Operator(self.algebra, tuple(-a for a in self.stacks))

    def __mul__(self, c) -> "Operator":
        c = complex(c)
        return Operator(self.algebra, tuple(c * a for a in self.stacks))

    __rmul__ = __mul__

    def __truediv__(self, c) -> "Operator":
        return self * (1.0 / complex(c))

    def __matmul__(self, other: "Operator") -> "Operator":
        return self._binary(np.matmul, other)

    def adjoint(self) -> "Operator":
        return Operator(self.algebra, tuple(_h(a) for a in self.stacks))

    def symmetrized(self) -> "Operator":
        out = Operator(self.algebra, tuple(_sym(a) for a in self.stacks))
        out.__dict__["hermitian"] = True  # conj flips signs only: exactly Hermitian
        return out

    def summand_scaled(self, factors) -> "Operator":
        """Summand i multiplied by factors[i]."""
        cols = _block_columns(self.algebra, np.asarray(factors, dtype=complex))
        return Operator(self.algebra, tuple(s * np.asarray(c)[..., None]
                                            for s, c in zip(self.stacks, cols)))

    def summand(self, i: int) -> "Operator":
        """Summand i on the algebra of one summand."""
        alg = self.algebra
        size = alg.n_blocks // alg.summands
        return TracialAlgebra(alg.dims[:size], alg.weights[:size]).operator(
            self.stacks[0][i * size:(i + 1) * size]) if alg.summands > 1 else self

    # -- misc ---------------------------------------------------------------

    @cached_property
    def summand_ranks(self) -> tuple[int, ...]:
        """Rounded block-trace sum per summand: each one's rank for a projection."""
        traces = [np.trace(s, axis1=1, axis2=2).real for s in self.stacks]
        return tuple(map(round, _by_summand(self.algebra, traces, "sum")))

    def rank(self) -> int:
        """Sum of :attr:`summand_ranks`: the rank for a projection."""
        return sum(self.summand_ranks)

    def entry_max(self, per_summand: bool = False):
        m = _by_summand(self.algebra, [np.abs(s) for s in self.stacks], "max")
        return m if per_summand else max(m)

    def allclose(self, other: "Operator", tol: float = 1e-10) -> bool:
        self._same_algebra(other)
        return all(
            np.abs(a - b).max() <= tol for a, b in zip(self.stacks, other.stacks)
        )


def direct_sum(ops) -> Operator:
    """Operators of one algebra side by side; a single operator is itself."""
    for op in ops[1:]:
        ops[0]._same_algebra(op)
    alg = ops[0].algebra.direct_sum(len(ops))
    return ops[0] if len(ops) == 1 else \
        Operator(alg, (np.concatenate([op.stacks[0] for op in ops]),))


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

    def contains(self, eigs: np.ndarray, tol: float) -> np.ndarray:
        """Membership mask under the boundary tie rule.

        An eigenvalue within ``tol`` of an endpoint is treated as sitting
        exactly on the endpoint, so the pair (-inf, c) / [c, inf) always
        partitions the spectrum exactly; ``tol`` may broadcast per block.
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


def _exact_diagonal(s: np.ndarray) -> np.ndarray:
    """Mask of the blocks of a stack whose off-diagonal entries are all zero."""
    n, d, _ = s.shape
    # row by row and less its last entry, a block is d - 1 runs of (diagonal, d off-diagonal)
    return ~s.reshape(n, d * d)[:, :-1].reshape(n, d - 1, d + 1)[:, :, 1:].any(axis=(1, 2))


def _diagonal_eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a stack of exactly diagonal blocks, with no rounding at all."""
    n, d, _ = s.shape
    vals = np.diagonal(s, axis1=1, axis2=2).real
    order = np.argsort(vals, axis=1, kind="stable")
    vecs = np.zeros(s.shape, dtype=complex)
    vecs[np.arange(n)[:, None], order, np.arange(d)] = 1.0
    return np.take_along_axis(vals, order, axis=1), vecs


def _eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched eigh of the Hermitian part of a stack, exact on exactly
    diagonal blocks.

    The exact path keeps classical (all-diagonal) computations exact, which is
    what makes the commutative coincidences in the projection machinery hold
    with equality instead of to rounding error.
    """
    s = _sym(s)
    diag = _exact_diagonal(s)
    if diag.all():
        return _diagonal_eigh(s)
    eigs, vecs = np.linalg.eigh(s)
    if diag.any():
        eigs[diag], vecs[diag] = _diagonal_eigh(s[diag])
    return eigs, vecs


def _compose(vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V* per block; spectral projections, meets and calculus."""
    return (vecs * vals[:, None, :]) @ _h(vecs)


def _projection(a: Operator, interval: Interval) -> Operator:
    """Spectral projection of a Hermitian operator onto `interval`, from its
    cached spectrum; exactly diagonal blocks get an exact 0/1 diagonal."""
    spectrum, tol = a.spectrum
    stacks = tuple(
        _per_block(_compose, vecs, interval.contains(eigs, t).astype(float))
        for (eigs, vecs), t in zip(spectrum, tol))
    for s in stacks:
        blocks, i = np.flatnonzero(_exact_diagonal(s))[:, None], np.arange(s.shape[1])
        if blocks.size:
            s[blocks, i, i] = np.round(s[blocks, i, i].real)
    return Operator(a.algebra, stacks)


# ---------------------------------------------------------------------------
# trace and norms
# ---------------------------------------------------------------------------


def trace(x: Operator, per_summand: bool = False):
    """Weighted sum of block traces (one per summand on request); real, and a
    float when whole, for Hermitian input."""
    val = _total(x.algebra, [np.trace(s, axis1=1, axis2=2) for s in x.stacks], per_summand)
    return (val.real if per_summand else float(val.real)) if x.hermitian else val


def trace_pair(x: Operator, y: Operator, per_summand: bool = False):
    """tau(x y) without forming the full product (per summand on request)."""
    x._same_algebra(y)
    return _total(x.algebra, [np.einsum("bij,bji->b", a, b)
                              for a, b in zip(x.stacks, y.stacks)], per_summand)


def _singular_values(x: Operator) -> list[np.ndarray]:
    if x.hermitian:
        return [np.abs(e) for e in x.eigenvalues]
    return [np.linalg.svd(s, compute_uv=False) for s in x.stacks]


def operator_norm(x: Operator, per_summand: bool = False):
    """Largest singular value across blocks (weights are irrelevant here), or
    of each summand."""
    norms = _by_summand(x.algebra, _singular_values(x), "max")
    return norms if per_summand else max(norms)


def schatten_norm(x: Operator, p: float) -> float:
    """Weighted Schatten norm (tau(|x|^p))^(1/p); p = inf is the operator norm.
    The largest singular value is factored out, so no power overflows at large p."""
    if p != math.inf and p < 1:
        raise DomainError("Schatten norms are only supported for p >= 1")
    sv = _singular_values(x)
    top = max(float(s.max()) for s in sv)
    if p == math.inf or top == 0.0:
        return top
    return top * _total(x.algebra, [np.sum((s / top) ** p, axis=1) for s in sv]) ** (1.0 / p)


def min_eigenvalue(a: Operator, per_summand: bool = False):
    """Smallest eigenvalue over all blocks of a Hermitian operator, or of
    each summand."""
    if not a.hermitian:
        raise DomainError("min_eigenvalue requires a Hermitian operator")
    lows = _by_summand(a.algebra, a.eigenvalues, "min")
    return lows if per_summand else min(lows)


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------


def spectral_projection(a: Operator, interval: Interval) -> Operator:
    """Spectral projection of a Hermitian operator onto an interval.

    Eigenvalue membership at the endpoints follows the tie rule of
    :meth:`Interval.contains` with tolerance 1e-10 * (1 + operator norm), the
    norm per summand.  The cut is checked through ``a.basis_ok``, once per
    eigenbasis: every cut of `a` then lies within 1e-10 of {0, 1}.
    """
    if not a.basis_ok:
        raise DomainError("eigenvalues are not within 1e-10 of {0, 1}")
    return _projection(a, interval)


def abs_spectral_trace(x: Operator, interval: Interval) -> float:
    """tau(I_interval(|x|)), counting singular values without forming |x|, under
    the tie rule :func:`spectral_projection` applies to |x| (of norm ||x||)."""
    sv = _singular_values(x)
    counts = [interval.contains(s, t).sum(axis=1)
              for s, t in zip(sv, _tie_tols(x.algebra, sv))]
    return float(_total(x.algebra, counts))


def func_calculus(a: Operator, f: Callable[[np.ndarray], np.ndarray]) -> Operator:
    """Apply a scalar function to a Hermitian operator eigenvalue-wise.

    ``f`` must act elementwise on a float array, which it must not write to;
    NaN/inf in the result means the function is undefined somewhere on the
    spectrum and raises DomainError.
    """
    stacks = []
    for eigs, vecs in a.spectrum[0]:
        vals = np.asarray(f(eigs), dtype=complex)
        if vals.shape != eigs.shape:
            raise DomainError("f must map the spectrum array to an array")
        if not np.all(np.isfinite(vals)):
            raise DomainError("f is undefined at an eigenvalue of the operator")
        stacks.append(_per_block(_compose, vecs, vals))
    return Operator(a.algebra, tuple(stacks))


def _psd_calculus(a: Operator, f: Callable[[np.ndarray], np.ndarray],
                  what: str) -> Operator:
    """f of a PSD operator; eigenvalues down to -1e-10 (1 + ||a||) clip to 0."""
    spectrum, tol = a.spectrum
    if any((e < -t).any() for (e, _), t in zip(spectrum, tol)):
        raise DomainError(f"{what} needs a positive semidefinite operator")
    return func_calculus(a, lambda e: f(np.clip(e, 0.0, None)))


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
    gaps = np.diff(vals) > _CLUSTER_TOL * (1.0 + scale)
    return np.split(vals, np.flatnonzero(gaps) + 1)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def _meet_blocks(se: np.ndarray, sf: np.ndarray) -> np.ndarray:
    eigs, vecs = _eigh(2.0 * np.eye(se.shape[1]) - se - sf)
    return _compose(vecs, (eigs < 1e-8).astype(float))


def proj_meet(e: Operator, f: Operator) -> Operator:
    """Projection onto range(e) & range(f).

    Computed blockwise as the eigenvalue-0 eigenspace of (I-e) + (I-f) with
    threshold 1e-8; exact for exactly diagonal 0/1 inputs, through the exact
    diagonal path of the eigensolve.
    """
    e._same_algebra(f)
    stacks = tuple(_per_block(_meet_blocks, se, sf)
                   for se, sf in zip(e.stacks, f.stacks))
    return Operator(e.algebra, stacks)
