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
Where a summand's blocks sit is known to `TracialAlgebra.summand_rows` and
`TracialAlgebra.summand_columns` alone.
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
    "level_thresholds",
    "spectral_projection",
    "spectral_cuts",
    "func_calculus",
    "abs_spectral_trace",
    "proj_meet",
    "psd_sqrt",
    "psd_power",
    "min_eigenvalue",
    "cluster_tops",
]

# Hermitian detection; entrywise, stricter than the operator-norm bound the
# flag promises.
_HERM_TOL = 1e-12

# Eigenvalues closer than this times the largest |eigenvalue| of their row are
# one spectral cluster (cluster_tops), so the rule does not depend on scale.
_CLUSTER_TOL = 1e-8

# proj_meet keeps the eigenvalues of (I-e) + (I-f) below this; absolute, as they lie in [0, 2]
_MEET_TOL = 1e-8

# Relative tie tolerance of spectral cuts: an eigenvalue within
# _TIE_TOL * (1 + ||a||) of an interval endpoint sits on it, ||a|| per summand.
_TIE_TOL = 1e-10


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

    @cached_property
    def _sums(self) -> dict:
        """The direct sums built so far, by copy count.  They live as long as
        the algebra: for a family's algebra, which `instances.triple_family`
        builds once per process, that is the process, together with the sums
        kept on its sums.  One entry per copy count asked for, of about 16
        bytes per block."""
        return {}

    def direct_sum(self, copies: int) -> "TracialAlgebra":
        """`copies` copies side by side, each keeping its block weights; built
        once per copy count."""
        if copies == 1:
            return self
        if copies not in self._sums:
            self._sums[copies] = TracialAlgebra(self.dims * copies, self.weights * copies,
                                                self.summands * copies)
        return self._sums[copies]

    def summand_rows(self, per_run) -> np.ndarray:
        """Per-block arrays, one (count, ...) array per run, as one row per
        summand, its blocks' entries in algebra order: a reshape of a single
        array (a direct sum of several summands has a single run)."""
        if len(per_run) == 1:
            return per_run[0].reshape(self.summands, -1)
        return np.concatenate([a.reshape(1, -1) for a in per_run], axis=1)

    def summand_columns(self, values) -> tuple[np.ndarray, ...]:
        """`summand_rows` undone for one entry per dimension: (summands, m)
        rows, m the dimension of a summand, as one (count, d) array per run;
        one value per summand as a (count, 1) column of it per run."""
        values = np.asarray(values)
        if values.ndim == 1:  # a value per summand: one per block
            values = np.repeat(values, self.n_blocks // self.summands)
        if len(self.runs) == 1:  # a reshape: the slices below cost about ten times more
            return (values.reshape(self.n_blocks, -1),)
        sizes = [n if values.ndim == 1 else n * d for n, d in self.runs]
        flat = values.ravel()
        return tuple(flat[end - size:end].reshape(n, -1)
                     for end, size, (n, _) in zip(itertools.accumulate(sizes), sizes, self.runs))

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
    return alg.summand_rows([t]).sum(axis=1) if per_summand else t.sum()


def _tie_tols(alg: TracialAlgebra, values: list[np.ndarray]) -> tuple:
    """1e-10 (1 + m) per block as a column per run, m the largest |value| of
    its summand, for per-block values given as one array per run."""
    return alg.summand_columns(_TIE_TOL * (1.0 + np.abs(alg.summand_rows(values)).max(axis=1)))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _h(s: np.ndarray) -> np.ndarray:
    """Blockwise adjoint of a stack."""
    return s.conj().swapaxes(-1, -2)


def _sym(s: np.ndarray) -> np.ndarray:
    return 0.5 * (s + _h(s))


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
    def exactly_hermitian(self) -> bool:
        """Every block == its adjoint entrywise (IEEE, so a +-0 pair is equal)."""
        return all((s == _h(s)).all() for s in self.stacks)

    @cached_property
    def hermitian(self) -> bool:
        """Exactly Hermitian, or entrywise within 1e-12 (1 + max|block|) of the adjoint."""
        return self.exactly_hermitian or \
            not any(_non_hermitian_blocks(s).any() for s in self.stacks)

    @cached_property
    def data(self):
        """Read-only blocks in algebra order; the stack itself for one run."""
        views = [_readonly(s.view()) for s in self.stacks]
        return views[0] if len(views) == 1 else tuple(itertools.chain(*views))

    # -- spectra, each solved at most once per operator ----------------------

    def _solve(self, kernel: Callable) -> list:
        """`kernel` per run: of the stacks if exactly Hermitian, else of 0.5 (s + s*)."""
        return [kernel(s if self.exactly_hermitian else _sym(s)) for s in self.stacks]

    @cached_property
    def eigenvalues(self) -> tuple[np.ndarray, ...]:
        """Read-only (count, d) eigenvalues of each run from a values-only solve,
        _eigvalsh, of the Hermitian part 0.5 (s + s*), or of the stacks themselves
        when exactly Hermitian; exactly diagonal blocks are read off their diagonal."""
        return tuple(map(_readonly, self._solve(_eigvalsh)))

    @cached_property
    def spectrum(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Read-only per-run (eigenvalues, eigenvectors) of a Hermitian operator,
        solved as :attr:`eigenvalues` with vectors (_eigh)."""
        if not self.hermitian:
            raise DomainError("spectral calculus requires a Hermitian operator")
        return tuple(tuple(map(_readonly, run)) for run in self._solve(_eigh))

    @cached_property
    def basis_ok(self) -> bool:
        """|V*V - I| <= 1e-10/d entrywise in each d x d block of the eigenbasis V, so
        (Gershgorin on V_S*V_S) every cut V_S V_S* is within 1e-10 of {0, 1}."""
        return all(np.abs(_h(v) @ v - np.eye(v.shape[1])).max() <= 1e-10 / v.shape[1]
                   for _, v in self.spectrum)

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
        out.__dict__["exactly_hermitian"] = True  # conj flips signs: a fixed point of _sym
        return out

    def summand_scaled(self, factors) -> "Operator":
        """Summand i multiplied by factors[i]."""
        cols = self.algebra.summand_columns(np.asarray(factors, dtype=complex))
        return Operator(self.algebra, tuple(s * c[..., None] for s, c in zip(self.stacks, cols)))

    def parts(self, alg: TracialAlgebra) -> list["Operator"]:
        """The operators on `alg` that this direct sum of copies of `alg` holds
        side by side, as views, each with its share of the eigendecomposition
        and the ranks solved on the sum; :func:`direct_sum` undone."""
        n = alg.n_blocks
        k = self.algebra.n_blocks // n
        if k == 1:
            return [self]
        solved = self.__dict__
        out = [Operator(alg, (self.stacks[0][i * n:(i + 1) * n],)) for i in range(k)]
        for i, part in enumerate(out):
            blocks = slice(i * n, (i + 1) * n)
            if "spectrum" in solved:
                ((e, v),) = solved["spectrum"]
                part.__dict__["spectrum"] = ((e[blocks], v[blocks]),)
            if "summand_ranks" in solved:
                s = alg.summands
                part.__dict__["summand_ranks"] = solved["summand_ranks"][i * s:(i + 1) * s]
        return out

    # -- misc ---------------------------------------------------------------

    @cached_property
    def summand_ranks(self) -> tuple[int, ...]:
        """Rounded block-trace sum per summand: each one's rank for a projection."""
        traces = [np.trace(s, axis1=1, axis2=2).real for s in self.stacks]
        return tuple(map(round, self.algebra.summand_rows(traces).sum(axis=1).tolist()))

    def rank(self) -> int:
        """Sum of :attr:`summand_ranks`: the rank for a projection."""
        return sum(self.summand_ranks)

    def entry_max(self, per_summand: bool = False):
        m = self.algebra.summand_rows([np.abs(s) for s in self.stacks]).max(axis=1).tolist()
        return m if per_summand else max(m)

    def allclose(self, other: "Operator", tol: float = 1e-10) -> bool:
        self._same_algebra(other)
        return all(
            np.abs(a - b).max() <= tol for a, b in zip(self.stacks, other.stacks)
        )


def direct_sum(ops) -> Operator:
    """Operators of one algebra side by side; a single operator is itself.
    What every operator solved the sum has too, bit for bit, nothing solved
    again: the Hermitian flag, the eigenvalues and the eigendecomposition."""
    for op in ops[1:]:
        ops[0]._same_algebra(op)
    if len(ops) == 1:
        return ops[0]
    out = Operator(ops[0].algebra.direct_sum(len(ops)),
                   (np.concatenate([op.stacks[0] for op in ops]),))
    solved = [op.__dict__ for op in ops]
    if all("hermitian" in s for s in solved):
        out.__dict__["hermitian"] = all(s["hermitian"] for s in solved)
    join = lambda arrays: _readonly(np.concatenate(arrays))
    if all("eigenvalues" in s for s in solved):  # a direct sum has one run
        out.__dict__["eigenvalues"] = (join([s["eigenvalues"][0] for s in solved]),)
    if all("spectrum" in s for s in solved):
        out.__dict__["spectrum"] = (tuple(map(join, zip(*(s["spectrum"][0] for s in solved)))),)
    return out


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
        # signed distances to the ends; an infinite end gives +-inf, inside both
        lo, hi = eigs - self.lower, eigs - self.upper
        return ((lo >= -tol) if self.lower_closed else (lo > tol)) & \
            ((hi <= tol) if self.upper_closed else (hi < -tol))


def level_thresholds(a: Operator) -> list[np.ndarray]:
    """The tie rule of cutting a/l below 1 in threshold form: per run, the
    threshold t(e) = (e + 1e-10 m) / (1 - 1e-10) of each eigenvalue e of a
    Hermitian operator, m the largest |e| of its summand.  Interval.below(1.0)
    keeps e/l, e/l < 1 - 1e-10 (1 + m/l), iff the level l > t(e)."""
    eigs = [e for e, _ in a.spectrum]
    tols = _tie_tols(a.algebra, eigs)
    return [(e + (t - _TIE_TOL)) / (1.0 - _TIE_TOL) for e, t in zip(eigs, tols)]


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
    """Batched eigh of a stack of Hermitian blocks (the caller passes the Hermitian
    part of a stack that is not), exact on exactly diagonal blocks.  That keeps
    classical computations exact, so the commutative coincidences in the
    projection machinery hold with equality instead of to rounding error."""
    diag = _exact_diagonal(s)
    if diag.all():
        return _diagonal_eigh(s)
    eigs, vecs = np.linalg.eigh(s)
    if diag.any():
        eigs[diag], vecs[diag] = _diagonal_eigh(s[diag])
    return eigs, vecs


def _eigvalsh(s: np.ndarray) -> np.ndarray:
    """Batched eigvalsh of a stack of Hermitian blocks, one decision per stack: a
    stack of exactly diagonal blocks gives their sorted real diagonals with no
    LAPACK call, any other stack one LAPACK call, which returns those same values
    for each exactly diagonal block in it."""
    if _exact_diagonal(s).all():
        return np.sort(np.diagonal(s, axis1=1, axis2=2).real, axis=1)
    return np.linalg.eigvalsh(s)


def _compose(vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V* per block; spectral projections, meets and calculus.  A
    (k, count, d) `vals` gives k such stacks from one (count, d, d) `vecs`."""
    return (vecs * vals[..., None, :]) @ _h(vecs)


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
    norms = x.algebra.summand_rows(_singular_values(x)).max(axis=1).tolist()
    return norms if per_summand else max(norms)


def schatten_norm(x: Operator, p: float, per_summand: bool = False):
    """Weighted Schatten norm (tau(|x|^p))^(1/p), or of each summand; p = inf
    is the operator norm.  The largest singular value (of each summand) is
    factored out, so no power overflows at large p; a summand is reduced as
    it is alone, so its norm is its trial's, bit for bit."""
    if p != math.inf and p < 1:
        raise DomainError("Schatten norms are only supported for p >= 1")
    sv = _singular_values(x)
    tops = x.algebra.summand_rows(sv).max(axis=1).tolist()
    if not per_summand:
        tops = [max(tops)]
    norms = tops
    if p != math.inf:
        scales = [top or 1.0 for top in tops]  # a zero summand stays 0
        cols = x.algebra.summand_columns(scales) if per_summand else (scales[0],) * len(sv)
        totals = _total(x.algebra, [np.sum((s / c) ** p, axis=1) for s, c in zip(sv, cols)],
                        per_summand)
        norms = [float(top * total ** (1.0 / p))
                 for top, total in zip(tops, np.atleast_1d(totals))]
    return norms if per_summand else norms[0]


def min_eigenvalue(a: Operator, per_summand: bool = False):
    """Smallest eigenvalue over all blocks of a Hermitian operator, or of
    each summand."""
    if not a.hermitian:
        raise DomainError("min_eigenvalue requires a Hermitian operator")
    lows = a.algebra.summand_rows(a.eigenvalues).min(axis=1).tolist()
    return lows if per_summand else min(lows)


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------


def spectral_cuts(a: Operator, masks) -> Operator:
    """The projections V diag(mask) V* onto the eigenvectors of a Hermitian
    operator that each mask keeps, side by side on
    ``a.algebra.direct_sum(k)``: `masks` holds one boolean (k, count, d)
    array per run, indexed like the eigenvalues of ``a.spectrum``.  With
    k > 1 only the (cut, block) pairs whose mask keeps an eigenvalue are
    composed, and every other block is exactly 0; one mask composes every
    block, through the same product.

    The cuts are checked through ``a.basis_ok``, once per eigenbasis: every
    cut of `a` then lies within 1e-10 of {0, 1}.  Exactly diagonal blocks get
    an exact 0/1 diagonal.
    """
    if not a.basis_ok:
        raise DomainError("eigenvalues are not within 1e-10 of {0, 1}")
    stacks = []
    for (_, vecs), keep in zip(a.spectrum, masks):
        # one mask takes every block as a slice: gathering them cost more than it saved
        cut, block = keep.any(axis=2).nonzero() if len(keep) > 1 else (0, slice(None))
        live = _compose(vecs[block], keep[cut, block].astype(float))
        rows, i = _exact_diagonal(live).nonzero()[0][:, None], np.arange(vecs.shape[1])
        if rows.size:
            live[rows, i, i] = np.round(live[rows, i, i].real)
        s = np.zeros((len(keep), *vecs.shape), dtype=complex)
        s[cut, block] = live
        stacks.append(s.reshape(-1, *vecs.shape[1:]))
    return Operator(a.algebra.direct_sum(len(masks[0])), tuple(stacks))


def spectral_projection(a: Operator, interval: Interval) -> Operator:
    """Spectral projection of a Hermitian operator onto an interval: the cut
    of :func:`spectral_cuts` whose mask is the tie rule of
    :meth:`Interval.contains` with tolerance 1e-10 * (1 + operator norm),
    the norm per summand of `a`."""
    eigs = [e for e, _ in a.spectrum]
    return spectral_cuts(a, [interval.contains(e, t)[None]
                             for e, t in zip(eigs, _tie_tols(a.algebra, eigs))])


def abs_spectral_trace(x: Operator, interval: Interval) -> float:
    """tau(I_interval(|x|)), a weighted count of the singular values of `x`
    without forming |x|, under the tie rule :func:`spectral_projection`
    applies to |x|: its tie tolerance is taken from all of them (||x|| per
    summand)."""
    sv = _singular_values(x)
    counts = [interval.contains(s, t).sum(axis=1) for s, t in zip(sv, _tie_tols(x.algebra, sv))]
    return float(_total(x.algebra, counts))


def func_calculus(a: Operator, f: Callable[[np.ndarray], np.ndarray]) -> Operator:
    """Apply a scalar function to a Hermitian operator eigenvalue-wise.

    ``f`` must act elementwise on a float array, which it must not write to;
    NaN/inf in the result means the function is undefined somewhere on the
    spectrum and raises DomainError.
    """
    stacks = []
    for eigs, vecs in a.spectrum:
        vals = np.asarray(f(eigs), dtype=complex)
        if vals.shape != eigs.shape:
            raise DomainError("f must map the spectrum array to an array")
        if not np.all(np.isfinite(vals)):
            raise DomainError("f is undefined at an eigenvalue of the operator")
        stacks.append(_compose(vecs, vals))
    return Operator(a.algebra, tuple(stacks))


def _psd_calculus(a: Operator, f: Callable[[np.ndarray], np.ndarray],
                  what: str) -> Operator:
    """f of a PSD operator; eigenvalues down to -1e-10 (1 + ||a||) clip to 0."""
    eigs = [e for e, _ in a.spectrum]
    if any((e < -t).any() for e, t in zip(eigs, _tie_tols(a.algebra, eigs))):
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


def cluster_tops(rows: np.ndarray) -> np.ndarray:
    """The clusters of each row of eigenvalues, split where sorted neighbours
    lie more than 1e-8 m apart, m the row's largest |value|: (rows, C) the
    largest value of each cluster in increasing order, C the most clusters
    of any row, a row with fewer padded with inf."""
    vals = np.sort(rows, axis=1)
    scale = np.abs(vals).max(axis=1, keepdims=True)
    ends = np.ones(vals.shape, dtype=bool)
    ends[:, :-1] = np.diff(vals, axis=1) > _CLUSTER_TOL * scale
    order = np.cumsum(ends, axis=1) - 1
    tops = np.full((len(vals), order[:, -1].max() + 1), np.inf)
    tops[ends.nonzero()[0], order[ends]] = vals[ends]
    return tops


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def _meet_blocks(se: np.ndarray, sf: np.ndarray) -> np.ndarray:
    eigs, vecs = _eigh(_sym(2.0 * np.eye(se.shape[1]) - se - sf))
    return _compose(vecs, (eigs < _MEET_TOL).astype(float))


def proj_meet(e: Operator, f: Operator) -> Operator:
    """Projection onto range(e) & range(f).

    Decided per summand from the ranks where it is trivial, with nothing
    solved: the other operand where one has full rank, 0 where one has rank
    0.  Elsewhere computed blockwise as the eigenvalue-0 eigenspace of
    (I-e) + (I-f) with threshold _MEET_TOL; exact for exactly diagonal 0/1
    inputs, through the exact diagonal path of the eigensolve.
    """
    e._same_algebra(f)
    alg = e.algebra
    size = alg.total_dim // alg.summands
    # per summand: 0 the zero projection, 1 f, 2 e, 3 the solved meet
    kinds = [1 if a == size else 2 if b == size else 3 if a and b else 0
             for a, b in zip(e.summand_ranks, f.summand_ranks)]
    if set(kinds) == {3}:
        return Operator(alg, tuple(map(_meet_blocks, e.stacks, f.stacks)))
    if len(set(kinds)) == 1:
        return (alg.zero(), f, e)[kinds[0]]
    # a direct sum of several summands has a single run
    kind = np.repeat(kinds, alg.n_blocks // alg.summands)
    (se,), (sf,) = e.stacks, f.stacks
    out = np.zeros_like(se)
    out[kind == 1], out[kind == 2] = sf[kind == 1], se[kind == 2]
    out[kind == 3] = _meet_blocks(se[kind == 3], sf[kind == 3])
    return Operator(alg, (out,))
