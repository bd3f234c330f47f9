"""Structured filtrations, conditional expectations and martingales.

Every structured algebra is a classical algebra, one block per atom (a sign
pattern, or an unlabelled block), tensor matrix factors
M_{d_1} (x) ... (x) M_{d_r}.  On each matrix factor a filtration level acts as
the corner expectation at an index k in [0, d]: the upper-left k x k corner is
kept, the remaining diagonal is replaced by its mean and everything else is
zeroed, so k = 0 is the normalised trace and k = d the identity.  A level
(``_StructuredLevel``) is one corner index per matrix factor followed by a
weighted average over runs of classical blocks.

Block order carries the classical conditioning: the sign patterns of depth m
are listed with the first sign varying slowest (``Filtration.signs``), so the
blocks that agree on their first n signs form 2**n contiguous runs of
2**(m - n) blocks each, and a level conditioning on n signs averages over
those runs.

The ``trivial_full`` family on blocks of mixed dimension has no such tensor
layout and uses the plain normalised-trace and identity levels instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, StructureError
from .opalgebra import (
    Operator,
    TracialAlgebra,
    direct_sum,
    operator_norm,
    psd_power,
    psd_sqrt,
    trace,
)

__all__ = [
    "Filtration",
    "Martingale",
    "make_filtration",
    "cond_exp",
    "martingale_from_final",
    "martingale_from_diffs",
    "martingale_direct_sum",
    "square_functions",
    "square_function",
    "conditioned_square_function",
    "diagonal_p_function",
    "rademacher_operator",
    "lift_with_matrix_factor",
    "sign_matrix_filtration",
]


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------


def _apply_factor_op(stack: np.ndarray, dims: Sequence[int], axis: int, k: int) -> np.ndarray:
    """Apply the corner expectation at index k on factor `axis` to every block
    of a (count, prod(dims), prod(dims)) stack; k = dims[axis] returns the
    stack itself."""
    d = dims[axis]
    if k == d:
        return stack
    pre = int(np.prod(dims[:axis], dtype=int))
    post = int(np.prod(dims[axis + 1 :], dtype=int))
    t = stack.reshape(len(stack), pre, d, post, pre, d, post)
    out = np.zeros_like(t)
    out[:, :, :k, :, :, :k, :] = t[:, :, :k, :, :, :k, :]
    tail = np.einsum("zajbcjd->zabcd", t[:, :, k:, :, :, k:, :]) / (d - k)
    idx = np.arange(k, d)
    out[:, :, idx, :, :, idx, :] = tail[None]
    return out.reshape(stack.shape)


@dataclass(frozen=True, eq=False)
class _StructuredLevel:
    """The corner expectations at indices ``ks`` (one per matrix factor) on
    every block, followed by the weighted mean over each of ``groups``
    contiguous, equally long runs of blocks.

    The runs are the conditioning classes because of block order: with the
    first sign varying slowest, the blocks that agree on their first n signs
    are the 2**n runs of a depth-m sign algebra (groups = 2**n), and one run
    holds every block when nothing classical is conditioned on.
    """

    groups: int
    factor_dims: tuple[int, ...]
    ks: tuple[int, ...]

    def apply(self, x: Operator) -> Operator:
        (m,) = x.stacks  # structured levels live on uniform algebras
        for axis, k in enumerate(self.ks):
            m = _apply_factor_op(m, self.factor_dims, axis, k)
        t = m.reshape(self.groups, -1, *m.shape[1:])
        w = np.asarray(x.algebra.weights).reshape(self.groups, -1)
        avg = (w[:, :, None, None] * t).sum(axis=1) / w.sum(axis=1)[:, None, None]
        return x.algebra.operator(np.repeat(avg, t.shape[1], axis=0))


# The two levels of ``trivial_full`` on blocks of mixed dimension.


@dataclass(frozen=True, eq=False)
class _TrivialLevel:
    def apply(self, x: Operator) -> Operator:
        alg = x.algebra
        c = trace(x) / alg.trace_identity()
        return alg.identity() * c


@dataclass(frozen=True, eq=False)
class _FullLevel:
    def apply(self, x: Operator) -> Operator:
        return x


# ---------------------------------------------------------------------------
# filtration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Filtration:
    """Ordered family E_0 <= E_1 <= ... <= E_N of conditional expectations.

    ``signs`` holds the classical atom of each block as a read-only
    (n_blocks, depth) array of +-1, depth 0 when there is no classical part.
    """

    algebra: TracialAlgebra
    signs: np.ndarray
    levels: tuple
    label: str = ""

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=float).view()
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def N(self) -> int:
        return len(self.levels) - 1

    def direct_sum(self, copies: int) -> "Filtration":
        """`copies` copies side by side, one per trial of a batch: blocks,
        weights and signs repeat, and each level averages over `copies` times
        as many runs, so it conditions every copy on its own."""
        if copies == 1:
            return self
        alg = self.algebra.direct_sum(copies)  # equal blocks: structured levels only
        levels = tuple(_StructuredLevel(lvl.groups * copies, lvl.factor_dims, lvl.ks)
                       for lvl in self.levels)
        return Filtration(alg, np.tile(self.signs, (copies, 1)), levels,
                          f"{copies}x{self.label}")


def _checked_level(filtration: Filtration, n: int, x: Operator) -> int:
    """Level index n, with -1 aliased to 0, once n is in range and x lives on
    the filtration's algebra."""
    if n == -1:
        n = 0
    if not 0 <= n < filtration.n_levels:
        raise DomainError(f"level {n} outside 0..{filtration.N}")
    if x.algebra.dims != filtration.algebra.dims:
        raise StructureError("operator does not live on the filtration's algebra")
    return n


def cond_exp(filtration: Filtration, n: int, x: Operator) -> Operator:
    """Apply E_n; n = -1 is aliased to level 0."""
    return filtration.levels[_checked_level(filtration, n, x)].apply(x)


# ---------------------------------------------------------------------------
# named filtration families
# ---------------------------------------------------------------------------


def _sign_patterns(depth: int) -> np.ndarray:
    """Every +-1 vector of length depth, one per row, the first coordinate
    varying slowest (row 0 is all +1)."""
    bits = np.arange(2**depth)[:, None] >> np.arange(depth - 1, -1, -1)
    return 1.0 - 2.0 * (bits & 1)


def _corner_levels(factor_dims: tuple[int, ...], steps) -> tuple:
    """One structured level per (number of leading signs, corner indices) step."""
    return tuple(_StructuredLevel(2**n, factor_dims, ks) for n, ks in steps)


_FILTRATION_KEYS = {"trivial_full": {"dims", "weights"}, "corner": {"dim"},
                    "rademacher": {"depth", "matrix_dim"},
                    "rademacher_corner": {"depth", "matrix_dim"},
                    "matrix_corner": {"outer_dim", "dim"}}


def make_filtration(kind: str, **params) -> Filtration:
    """Construct one of the supported structured filtration families.

    kinds:
      - ``trivial_full``: two levels (normalized trace, identity) on an
        arbitrary algebra; params ``dims``, ``weights``.
      - ``corner``: the matrix-corner filtration on M_d; param ``dim``.
      - ``rademacher``: depth-m sign algebra tensor a full matrix factor;
        params ``depth``, ``matrix_dim`` (default 1).
      - ``rademacher_corner``: sign algebra tensor a corner-filtered matrix
        factor, levels advance both; params as for ``rademacher``.
      - ``matrix_corner``: M_m tensor corner-filtered M_d (first factor always
        full); params ``outer_dim``, ``dim``.
    """
    if kind not in _FILTRATION_KEYS:
        raise DomainError(f"unknown filtration kind {kind!r}")
    unknown = sorted(set(params) - _FILTRATION_KEYS[kind])
    if unknown:
        raise DomainError(f"filtration kind {kind!r} reads no {unknown}"
                          f" (it reads {sorted(_FILTRATION_KEYS[kind])})")
    if kind == "trivial_full":
        dims = tuple(params.get("dims", (2,)))
        weights = tuple(params.get("weights", (1.0,) * len(dims)))
        alg = TracialAlgebra(dims, weights)
        if len(set(dims)) > 1:
            levels = (_TrivialLevel(), _FullLevel())
        else:
            levels = (_StructuredLevel(1, (dims[0],), (0,)),
                      _StructuredLevel(len(dims), (dims[0],), (dims[0],)))
        return Filtration(alg, np.zeros((len(dims), 0)), levels, f"trivial_full{dims}")
    if kind == "corner":
        d = int(params["dim"])
        alg = TracialAlgebra((d,), (1.0,))
        levels = _corner_levels((d,), ((0, (k,)) for k in range(d + 1)))
        return Filtration(alg, _sign_patterns(0), levels, f"corner(M_{d})")
    if kind in ("rademacher", "rademacher_corner"):
        depth = int(params["depth"])
        d = int(params.get("matrix_dim", 1))
        alg = TracialAlgebra((d,) * 2**depth, (2.0**-depth,) * 2**depth)
        if kind == "rademacher":
            steps = ((n, (d,)) for n in range(depth + 1))
        else:  # the corner steps advance both factors
            steps = ((min(n, depth), (min(n, d),)) for n in range(max(depth, d) + 1))
        return Filtration(alg, _sign_patterns(depth), _corner_levels((d,), steps),
                          f"{kind}(depth={depth},M_{d})")
    m = int(params["outer_dim"])  # matrix_corner
    d = int(params["dim"])
    alg = TracialAlgebra((m * d,), (1.0,))
    levels = _corner_levels((m, d), ((0, (m, k)) for k in range(d + 1)))
    return Filtration(alg, _sign_patterns(0), levels, f"matrix_corner(M_{m}xM_{d})")


def lift_with_matrix_factor(base: Filtration, outer_dim: int) -> Filtration:
    """Lift every level of `base` by a full (unfiltered) M_outer tensor factor.

    The lifted level n is id_{M_outer} (x) E_n; blocks keep their weights and
    signs, dimensions multiply by outer_dim.  The base must have uniform block
    dimensions.
    """
    alg = base.algebra
    if len(set(alg.dims)) > 1:
        raise StructureError("structured levels need uniform block dims")
    big = TracialAlgebra(tuple(outer_dim * d for d in alg.dims), alg.weights)
    levels = tuple(_StructuredLevel(lvl.groups, (outer_dim,) + lvl.factor_dims,
                                    (outer_dim,) + lvl.ks)
                   for lvl in base.levels)
    return Filtration(big, base.signs, levels, f"M_{outer_dim}(x){base.label}")


def sign_matrix_filtration(outer_dim: int, depth: int, base: Filtration) -> Filtration:
    """Filtration on M_outer (x) L^inf({-1,1}^depth) (x) base.

    Level k (0 <= k < depth) is full on the outer factor, conditions on the
    first k+1 sign coordinates, and applies the base level-k expectation on
    the matrix part.  The base algebra must be a single block.
    """
    if base.algebra.n_blocks != 1:
        raise StructureError("the doob-style embedding needs a one-block base")
    if depth > base.n_levels:
        raise StructureError("base filtration is too short")
    d_base = base.algebra.dims[0]
    big = TracialAlgebra((outer_dim * d_base,) * 2**depth,
                         (base.algebra.weights[0] * 2.0 ** -depth,) * 2**depth)
    levels = tuple(_StructuredLevel(2 ** (k + 1), (outer_dim,) + lvl.factor_dims,
                                    (outer_dim,) + lvl.ks)
                   for k, lvl in enumerate(base.levels[:depth]))
    return Filtration(big, _sign_patterns(depth), levels,
                      f"M_{outer_dim}(x)Omega_{depth}(x){base.label}")


def rademacher_operator(filtration: Filtration, j: int) -> Operator:
    """The j-th sign variable as a block-diagonal +-1 operator."""
    signs = filtration.signs
    if j >= signs.shape[1]:
        raise DomainError(f"sign coordinate {j} not present")
    return filtration.algebra.operator(
        signs[:, j, None, None] * np.eye(filtration.algebra.dims[0]))


# ---------------------------------------------------------------------------
# martingales
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Martingale:
    """Adapted sequence x_0..x_N with x_n = E_n(x_N), plus its differences."""

    filtration: Filtration
    values: tuple[Operator, ...]
    diffs: tuple[Operator, ...]

    @property
    def N(self) -> int:
        return len(self.values) - 1

    @property
    def final(self) -> Operator:
        return self.values[-1]

    @property
    def algebra(self) -> TracialAlgebra:
        return self.filtration.algebra

    def is_selfadjoint(self) -> bool:
        return all(v.hermitian for v in self.values)

    def __neg__(self) -> "Martingale":
        return self._negated

    @cached_property
    def _negated(self) -> "Martingale":
        # built once, so both signs keep their own Cuculescu cache across calls
        return Martingale(
            self.filtration,
            tuple(-v for v in self.values),
            tuple(-d for d in self.diffs),
        )

    @cached_property
    def cuculescu_cache(self) -> dict:
        """The tree of this martingale's Cuculescu steps, each node under the
        path of child keys that leads to it from the root at (); grown from
        the root by the query that reads it: :func:`ncgl.cuculescu.cuculescu_r`
        a level at a time, and :func:`ncgl.cuculescu.grow_grids`, which the
        good-lambda verifiers call with the level grids they read, breadth
        first, together with other martingales' trees; freed with the
        martingale."""
        return {}

    @cached_property
    def sup_norm(self) -> float:
        """max_n ||x_n||, the top of every level grid of this martingale."""
        return max(operator_norm(v) for v in self.values)

    def scale(self, c: float) -> "Martingale":
        return Martingale(
            self.filtration,
            tuple(v * c for v in self.values),
            tuple(d * c for d in self.diffs),
        )

    def parts(self, filtration: Filtration) -> list["Martingale"]:
        """The martingales of `filtration` that this one on a direct sum of its
        copies holds side by side, as views; :func:`martingale_direct_sum` undone."""
        split = lambda ops: zip(*(op.parts(filtration.algebra) for op in ops))
        return [Martingale(filtration, v, d) for v, d in zip(split(self.values), split(self.diffs))]


def _check_martingale(filtration: Filtration, values) -> None:
    tol = 1e-9 * (1.0 + max(v.entry_max() for v in values))
    for n, v in enumerate(values):
        if (cond_exp(filtration, n, v) - v).entry_max() > tol:
            raise DomainError(f"value at level {n} is not adapted")
        if n + 1 < len(values):
            drift = (cond_exp(filtration, n, values[n + 1]) - v).entry_max()
            if drift > tol:
                raise DomainError(f"martingale property fails at level {n}")


def martingale_from_final(
    filtration: Filtration, f: Operator, validate: bool = False
) -> Martingale:
    """The martingale x_n = E_n(f)."""
    values = tuple(cond_exp(filtration, n, f) for n in range(filtration.n_levels))
    diffs = (values[0],) + tuple(
        values[n] - values[n - 1] for n in range(1, len(values))
    )
    if validate:
        _check_martingale(filtration, values)
    return Martingale(filtration, values, diffs)


def martingale_direct_sum(ms: Sequence[Martingale]) -> Martingale:
    """Martingales of one filtration side by side on its direct sum, one
    summand each: their values and differences joined as they are, nothing
    recomputed."""
    filt = ms[0].filtration
    if any(m.filtration is not filt for m in ms):
        raise StructureError("a direct sum of martingales needs one filtration")
    join = lambda seqs: tuple(direct_sum(list(ops)) for ops in zip(*seqs))
    return Martingale(filt.direct_sum(len(ms)), join(m.values for m in ms),
                      join(m.diffs for m in ms))


def martingale_from_diffs(
    filtration: Filtration, diffs: Sequence[Operator], validate: bool = True
) -> Martingale:
    """Partial sums of a difference sequence, validated as a martingale."""
    if len(diffs) != filtration.n_levels:
        raise StructureError("one difference per filtration level expected")
    values = [diffs[0]]
    for d in diffs[1:]:
        values.append(values[-1] + d)
    if validate:
        _check_martingale(filtration, values)
    return Martingale(filtration, tuple(values), tuple(diffs))


# ---------------------------------------------------------------------------
# square functions
# ---------------------------------------------------------------------------


def square_function(m: Martingale) -> Operator:
    """S_N = (sum_k dx_k* dx_k)^(1/2)."""
    acc = sum((d.adjoint() @ d for d in m.diffs), m.algebra.zero())
    return psd_sqrt(acc.symmetrized())


def conditioned_square_function(m: Martingale) -> Operator:
    """s_N = (sum_k E_{k-1} |dx_k|^2)^(1/2), with E_{-1} aliased to E_0."""
    acc = sum((cond_exp(m.filtration, k - 1, d.adjoint() @ d) for k, d in enumerate(m.diffs)),
              m.algebra.zero())
    return psd_sqrt(acc.symmetrized())


def diagonal_p_function(m: Martingale, p: float) -> Operator:
    """z_N = (sum_k |dx_k|^p)^(1/p)."""
    if p < 2:
        raise DomainError("the diagonal p-function needs p >= 2")
    acc = sum((psd_power((d.adjoint() @ d).symmetrized(), p / 2.0) for d in m.diffs),
              m.algebra.zero())
    return psd_power(acc.symmetrized(), 1.0 / p)


def square_functions(m: Martingale, p: float):
    """(S_N, s_N, z_N) of a martingale."""
    return (
        square_function(m),
        conditioned_square_function(m),
        diagonal_p_function(m, p),
    )
