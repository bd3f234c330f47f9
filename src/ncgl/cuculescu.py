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

from .errors import DomainError, NCGLError, NumericalInstabilityError
from .filtration import Martingale, cond_exp
from .opalgebra import (
    Operator,
    direct_sum,
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
    "grow_grids",
    "corrected_p",
    "weak_max",
    "weak_maxima",
    "fubini_identity_gap",
]

# absolute: projections and their differences have eigenvalues in [-1, 1] at every scale
_DRIFT_LIMIT = 1e-6    # a snapped projection's eigenvalues from {0, 1}
_MONOTONE_TOL = 1e-9   # min_eig(R_{n-1} - R_n) below 0


def _normalized(p: Operator) -> Operator:
    """Snap each full-rank / rank-zero summand of a projection to exact I / 0;
    every other summand keeps its entries, bit for bit."""
    alg = p.algebra
    if p.rank() == 0:
        return alg.zero()
    if p.rank() == alg.total_dim:
        return alg.identity()
    ranks, size = p.summand_ranks, alg.total_dim // alg.summands
    if 0 not in ranks and size not in ranks:
        return p
    out = Operator(alg, tuple(
        np.where(r[..., None] == 0, 0.0, np.where(r[..., None] == size, np.eye(s.shape[1]), s))
        for s, r in zip(p.stacks, alg.summand_columns(ranks))))
    out.__dict__["summand_ranks"] = ranks
    return out


def _snap_projection(raw: Operator) -> Operator:
    """Re-symmetrize and round a near-projection; abort on real drift."""
    sym = raw.symmetrized()
    eigs = [e for e, _ in sym.spectrum]
    drift = max(float(np.abs(e - (e >= 0.5)).max()) for e in eigs)
    if drift > _DRIFT_LIMIT:
        raise NumericalInstabilityError(
            f"projection drifted by {drift:.2e} from idempotency"
        )
    return _normalized(spectral_cuts(sym, [(e >= 0.5)[None] for e in eigs]))


@dataclass(frozen=True, eq=False, slots=True)
class _Step:
    """The level-free measurements of one step R_{n-1} -> R_n, one float per
    summand of the algebra.

    `top` comes from its own eigensolve of the snapped C = R_n y_n R_n, not
    from the spectrum that set the cut.  C kills ker R_n and maps into
    range R_n, so R_n - C/level is 1 - C/level on the range and 0 on the
    kernel; its smallest eigenvalue is below a negative threshold iff
    1 - top/level is."""

    norm: tuple[float, ...]        # ||y_n||
    adapted: tuple[float, ...]     # entry_max(E_n(R_n) - R_n)
    monotone: tuple[float, ...]    # min_eig(R_{n-1} - R_n)
    commutator: tuple[float, ...]  # entry_max([R_n, R_{n-1} y_n R_{n-1}])
    top: tuple[float, ...]         # max_eig(R_n y_n R_n)


@dataclass(frozen=True, eq=False, slots=True)
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
        summands = zip(s.norm, s.adapted, s.monotone, s.commutator, s.top)
        for i, (norm, adapted, monotone, commutator, top) in enumerate(summands):
            # membership in M_n
            if adapted > 1e-9 * (1.0 + norm / level):
                raise fail(f"R_{n} left the level-{n} subalgebra (summand {i})")
            if monotone < -_MONOTONE_TOL:
                raise fail(f"R_{n} is not below R_{n-1} (summand {i})")
            # commutation with the compressed martingale value
            if commutator > 1e-8 * (level + norm):
                raise fail(f"R_{n} fails to commute at step {n} (summand {i})")
            if level - top < -1e-8 * (level + norm):
                raise fail(f"R_{n} y_n R_{n} exceeds R_{n} (summand {i})")


@dataclass(eq=False, slots=True)
class _Node:
    """R_n on one branch of a martingale's tree of Cuculescu steps, with the
    sequence R_0..R_n that leads to it (none at the root, where R_{-1} = I),
    and once cut, the thresholds of the next step's cut in ascending order
    (see `_cut`)."""

    r: Operator
    seq: CuculescuSeq
    thresholds: list | None = None


# what a step, a cut or a band walk made ahead of its query may raise: that
# work is let go, and each query that needs it makes it alone and raises it
_FAILURES = (NCGLError, np.linalg.LinAlgError)

# A batch of steps holds about ten operators of its size at once: at most this
# many block entries per batch bounds them at about 0.3 MiB.
_BATCH_ENTRIES = 2**11


def _cut(items: list) -> list:
    """The cuts of (martingale, n, node) items on one algebra as one direct
    sum: C = R_{n-1} y_n R_{n-1} and the thresholds of `level_thresholds` in
    ascending order, so that the cut of C/l below 1 keeps an eigenvalue iff
    l exceeds its threshold; one (C, thresholds) per item."""
    alg, k = items[0][2].r.algebra, len(items)
    r = direct_sum([node.r for _, _, node in items])
    c = (r @ direct_sum([y.values[n] for y, n, _ in items]) @ r).symmetrized()
    # each item's summands are consecutive rows
    ordered = np.sort(c.algebra.summand_rows(level_thresholds(c)).reshape(k, -1), axis=1)
    return list(zip(c.parts(alg), ordered.tolist()))


def _step(items: list) -> list:
    """The steps of (martingale, n, node, C, level) items on one algebra as
    one direct sum: from each node and the C of its `_cut`, the step that
    keeps the eigenvalues of C whose threshold is below the level,
    R_n = R_{n-1} I(C/level < 1), snapped, with its measurements; one
    (R_n, _Step) per item."""
    y0, n = items[0][:2]
    alg, k = y0.algebra, len(items)
    r_prev = direct_sum([node.r for _, _, node, _, _ in items])
    c = direct_sum([cut for *_, cut, _ in items])
    levels = c.algebra.summand_columns(np.repeat([level for *_, level in items], alg.summands))
    keep = [(t < col)[None] for t, col in zip(level_thresholds(c), levels)]
    r_n = _snap_projection(r_prev @ spectral_cuts(c, keep))
    commutator = (r_n @ c - c @ r_n).entry_max(per_summand=True)
    values = [y.values[n] for y, *_ in items]
    for v in set(values):  # each distinct value solved once, on its own object
        v.hermitian, v.eigenvalues
    y_n = direct_sum(values)  # carries what its parts solved
    measured = zip(
        operator_norm(y_n, per_summand=True),
        (cond_exp(y0.filtration.direct_sum(k), n, r_n) - r_n).entry_max(per_summand=True),
        min_eigenvalue((r_prev - r_n).symmetrized(), per_summand=True),
        commutator,
        min_eigenvalue(-(r_n @ y_n @ r_n).symmetrized(), per_summand=True))
    rows, s = [(a, b, m, com, -low) for a, b, m, com, low in measured], alg.summands
    return [(part, _Step(*zip(*rows[i * s:(i + 1) * s])))
            for i, part in enumerate(r_n.parts(alg))]


def _batched(kernel, items: list) -> list:
    """`kernel` over the items of each filtration and time n, in
    equal batches of at most _BATCH_ENTRIES block entries; one item a batch
    on blocks of unequal dimension, which have no direct sum.  The results
    in the order of the items."""
    if len(items) < 2:
        return kernel(items) if items else []
    groups = {}
    for i, (y, n, *_) in enumerate(items):
        groups.setdefault((y.filtration, n), []).append(i)
    got = {}
    for (filt, _), index in groups.items():
        fits = max(1, _BATCH_ENTRIES // sum(d * d for d in filt.algebra.dims))
        batches = len(index) if len(filt.algebra.runs) > 1 else -(-len(index) // fits)
        size = -(-len(index) // batches)
        for chunk in (index[j:j + size] for j in range(0, len(index), size)):
            got.update(zip(chunk, kernel([items[i] for i in chunk])))
    return [got[i] for i in range(len(items))]


def _windows(node: _Node, first_above):
    """(key, level, lo, hi) of each child of `node` whose window lo < l <= hi
    holds a requested level, `level` the lowest of them, in ascending order;
    `first_above(a)` is the lowest requested level above a (inf if none)."""
    ordered = node.thresholds
    lo, hi = node.seq.lo, node.seq.hi
    while math.isfinite(level := first_above(lo)) and level <= hi:
        k = bisect.bisect_left(ordered, level)  # the thresholds below the level
        top = min(hi, ordered[k]) if k < len(ordered) else hi
        yield k, level, max(lo, ordered[k - 1]) if k else lo, top
        if top == hi:
            return
        lo = top


def _grow(requests: list) -> None:
    """Grow the tree of each (martingale, first_above) request from its root
    to every level that `first_above` names (see `_windows`), all trees
    together and breadth first: at each step, one batch of cuts over every
    node on the way that lacks a child asked for, and one batch of steps
    over every child missing, per filtration and time n.  A node keeps only
    the ordered thresholds of its cut: the cut's C serves that round's
    steps and is let go, so a later query that misses a child cuts the node
    again.  Each node's windows are listed once a round, after its first cut.
    A cut or a step that raises ends the growth:
    every node stored stays, and a query that misses the rest grows it again
    from the root."""
    frontier = []
    for y, first_above in requests:
        if () not in y.cuculescu_cache:
            y.cuculescu_cache[()] = _Node(y.algebra.identity(),
                                          CuculescuSeq(0.0, math.inf, (), ()))
        frontier.append((y, first_above, ()))
    while frontier:
        nodes = [(y, len(path), y.cuculescu_cache[path]) for y, _, path in frontier]
        windows = [None if node.thresholds is None else list(_windows(node, first_above))
                   for (_, first_above, _), (_, _, node) in zip(frontier, nodes)]
        uncut = [item for item, (y, _, path), w in zip(nodes, frontier, windows)
                 if w is None or any(path + (key,) not in y.cuculescu_cache for key, *_ in w)]
        cuts = {}
        for (_, _, node), cut in zip(uncut, _batched(_cut, uncut)):
            cuts[node], node.thresholds = cut
        children, missing = [], []
        for (y, first_above, path), (_, n, node), w in zip(frontier, nodes, windows):
            for key, level, lo, hi in w if w is not None else _windows(node, first_above):
                child = path + (key,)
                if child not in y.cuculescu_cache:
                    missing.append(((y, n, node, cuts[node], level), child, lo, hi))
                if n < y.N:
                    children.append((y, first_above, child))
        for ((y, _, node, _, _), child, lo, hi), (r_n, step) in zip(
                missing, _batched(_step, [item for item, *_ in missing])):
            seq = node.seq
            y.cuculescu_cache[child] = _Node(r_n, CuculescuSeq(
                max(seq.lo, lo), min(seq.hi, hi), seq.projections + (r_n,), seq.steps + (step,)))
        frontier = children


def _reached(y: Martingale, level: float) -> _Node | None:
    """The leaf that `level` reaches in y's tree, or None where the tree
    stops short of it."""
    tree, path = y.cuculescu_cache, ()
    node = tree.get(path)
    while node is not None:
        if len(path) == len(y.values):
            return node
        if node.thresholds is None:
            return None
        path += (bisect.bisect_left(node.thresholds, level),)
        node = tree.get(path)
    return None


def cuculescu_r(y: Martingale, level: float) -> CuculescuSeq:
    """The level-`level` Cuculescu sequence of a self-adjoint martingale.

    R_n only changes where the level crosses a threshold of an eigenvalue of
    C = R_{n-1} y_n R_{n-1}, so the sequences of all levels form one tree
    per martingale (`Martingale.cuculescu_cache`), each step computed once.
    The walk from its root takes at each node the child of the thresholds
    below the level and returns the record stored at the leaf, whose window
    lo < level <= hi is exact.  Where the tree stops short, this call grows
    it to the level, as `grow_grids` grows whole grids, on one martingale
    and one level: from the root, cutting again the node where the tree stops.
    A step of the path that fails raises its error here, also where growth
    ahead of this query let it go.  The Lemma invariants are checked from
    the stored measurements at every level returned.
    """
    if not (level > 0):
        raise DomainError("the cut level must be positive")
    if not y.is_selfadjoint():
        raise DomainError("Cuculescu projections need a self-adjoint martingale")
    node = _reached(y, level)
    if node is None:
        _grow([(y, _levels([level]))])
        node = _reached(y, level)
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


def _k_range(y: Martingale, B: float) -> tuple[int, int]:
    sup = y.sup_norm
    if sup <= 0.0:
        top = 0
    else:
        top = int(math.ceil(math.log(sup, B))) + 1
    lo = int(math.floor(math.log(1e-8 * (1.0 + sup), B)))
    return min(lo, top), top


def _index_above(a: float, B: float, lo: int, hi: int) -> int:
    """The lowest j in [lo, hi] with B^j above a (hi + 1 if none), sought
    from just below log_B(a) with exact B ** j comparisons, so no level is
    listed."""
    j = max(lo, math.floor(math.log(a, B)) - 1) if a > 0 else lo
    while j <= hi and B ** j <= a:
        j += 1
    return j


def _grid(B: float, lo: int, hi: int):
    """`first_above` (see `_windows`) of the levels B^j, lo <= j <= hi."""
    def first_above(a: float) -> float:
        j = _index_above(a, B, lo, hi)
        return B ** j if j <= hi else math.inf
    return first_above


def _meet(items: list) -> list:
    """The meets e & f of (martingale, n, e, f) items on one algebra as one
    direct sum, each normalized (see `_normalized`); one meet per item."""
    alg = items[0][0].algebra
    meets = proj_meet(direct_sum([e for *_, e, _ in items]), direct_sum([f for *_, f in items]))
    return _normalized(meets).parts(alg)


def _bands(y: Martingale, bases: tuple, rows: tuple):
    """The band walks of y's tree at every base of `bases`, as a generator of
    one pass over its leaves, highest window first.  A leaf that holds the
    next band top B^k of some bases checks each top, yields the meets
    (martingale, n, R_n, above) of their columns, one per distinct (n, above),
    all bases starting from the root's identity object, is sent the results,
    and checks each band's bottom; it returns each base's bands (`_walk`)."""
    tree, ranges = y.cuculescu_cache, [_k_range(y, B) for B in bases]
    tops, bands = [top for _, top in ranges], [[] for _ in bases]
    cols = [dict.fromkeys(rows, tree[()].r) for _ in bases]
    for seq in sorted((node.seq for path, node in tree.items() if len(path) == len(y.values)),
                      key=lambda seq: -seq.hi):
        served = [i for i, (B, k, (lo, _)) in enumerate(zip(bases, tops, ranges))
                  if k >= lo and B ** k > seq.lo]
        for i in served:
            _check_level(seq, bases[i] ** tops[i])
        asked = {(n, id(above)): (y, n, seq.R(n), above)
                 for i in served for n, above in cols[i].items() if above.rank() > 0}
        got = dict(zip(asked, (yield list(asked.values())))) if served else {}
        for i in served:
            B, (lo, _), k = bases[i], ranges[i], tops[i]
            col = {n: above if above.rank() == 0 else got[n, id(above)]
                   for n, above in cols[i].items()}
            low = lo
            if any(p.rank() > 0 for p in col.values()):
                # the band's bottom, the lowest level above seq.lo
                low = _index_above(seq.lo, B, lo, k - 1)
                _check_level(seq, B ** low)
            bands[i].append((k, low, col))
            cols[i], tops[i] = col, low - 1
    return [tuple(b) for b in bands]


def _walk(walks: list) -> list:
    """Run the band walks `walks` (see `_bands`) in lockstep, each walk's next
    serving leaf a round, with one `_meet` batch per round, filtration and
    row n (`_batched`).  The result of each walk; the first error that any
    walk meets is raised."""
    out, asked = [None] * len(walks), [None] * len(walks)

    def advance(i, value):
        try:
            asked[i] = walks[i].send(value)
        except StopIteration as done:
            out[i] = done.value

    for i in range(len(walks)):
        advance(i, None)
    while live := [i for i in range(len(walks)) if out[i] is None]:
        got = iter(_batched(_meet, [item for i in live for item in asked[i]]))
        for i in live:
            advance(i, [next(got) for _ in asked[i]])
    return out


def _levels(ordered: list):
    """`first_above` (see `_windows`) of the ascending levels `ordered`."""
    def first_above(a: float) -> float:
        j = bisect.bisect_right(ordered, a)
        return ordered[j] if j < len(ordered) else math.inf
    return first_above


def grow_grids(ys, bases, levels=()) -> list | None:
    """Grow the Cuculescu trees of the self-adjoint martingales `ys` to every
    level of the `corrected_p` grid of every base in `bases`, and to each of
    the cut `levels`, all trees together: breadth first, with one batch of
    cuts and one batch of steps per time n and filtration, each one direct
    sum.  A node's children are the windows between its thresholds that hold
    a level asked for, so the steps grown are bounded by the thresholds, not
    by the grid.  Then walk each tree's leaves once for all bases, the trees
    in lockstep (`_bands`, `_walk`), and return each y's final-row bands at
    every base.  The verifiers call it with the grids they read
    (`weak_maxima`, `goodlambda.verify_tail`).  Where a step, cut, meet or
    check fails, the growth or the walk is let go (`_FAILURES`) and None is
    returned: the nodes already grown stay, and each query that needs the
    rest makes it alone and raises its own error."""
    if not all(y.is_selfadjoint() for y in ys):
        raise DomainError("Cuculescu projections need a self-adjoint martingale")
    if not all(B > 1 for B in bases):
        raise DomainError("the base B must exceed 1")
    if not all(level > 0 for level in levels):
        raise DomainError("the cut level must be positive")
    fixed = _levels(sorted(levels))
    grids = [[_grid(B, *_k_range(y, B)) for B in bases] + [fixed] for y in ys]
    try:
        _grow([(y, lambda a, fs=fs: min(f(a) for f in fs)) for y, fs in zip(ys, grids)])
        return _walk([_bands(y, tuple(bases), (y.N,)) for y in ys])
    except _FAILURES:
        return None


def _alone(y: Martingale, B: float, rows: tuple) -> tuple:
    """The bands of `rows` of y at base B, its tree grown to B's grid and
    walked on this base alone; an error of either is raised here."""
    _grow([(y, _grid(B, *_k_range(y, B)))])
    ((bands,),) = _walk([_bands(y, (B,), rows)])
    return bands


def corrected_p(y: Martingale, B: float) -> CorrectedSeq:
    """Compute the bands of P_n^{B^k} for k in [k_min, k_top], every row n.

    The lattice meet over l >= k is truncated at k_top, above which every
    R_n^{B^l} equals the identity because the martingale is bounded; this is
    exact, not an approximation.  Below, k_min is the truncation point
    B^{k_min} ~ 1e-8 (1 + ||y||).  A band is one leaf of y's tree: one
    sequence, one meet per row, its ends checked (see `_check_level`).  An
    all-zero column holds to k_min.  The call grows y's tree to B's grid
    and walks it on this base alone (`_bands`, `_walk`); an error of the
    growth or the walk is raised here.
    """
    if not (B > 1):
        raise DomainError("the base B must exceed 1")
    if not y.is_selfadjoint():
        raise DomainError("corrected projections need a self-adjoint martingale")
    return CorrectedSeq(y, float(B), _alone(y, B, tuple(range(y.N + 1))))


@dataclass(frozen=True, eq=False)
class WeakMax:
    """One-sided weak maximal operator a_N^± with its residual kernel."""

    operator: Operator
    corrected: CorrectedSeq

    @property
    def residual(self) -> Operator:
        """P_N^{B^{k_min}}, the kernel left below the truncation point."""
        return self.corrected.bands[-1][2][self.corrected.martingale.N]


def _staircases(sums: list) -> Operator:
    """Each sum_i w[i] (a[i] - b[i]) of the (w, a, b) in `sums`, over
    operators of one algebra, side by side on its direct sum: per run, one
    reduction over every stacked term, each sum padded in front by exact
    zeros to the longest and added term by term from 0 in order, so each is
    bit for bit the sum of the Operators (a[i] - b[i]) * w[i]."""
    alg, m, k = sums[0][1][0].algebra, max(len(w) for w, _, _ in sums), len(sums)
    pad = lambda seq, fill: [fill] * (m - len(seq)) + list(seq)
    w = np.array([pad(ws, 0.0) for ws, _, _ in sums], dtype=complex).T  # (term, sum)
    # every run's blocks, term-major: one (m * k, count, d, d) stack per run
    runs = lambda ops: map(np.stack, zip(*(op.stacks for term in zip(*ops) for op in term)))
    zero, stacks = alg.zero(), []
    for x, z, (count, d) in zip(runs([pad(a, zero) for _, a, _ in sums]),
                                runs([pad(b, zero) for _, _, b in sums]), alg.runs):
        t = (x - z).reshape(m, k * count, d, d) * np.repeat(w, count, axis=1)[..., None, None]
        stacks.append(np.add.accumulate(np.concatenate([np.zeros_like(t[:1]), t]))[-1])
    return Operator(alg.direct_sum(k), tuple(stacks))


def weak_maxima(ys: list, bases) -> list[list[WeakMax]]:
    """a_N^+ = sum_k B^k (P_N^{B^{k+1}} - P_N^{B^k}) of each martingale of `ys`,
    of one algebra, at each base of `bases`: per base, each y's WeakMax,
    holding its part of one `_staircases` reduction.  a_N^- is that of -y.

    They are built from the final-row bands of one `grow_grids` call; where
    it let its work go, each (y, B) pair is made alone, base by base in the
    order of `ys`, and the first that fails raises its error.  Only the top
    level of each band has a nonzero term, summed from the lowest band up.
    Spectral mass below the truncation point B^{k_min} is assigned to the
    residual kernel projection; the moment verifications account for it
    with an analytic geometric tail.
    """
    walked, alg = grow_grids(ys, bases), ys[0].algebra
    ident, out = alg.identity(), []
    for i, B in enumerate(bases):
        cps = [CorrectedSeq(y, float(B), walked[j][i] if walked else _alone(y, B, (y.N,)))
               for j, y in enumerate(ys)]
        cols = [[col[cp.martingale.N] for *_, col in reversed(cp.bands)] for cp in cps]
        acc = _staircases([([B ** high for high, _, _ in reversed(cp.bands)],
                            c[1:] + [ident], c) for cp, c in zip(cps, cols)])
        out.append([WeakMax(a, cp) for a, cp in zip(acc.symmetrized().parts(alg), cps)])
    return out


def weak_max(y: Martingale, B: float) -> WeakMax:
    """a_N^+ of y, `weak_maxima` of y alone; a_N^- is weak_max(-y, B)."""
    return weak_maxima([y], [B])[0][0]


def _band_sum(B: float, q: float, top: int, n: int) -> float:
    """sum_{j=0}^{n-1} B^{(top - j) q}, in closed form from the top term down:
    B^{top q} (1 - B^{-n q}) / (1 - B^{-q}).  With top <= 0 nothing overflows,
    and expm1 keeps both factors exact to rounding as q -> 0."""
    ln_b = math.log(B)
    return B ** (top * q) * math.expm1(-n * q * ln_b) / math.expm1(-q * ln_b)


def fubini_identity_gap(wms: list[WeakMax], p: float) -> np.ndarray:
    """Relative gap ||lhs - rhs|| / (1 + ||rhs||) in the summation identity
    linking P_N^{B^k} and a_N^+, for each of the weak maximal operators `wms`
    of one base and one algebra, as an array.

    lhs: sum over the truncated k-range of B^{k(p-2)} (I - P_N^{B^k}) plus the
    analytic geometric tail below the truncation point; rhs is
    (a_N^+)^{p-2} / (1 - B^{2-p}).  Both are formed divided by c = B^{h(p-2)},
    B^h = ||a_N^+||, as l and r, and the gap is c ||l - r|| / (1 + c ||r||): at
    large p no power overflows and no top term underflows.  Each band's levels
    share one projection, and their geometric sum is one closed-form term.
    The l are one `_staircases` reduction, side by side; the powers r are one
    psd_power of the direct sum of the a_N^+ / B^h, and the norms per-summand
    operator norms, so each gap is that of its operator alone, bit for bit.
    """
    if p <= 2:
        raise DomainError("the identity needs p > 2")
    bases = {wm.corrected.base for wm in wms}
    if len(bases) != 1:
        raise DomainError("the gaps of one batch need one base")
    (B,) = bases
    q = p - 2.0
    stairs, hs = [], []
    for wm in wms:
        cp = wm.corrected
        N, alg = cp.martingale.N, cp.martingale.algebra
        # P_N^{B^k} falls with k, so the bands where it is not I are the lowest;
        # with none, a_N^+ = 0 and P_N^{B^k} = I, and both sides are 0
        bands = [(hi, lo, col) for hi, lo, col in cp.bands if col[N].rank() < alg.total_dim]
        h = bands[0][0] if bands else 0
        w = [_band_sum(B, q, high - h, high - low + 1) for high, low, _ in reversed(bands)]
        w.append(B ** ((cp.k_min - h) * q) / (1.0 - B ** (-q)))  # the tail
        stairs.append((w, [alg.identity()] * len(w),
                       [col[N] for *_, col in reversed(bands)] + [wm.residual]))
        hs.append(h)
    rhs = psd_power(direct_sum([wm.operator / B ** h for wm, h in zip(wms, hs)]), q) \
        * (1.0 / (1.0 - B ** (2.0 - p)))
    dists = operator_norm((_staircases(stairs) - rhs).symmetrized(), per_summand=True)
    gaps = []
    for h, dist, size in zip(hs, dists, operator_norm(rhs, per_summand=True)):
        # c = up / down, with the factor that would overflow kept at 1
        up, down = B ** (min(h, 0) * q), B ** (-max(h, 0) * q)
        gaps.append(up * dist / (down + up * size))
    return np.array(gaps)
