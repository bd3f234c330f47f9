import dataclasses
import functools
import gc
import itertools
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncgl.cuculescu as cuculescu
from ncgl.cuculescu import (
    _k_range,
    corrected_p,
    cuculescu_r,
    fubini_identity_gap,
    grow_grids,
    weak_max,
)
from ncgl.errors import DomainError, NumericalInstabilityError
from ncgl.filtration import (
    Filtration,
    Martingale,
    cond_exp,
    make_filtration,
    martingale_from_final,
)
from ncgl.instances import random_martingale, stream, strong_triple_parts, triple_family
from ncgl.opalgebra import (
    Interval,
    min_eigenvalue,
    operator_norm,
    proj_meet,
    psd_power,
    spectral_projection,
    trace,
)

from helpers import (
    check_projection,
    level_recursion,
    per_band_sums,
    per_tree_staircases,
    recorded_cuts,
)


def _one_step(y0_diag):
    # a one-level filtration: the top (identity) level of the corner family
    c = make_filtration("corner", dim=len(y0_diag))
    filt = Filtration(c.algebra, c.signs, c.levels[-1:], label="one_step")
    y0 = c.algebra.operator([np.diag(np.asarray(y0_diag, dtype=float))])
    return Martingale(filt, (y0,), (y0,))


def _fresh_copy(y):
    """The same martingale with an empty tree of Cuculescu steps."""
    return Martingale(y.filtration, y.values, y.diffs)


def _leaves(y):
    """The nodes at the leaves of y's tree of Cuculescu steps."""
    return [node for path, node in y.cuculescu_cache.items() if len(path) == y.N + 1]


def _summands(step):
    """The five measurements of each summand of a step."""
    return zip(step.norm, step.adapted, step.monotone, step.commutator, step.top)


def _assert_same_sequence(got, want, level):
    """Projections within 1e-10, and the five measurements of each step and
    summand within 1e-12 (1 + ||y_n||/level)."""
    for n, (a, b) in enumerate(zip(got.projections, want.projections)):
        assert a.allclose(b, 1e-10), (level, n)
    for n, (s, t) in enumerate(zip(got.steps, want.steps)):
        for a, b in zip(_summands(s), _summands(t)):
            assert np.allclose(a, b, rtol=0.0, atol=1e-12 * (1.0 + b[0] / level)), \
                (level, n, a, b)


class TestCuculescuSequence:
    def test_bounded_martingale_keeps_identity(self):
        filt = make_filtration("corner", dim=4)
        y = random_martingale(filt, stream(40), sup_norm=0.5)
        seq = cuculescu_r(y, 1.0)
        for n in range(y.N + 1):
            assert seq.R(n).rank() == 4

    def test_one_step_cut(self):
        seq = cuculescu_r(_one_step([2.0, 0.5]), 1.0)
        assert np.allclose(seq.R(0).data[0], np.diag([0.0, 1.0]))

    def test_diagonal_matches_classical_recursion(self):
        filt = make_filtration("rademacher", depth=4)
        y = random_martingale(filt, stream(41), sup_norm=2.0)
        seq = cuculescu_r(y, 1.0)
        vals = np.array([[v.data[b][0, 0].real for b in range(16)]
                         for v in y.values])
        for n in range(5):
            classical = (vals[: n + 1].max(axis=0) < 1.0).astype(float)
            got = np.array([seq.R(n).data[b][0, 0].real for b in range(16)])
            assert np.array_equal(classical, got)

    def test_lemma_invariants_on_random_instances(self):
        for seed in range(5):
            filt = make_filtration("matrix_corner", outer_dim=2, dim=3)
            y = random_martingale(filt, stream(42, seed), sup_norm=2.5)
            seq = cuculescu_r(y, 1.0)  # validation is built in
            for n in range(y.N + 1):
                r = seq.R(n)
                assert (cond_exp(filt, n, r) - r).entry_max() < 1e-9
                assert min_eigenvalue(seq.R(n - 1) - r) > -1e-9
                yn = y.values[n]
                compressed = (seq.R(n - 1) @ yn @ seq.R(n - 1)).symmetrized()
                comm = (r @ compressed - compressed @ r).entry_max()
                assert comm < 1e-8 * (1 + operator_norm(yn))
                assert min_eigenvalue(r - (r @ yn @ r).symmetrized()) > -1e-8

    def test_homogeneity(self):
        filt = make_filtration("corner", dim=4)
        y = random_martingale(filt, stream(43), sup_norm=2.0)
        a = cuculescu_r(y, 1.7)
        b = cuculescu_r(y.scale(1.0 / 1.7), 1.0)
        for n in range(y.N + 1):
            assert (a.R(n) - b.R(n)).entry_max() < 1e-10

    def test_q_diagonal_matches_classical_indicator(self):
        filt = make_filtration("rademacher", depth=4)
        y = random_martingale(filt, stream(445), sup_norm=3.0)
        beta = 2.0
        q = cuculescu_r(y, beta)
        vals = np.array([[v.data[b][0, 0].real for b in range(16)]
                         for v in y.values])
        classical = (vals.max(axis=0) < beta).astype(float)
        got = np.array([q.final().data[b][0, 0].real for b in range(16)])
        assert np.array_equal(classical, got)

    def test_q_trivial_when_bounded(self):
        filt = make_filtration("corner", dim=3)
        y = random_martingale(filt, stream(45), sup_norm=1.5)
        q = cuculescu_r(y, 4.0)
        assert trace(y.algebra.identity() - q.final()) == pytest.approx(0.0)

    def test_rejects_bad_inputs(self):
        filt = make_filtration("corner", dim=3)
        y = random_martingale(filt, stream(46))
        with pytest.raises(DomainError):
            cuculescu_r(y, 0.0)

    def test_counterexample_rank_matches_scalar_recursion(self):
        # the weak-type pair's y-martingale is diagonal: the rank of I - R_N
        # at level 1 must equal a per-(sign-pattern, coordinate) recursion
        from ncgl.applications import counterexample_pair

        _, y, filt = counterexample_pair(3)
        seq = cuculescu_r(y, 1.0)
        got = filt.algebra.total_dim - seq.final().rank()
        exceeded = 0
        for b in range(filt.algebra.n_blocks):
            for j in range(4):
                running = [v.data[b][j, j].real for v in y.values]
                if max(np.maximum.accumulate(running)) >= 1.0:
                    exceeded += 1
        assert got == exceeded

    def test_drift_guard_aborts(self):
        from ncgl.cuculescu import _snap_projection
        from ncgl.errors import NumericalInstabilityError
        from ncgl.opalgebra import TracialAlgebra

        alg = TracialAlgebra((2,), (1.0,))
        half = alg.operator([np.diag([0.4, 1.0])])
        with pytest.raises(NumericalInstabilityError):
            _snap_projection(half)

    def test_snapped_diagonal_blocks_round_to_zero_or_one(self):
        # The moment suite's trial 2 at seed 0, family rademacher(depth=2,
        # M_2), has projections with exactly diagonal blocks that `V diag V*`
        # of eigenvectors carrying phases leaves at entries such as
        # 1 + 2.2e-16 - 1.7e-17j; spectral projections round the diagonal of
        # such blocks, so every entry is exactly 0 or 1.
        from ncgl.filtration import square_function
        from ncgl.goodlambda import Triple, verify_moment

        rng = stream(0, 3, 2)
        y = random_martingale(triple_family(2), rng,
                              sup_norm=float(rng.uniform(0.5, 4.0)))
        s = square_function(y)
        t = Triple(s, y, s)
        for p in (3.0, 4.0, 8.0):
            verify_moment(t, [y], p)
        diagonal = 0
        for m in (y, -y):
            for leaf in _leaves(m):
                for proj in leaf.seq.projections:
                    for block in proj.data:
                        d = np.diag(block)
                        if np.count_nonzero(block - np.diag(d)):
                            continue
                        diagonal += 1
                        assert set(d) <= {0.0, 1.0}
        assert diagonal > 0


@functools.lru_cache(maxsize=None)
def _grid_case(family, sign):
    """A triple_family martingale (or its negative), every grid level of
    B = 1 + 1/p for p in {3, 8} in descending order, and the sequence at each
    level computed from R_{-1} = I by the per-level recursion."""
    base = random_martingale(triple_family(family), stream(57, family),
                             sup_norm=2.5)
    y = base if sign > 0 else -base
    levels = set()
    for p in (3.0, 8.0):
        B = 1.0 + 1.0 / p
        lo, top = _k_range(y, B)
        levels.update(B**k for k in range(lo, top + 1))
    levels = sorted(levels, reverse=True)
    refs = [level_recursion(y, level) for level in levels]
    return y, levels, refs


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("family", range(6))
def test_every_cut_passes_the_projection_oracle(monkeypatch, family, sign):
    # every cut E = I(C/level < 1) of the descending grid on one fresh copy,
    # which grows one tree as weak_max does, and of every tenth level on a
    # fresh copy, with the snaps that round them, checked by its own eigensolve
    y, levels, _ = _grid_case(family, sign)
    cuts = recorded_cuts(monkeypatch, cuculescu)
    fresh = _fresh_copy(y)
    for level in levels:
        cuculescu_r(fresh, level)
    for level in levels[::10]:
        cuculescu_r(_fresh_copy(y), level)
    assert len(cuts) >= y.N + 1
    for e in cuts:
        check_projection(e)


def _flat_bytes(op):
    return np.concatenate([b.ravel() for b in op.data]).tobytes()


def _per_level_grid(y, B, final_only=False):
    """The corrected projections as one column per level, the loop that the
    bands replaced: the (n, k) dict, and the sequences cuculescu_r returned,
    one per level that asked for one."""
    lo, top = _k_range(y, B)
    rows = (y.N,) if final_only else tuple(range(y.N + 1))
    grid, seqs = {}, []
    prev_col = {n: y.algebra.identity() for n in rows}
    prev_seq = None
    for k in range(top, lo - 1, -1):
        if all(prev_col[n].rank() == 0 for n in rows):
            for n in rows:
                grid[(n, k)] = prev_col[n]
            continue
        seq = cuculescu_r(y, B ** k)
        seqs.append(seq)
        if seq is prev_seq:
            col = prev_col
        else:
            col = {}
            for n in rows:
                above = prev_col[n]
                if above.rank() == 0:
                    col[n] = above
                else:
                    col[n] = cuculescu._normalized(proj_meet(seq.R(n), above))
        for n in rows:
            grid[(n, k)] = col[n]
        prev_col, prev_seq = col, seq
    return grid, seqs


def _per_level_corrected(y, B, final_only=False):
    """_per_level_grid's walk as a CorrectedSeq: one band per run of levels
    at which cuculescu_r returned one sequence, the last reaching k_min."""
    grid, seqs = _per_level_grid(y, B, final_only)
    lo, high = _k_range(y, B)
    rows, bands = sorted({n for n, _ in grid}), []
    for _, run in itertools.groupby(seqs, key=id):
        low = high - len(list(run)) + 1
        bands.append((high, low, {n: grid[(n, high)] for n in rows}))
        high = low - 1
    top, _, col = bands.pop()
    return cuculescu.CorrectedSeq(y, float(B), (*bands, (top, lo, col)))


def _counted_calls(monkeypatch):
    """The levels of the cuculescu_r calls that corrected_p makes from here on."""
    levels, call = [], cuculescu.cuculescu_r

    def counted(y, level):
        levels.append(level)
        return call(y, level)

    monkeypatch.setattr(cuculescu, "cuculescu_r", counted)
    return levels


def _counted_checks(monkeypatch):
    """The levels of the _check_level calls made from here on."""
    levels, check = [], cuculescu._check_level

    def counted(seq, level):
        levels.append(level)
        return check(seq, level)

    monkeypatch.setattr(cuculescu, "_check_level", counted)
    return levels


def _band_ends(bands, B):
    """The levels at which a walk checks `bands`: each band's top, then its
    bottom where its column is not all zero."""
    return [level for high, low, col in bands
            for level in ([B ** high] + [B ** low] * any(p.rank() for p in col.values()))]


def _raises(seq, level):
    try:
        cuculescu._check_level(seq, level)
    except NumericalInstabilityError:
        return True
    return False


# each level-dependent test of _check_level: the value of its measurement, as a
# function of a cut c and ||y_n||, at which it fails exactly on the levels on
# one side of c (+1 above, -1 below)
_MOVED = {
    "adapted": (lambda c, norm: 1e-9 * (1.0 + norm / c), 1),
    "commutator": (lambda c, norm: 1e-8 * (c + norm), -1),
    "top": (lambda c, norm: c + 1e-8 * (c + norm), -1),
}


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("family", range(6))
def test_band_ends_decide_what_every_level_decides(family, sign):
    # each band's sequence as stored, and with one measurement of its step of
    # largest ||y_n|| moved so that its test fails first at the band's top,
    # strictly inside the band or at its bottom: checking the band's two ends
    # raises exactly when checking some level of it does
    y = _fresh_copy(_grid_case(family, sign)[0])
    inside = 0
    for p in (3.0, 8.0):
        B = 1.0 + 1.0 / p
        for high, low, col in corrected_p(y, B).bands:
            if all(proj.rank() == 0 for proj in col.values()):
                continue  # only its top is a level of its sequence
            seq, ks = cuculescu_r(y, B ** high), range(low, high + 1)
            n = max(range(y.N + 1), key=lambda n: seq.steps[n].norm[0])
            step, variants = seq.steps[n], [seq]
            inside += high - low >= 2
            for field, (moved, side) in _MOVED.items():
                for first in {high, (high + low) // 2, low}:
                    value = [moved(B ** (first - side / 2), step.norm[0])]
                    value += getattr(step, field)[1:]
                    steps = list(seq.steps)
                    steps[n] = dataclasses.replace(step, **{field: value})
                    moved_seq = dataclasses.replace(seq, steps=tuple(steps))
                    assert [k for k in ks if _raises(moved_seq, B ** k)] == \
                        [k for k in ks if side * (k - first) >= 0], (field, high, low, first)
                    variants.append(moved_seq)
            for v in variants:
                assert (_raises(v, B ** high) or _raises(v, B ** low)) == \
                    any(_raises(v, B ** k) for k in ks), (high, low)
    assert inside > 0


def _gap(wm, p):
    """fubini_identity_gap of one weak maximal operator: a batch of one."""
    (gap,) = fubini_identity_gap([wm], p)
    return gap


def _groupby_fubini_gap(wm, p):
    """fubini_identity_gap as it was computed before the bands: one
    multiply-add per run of levels sharing one projection object, over the
    levels below ||a_N^+|| = B^h, both sides divided by B^{h(p-2)}."""
    cp = wm.corrected
    B, N, alg, q = cp.base, cp.martingale.N, cp.martingale.algebra, p - 2.0
    ident = alg.identity()
    h = max((k for k in range(cp.k_min, cp.k_top + 1)
             if cp.P(N, k).rank() < alg.total_dim), default=None)
    if h is None:
        return 0.0
    lhs = alg.zero()
    for proj, ks in itertools.groupby(range(cp.k_min, h + 1), key=lambda k: cp.P(N, k)):
        lhs = lhs + (ident - proj) * sum(B ** ((k - h) * q) for k in ks)
    tail_coeff = B ** ((cp.k_min - h) * q) / (1.0 - B ** (-q))
    lhs = lhs + (ident - cp.P(N, cp.k_min)) * tail_coeff
    rhs = psd_power(wm.operator / B ** h, q) * (1.0 / (1.0 - B ** (2.0 - p)))
    up, down = B ** (min(h, 0) * q), B ** (-max(h, 0) * q)
    return up * operator_norm(lhs - rhs) / (down + up * operator_norm(rhs))


def _unscaled_fubini_gap(wm, p):
    """fubini_identity_gap with both sides unscaled, as it was before the
    scaling (B^{k(p-2)} overflows a float at large p)."""
    cp = wm.corrected
    B, N, alg = cp.base, cp.martingale.N, cp.martingale.algebra
    ident = alg.identity()
    lhs = alg.zero()
    for high, low, col in reversed(cp.bands):
        lhs = lhs + (ident - col[N]) * sum(B ** (k * (p - 2.0)) for k in range(low, high + 1))
    tail_coeff = B ** (cp.k_min * (p - 2.0)) / (1.0 - B ** (-(p - 2.0)))
    lhs = lhs + (ident - wm.residual) * tail_coeff
    rhs = psd_power(wm.operator, p - 2.0) * (1.0 / (1.0 - B ** (2.0 - p)))
    return operator_norm(lhs - rhs) / (1.0 + operator_norm(rhs))


class TestCachedSequences:
    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    @settings(max_examples=3, deadline=None)
    @given(order=st.integers(0, 2**32 - 1))
    def test_cache_matches_fresh_recursion(self, family, sign, order):
        # the tree, asked for every grid level in descending and then in
        # shuffled order, and on an empty tree in shuffled order, gives the
        # per-level recursion's projections
        y, levels, refs = _grid_case(family, sign)
        shuffled = list(zip(levels, refs))
        random.Random(order).shuffle(shuffled)
        grown = _fresh_copy(y)           # descending, then shuffled
        unordered = _fresh_copy(y)       # shuffled from an empty tree
        queries = ([(grown, q) for q in zip(levels, refs)]
                   + [(grown, q) for q in shuffled]
                   + [(unordered, q) for q in shuffled])
        for m, (level, ref) in queries:
            got = cuculescu_r(m, level).projections
            for n, (a, b) in enumerate(zip(got, ref.projections)):
                assert a.allclose(b, 1e-12), (level, n)
        # the grid is served by far fewer sequences than it has levels
        assert len(_leaves(grown)) < len(levels)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_resumed_sequences_match_the_recursion_from_scratch(self, family, sign):
        # a sequence that branches off the tree after leading steps another
        # level took has the projections and measurements of the recursion
        # from R_{-1} = I at its own level
        y, levels, refs = _grid_case(family, sign)
        m = _fresh_copy(y)
        for level, ref in zip(levels, refs):
            _assert_same_sequence(cuculescu_r(m, level), ref, level)
        leaves = [leaf.seq for leaf in _leaves(m)]
        assert any(s.projections[0] is t.projections[0]
                   for i, s in enumerate(leaves) for t in leaves[:i])

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_step_windows_are_nested(self, family, sign):
        # each node's window lies in its parent's, every level lies in the
        # window of the leaf it reaches, and the leaves' windows are disjoint
        y, levels, _ = _grid_case(family, sign)
        m = _fresh_copy(y)
        for level in levels:
            seq = cuculescu_r(m, level)
            assert seq.lo < level <= seq.hi
            assert len(seq.projections) == len(seq.steps) == y.N + 1
        tree = m.cuculescu_cache
        for path, node in tree.items():
            if path:
                outer = tree[path[:-1]].seq
                assert outer.lo <= node.seq.lo < node.seq.hi <= outer.hi, path
        windows = sorted((leaf.seq.lo, leaf.seq.hi) for leaf in _leaves(m))
        assert all(hi <= lo for (_, hi), (lo, _) in zip(windows, windows[1:]))

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_query_order_changes_no_bit(self, family, sign):
        # each step is cut from its node's thresholds alone, so the order in
        # which levels reach the tree cannot move a projection
        y, levels, _ = _grid_case(family, sign)
        shuffled = random.Random(2 * family + (sign > 0)).sample(levels, len(levels))
        descending, unordered = _fresh_copy(y), _fresh_copy(y)
        for level in shuffled:
            cuculescu_r(unordered, level)
        for level in levels:
            got = cuculescu_r(descending, level).projections
            want = cuculescu_r(unordered, level).projections
            assert [_flat_bytes(r) for r in got] == [_flat_bytes(r) for r in want], level

    def test_resume_computes_only_the_steps_not_shared(self, monkeypatch):
        # y_0 = 1.25 I and y_1 = U diag(3, -0.5) U*: at level 2 the second
        # step cuts the eigenvalue 3, at level 4 it cuts nothing
        filt = make_filtration("trivial_full", dims=(2,))
        u = np.linalg.qr(np.array([[1.0, 0.3 + 0.2j], [-0.4j, 1.0]]))[0]
        final = filt.algebra.operator([(u * np.array([3.0, -0.5])) @ u.conj().T])
        y = martingale_from_final(filt, final)
        first = cuculescu_r(y, 2.0)
        assert first.lo < 2.0 <= first.hi < 4.0
        calls = {"_cut": 0, "_step": 0, "cond_exp": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cuculescu, name, counted(name, getattr(cuculescu, name)))
        seq = cuculescu_r(y, 4.0)
        # the node where level 4 leaves level 2's path keeps only its ordered
        # thresholds, so it is cut again: one batch of one cut, then one of
        # one step
        assert calls == {"_cut": 1, "_step": 1, "cond_exp": 1}
        assert seq.projections[0] is first.projections[0]
        assert seq.steps[0] is first.steps[0]
        monkeypatch.undo()
        assert seq.final().rank() == 2 and first.final().rank() == 1
        _assert_same_sequence(seq, level_recursion(y, 4.0), 4.0)

    def test_work_counts_of_the_moment_pass(self, monkeypatch):
        # perfbench's seed-0 moment-grid pass grows the 84 trees (42 trials,
        # both signs) a family at a time: one batch of cuts and one of steps
        # per time n, split where a batch would pass 2**11 block entries, so
        # 22 cut batches and 24 step batches; every step is computed once.
        # It then walks each tree's leaves once for its three bases, a family
        # at a time, one batch of meets per round of leaves: 598 meets, one
        # per distinct (R_N, above) pair, in 42 batches (1,233 meets in 40
        # batches with one walk per (y, B) pair), and no cuculescu_r call
        # walks a tree again from its root (1,233 did).  Each family's rows
        # are then verified as one direct sum, with one hypothesis check per
        # family.  397 Hermitian solves run, two more than with 40 batches of
        # meets: 1,044 with the rows made one trial at a time, 1,575 with one
        # meet at a time and 3,726 with one step at a time
        import ncgl.cli as cli
        import ncgl.goodlambda as gl

        counts = {"_cut": [0, 0], "_step": [0, 0], "_meet": [0, 0], "proj_meet": [0, 0],
                  "eigh": [0, 0], "eigvalsh": [0, 0], "hypothesis_status": [0, 0]}
        trees, grow, walked = [], cli.grow_grids, []

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name][0] += 1
                counts[name][1] += len(args[0]) if name[0] == "_" else 1
                return fn(*args, **kwargs)
            return call

        def kept(ys, bases):
            trees.extend(ys)
            return grow(ys, bases)

        def sequence(y, level):
            walked.extend(m for m in trees if m is y)
            return cuculescu_r(y, level)

        monkeypatch.setattr(cuculescu, "cuculescu_r", sequence)
        for name in ("_cut", "_step", "_meet", "proj_meet"):
            monkeypatch.setattr(cuculescu, name, counted(name, getattr(cuculescu, name)))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(gl, "hypothesis_status",
                            counted("hypothesis_status", gl.hypothesis_status))
        monkeypatch.setattr(cli, "grow_grids", kept)
        rows, _ = cli.run(cli.ExperimentConfig(suite="moment", trials=42, seed=0,
                                               p_grid=(3.0, 4.0, 8.0)))
        assert len(rows) == 42 * 15 and len(trees) == 84
        assert counts["_cut"] == [22, 680] and counts["_step"] == [24, 1115]
        # each node but the roots is one step; rows asked for no other
        assert sum(len(y.cuculescu_cache) - 1 for y in trees) == 1115
        assert counts["_meet"] == [42, 598] and walked == []
        assert counts["proj_meet"][0] == counts["_meet"][0]
        assert counts["hypothesis_status"][0] == 6
        assert counts["eigh"][0] + counts["eigvalsh"][0] <= 397

    def test_staircase_and_solve_counts_of_the_moment_pass(self, monkeypatch):
        # the same seed-0 pass sums every a_N^+ of a family group at one base
        # in one staircase reduction, then every a_N^-, and every Fubini
        # left side of a group in one: 6 groups x 3 bases x 2 signs + 18, where
        # one reduction per tree made 378.  Each trial's martingale is a part
        # of one group draw, whose final is rescaled from one solve, and a
        # family's direct sum carries the eigenvalues its trials solved: at
        # most 292 LAPACK eigvalsh calls (327 with a draw and a solve per trial)
        import ncgl.cli as cli

        counts = {"_staircases": 0, "eigvalsh": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(cuculescu, "_staircases",
                            counted("_staircases", cuculescu._staircases))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        rows, _ = cli.run(cli.ExperimentConfig(suite="moment", trials=42, seed=0,
                                               p_grid=(3.0, 4.0, 8.0)))
        assert len(rows) == 42 * 15
        assert counts["_staircases"] == 6 * 3 * 2 + 18
        assert counts["eigvalsh"] <= 292

    def test_work_counts_of_the_good_lambda_levels(self, monkeypatch):
        # perfbench's seed-0 goodlambda-levels pass (100 core trials, then 100
        # tail trials at beta in {1.5, 2, 4}): the core asks cuculescu_r for
        # level 1 of each family's direct sum, 21 cuts and 21 steps in batches
        # of one; the tail grows each tree to {1, 1.5, 2, 4} in one
        # breadth-first call, its 63 steps in 23 batches and 45 cuts in 22,
        # where growing one level at a time from the root took 63 batches of
        # one step and cut 18 nodes again.  At most 205 Hermitian solves run
        # (310 one level at a time)
        import ncgl.cli as cli

        counts = {"_cut": [0, 0], "_step": [0, 0], "eigh": [0, 0], "eigvalsh": [0, 0]}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name][0] += 1
                counts[name][1] += len(args[0]) if name[0] == "_" else 1
                return fn(*args, **kwargs)
            return call

        for name in ("_cut", "_step"):
            monkeypatch.setattr(cuculescu, name, counted(name, getattr(cuculescu, name)))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        rows, _ = cli.run(cli.ExperimentConfig(suite="goodlambda-core", trials=100, seed=0))
        assert len(rows) == 100
        assert counts["_cut"] == [21, 21] and counts["_step"] == [21, 21]
        rows, _ = cli.run(cli.ExperimentConfig(suite="goodlambda-tail", trials=100, seed=0,
                                               beta_grid=(1.5, 2.0, 4.0)))
        assert len(rows) == 300
        assert counts["_cut"] == [43, 66] and counts["_step"] == [44, 84]
        assert counts["eigh"][0] + counts["eigvalsh"][0] <= 205

    def test_peak_memory_of_the_moment_pass(self):
        # a family's 14 trees are alive at once, and a batch of steps holds
        # about ten operators of its size: the seed-0 moment-grid pass peaks
        # at 1.23 MiB of traced memory (0.45 MiB one trial at a time)
        import tracemalloc

        from ncgl.cli import ExperimentConfig, run

        cfg = ExperimentConfig(suite="moment", trials=42, seed=0, p_grid=(3.0, 4.0, 8.0))
        run(ExperimentConfig(suite="moment", trials=6, seed=0))  # first-use caches
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 1.23 * 2**20

    def test_peak_memory_of_the_good_lambda_levels(self):
        # the tail grows each family's tree to four levels at once, so the
        # steps of several levels are alive together: the seed-0
        # goodlambda-levels pass peaks at 0.62 MiB of traced memory (0.55 MiB
        # one level at a time)
        import tracemalloc

        from ncgl.cli import ExperimentConfig, run

        cfgs = [ExperimentConfig(suite="goodlambda-core", trials=100, seed=0),
                ExperimentConfig(suite="goodlambda-tail", trials=100, seed=0)]
        for cfg in cfgs:  # first-use caches, the families' direct sums among them
            run(cfg)
        tracemalloc.start()
        try:
            for cfg in cfgs:
                run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 0.62 * 2**20

    @pytest.mark.parametrize("factor", [1.25, 1 + 1e-6, 1 + 1e-9, 1 + 2e-10,
                                        1 + 1e-10, 1 + 1e-12, 1 - 1e-12,
                                        1 - 1e-10, 1 - 1e-9, 1 - 1e-6, 0.75])
    @pytest.mark.parametrize("eig", [2.0, 2.0 * (1 - 5e-11)])
    def test_tie_is_cut_after_a_neighbouring_level(self, eig, factor):
        # an eigenvalue on the level 2, or within the tie tolerance
        # 1e-10 (1 + ||y_0/2||) of it: the tie rule cuts it
        y = _one_step([eig, 0.5])
        fresh = cuculescu_r(_one_step([eig, 0.5]), 2.0).R(0).data[0]
        assert np.array_equal(fresh, np.diag([0.0, 1.0]))
        cuculescu_r(y, 2.0 * factor)
        got = cuculescu_r(y, 2.0).R(0).data[0]
        assert np.array_equal(got, fresh)

    def test_every_returned_sequence_is_checked(self, monkeypatch):
        calls = {"check": 0, "step": 0}
        check, step = cuculescu._check_level, cuculescu._step

        def counted_check(seq, level):
            calls["check"] += 1
            return check(seq, level)

        def counted_step(items):
            calls["step"] += len(items)
            return step(items)

        monkeypatch.setattr(cuculescu, "_check_level", counted_check)
        monkeypatch.setattr(cuculescu, "_step", counted_step)
        y = _one_step([2.0, 0.5])
        first = cuculescu_r(y, 1.0)
        for level in (1.0, 1.5, 0.7):      # between the eigenvalues 0.5 and 2
            assert cuculescu_r(y, level).projections is first.projections
        assert calls == {"check": 4, "step": 1}
        cuculescu_r(y, 3.0)                # above both: a second leaf
        cuculescu_r(y, 0.25)               # below both: a third
        cuculescu_r(y, 5.0)                # the second leaf again
        assert calls == {"check": 7, "step": 3}
        assert len(_leaves(y)) == 3

    @pytest.mark.parametrize("field, value", [("adapted", 1.0), ("top", 1e3),
                                              ("monotone", -1.0)])
    def test_hits_are_validated(self, field, value):
        y = _one_step([2.0, 0.5])
        cuculescu_r(y, 1.0)
        leaf, = _leaves(y)
        # one measurement per summand; this algebra has one
        bad = dataclasses.replace(leaf.seq.steps[0], **{field: [value]})
        leaf.seq = dataclasses.replace(leaf.seq, steps=(bad,))
        with pytest.raises(NumericalInstabilityError):
            cuculescu_r(y, 1.5)

    def test_cut_is_checked_as_a_projection(self, monkeypatch):
        # eigenvectors that are not orthonormal make the first cut, I(y_0 < 1),
        # a rank-one operator of trace 1.01: no projection
        import ncgl.opalgebra as opalgebra

        eigh = opalgebra._eigh

        def skewed(s):
            eigs, vecs = eigh(s)
            return eigs, vecs @ (np.eye(s.shape[1]) + 0.1)

        monkeypatch.setattr(opalgebra, "_eigh", skewed)
        with pytest.raises(DomainError, match="not within 1e-10 of"):
            cuculescu_r(_one_step([2.0, 0.5]), 1.0)

    def test_returns_the_stored_record(self):
        y = _one_step([2.0, 0.5])
        seq = cuculescu_r(y, 1.0)
        leaf, = _leaves(y)
        assert seq is leaf.seq
        assert cuculescu_r(y, 1.5) is leaf.seq
        assert cuculescu_r(y, 1.0).R(-1).allclose(y.algebra.identity(), 0.0)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_cut_off_certificate_matches_eigensolve(self, family, sign):
        # min_eig(R_n - R_n y_n R_n/level) against 1 - top/level, and 0 on a
        # nonzero kernel, at every grid level (leaves reached again included)
        y, levels, _ = _grid_case(family, sign)
        m = _fresh_copy(y)
        total = y.algebra.total_dim
        for level in levels:
            seq = cuculescu_r(m, level)
            for n, (r, s) in enumerate(zip(seq.projections, seq.steps)):
                (top,), (norm,) = s.top, s.norm
                cut = (r @ y.values[n] @ r).symmetrized()
                direct = min_eigenvalue(r - cut / level)
                cert = 1.0 - top / level
                if r.rank() < total:
                    cert = min(cert, 0.0)
                assert abs(direct - cert) <= 1e-12 * (1.0 + norm / level), (level, n)

    @pytest.mark.parametrize("mu", (1e-3, 0.5, 4.0, 1e3))
    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_scale_covariance(self, family, sign, mu):
        # R^{mu level}(mu y) = R^{level}(y): the thresholds scale with mu, tie
        # band 1e-10 (1 + m) included, so every cut is made alike
        y, levels, _ = _grid_case(family, sign)
        m, scaled = _fresh_copy(y), y.scale(mu)
        for level in levels:
            got = cuculescu_r(scaled, mu * level).projections
            want = cuculescu_r(m, level).projections
            for n, (a, b) in enumerate(zip(got, want)):
                assert a.summand_ranks == b.summand_ranks, (level, n)
                assert a.allclose(b, 1e-12), (level, n)

    def test_cache_dies_with_the_martingale(self):
        y = random_martingale(make_filtration("corner", dim=3), stream(58),
                              sup_norm=2.0)
        ref = weakref.ref(y)
        corrected_p(y, 1.5)
        weak_max(-y, 1.5)
        assert y.cuculescu_cache and (-y).cuculescu_cache
        del y
        gc.collect()
        assert ref() is None

    def test_negation_is_built_once(self):
        y = random_martingale(make_filtration("corner", dim=3), stream(59))
        assert -y is -y
        assert all(np.array_equal(a.data, -b.data)
                   for a, b in zip((-y).values, y.values))


def _moment_trees(trials):
    """y and -y of each seed-0 `moment` trial in `trials`, drawn as the
    suite draws them: the sup norm first, then the martingale."""
    trees = []
    for trial in trials:
        rng = stream(0, 3, trial)
        y = random_martingale(triple_family(trial), rng,
                              sup_norm=float(rng.uniform(0.5, 4.0)))
        trees += [y, -y]
    return trees


def _counted_steps(monkeypatch):
    """The sizes of the batches of steps grown from here on."""
    sizes, step = [], cuculescu._step

    def counted(items):
        sizes.append(len(items))
        return step(items)

    monkeypatch.setattr(cuculescu, "_step", counted)
    return sizes


class TestGrownTogether:
    def test_trees_grown_together_match_the_recursion(self, monkeypatch):
        # every _grid_case family and sign in one grow_grids call: each grid
        # level then finds its sequence grown, with the projections and the
        # measurements of the per-level recursion
        cases = [_grid_case(family, sign) for family in range(6) for sign in (1, -1)]
        trees = [_fresh_copy(y) for y, _, _ in cases]
        sizes = _counted_steps(monkeypatch)
        grow_grids(trees, [])  # no grid: each tree is its root alone
        assert sizes == [] and all(list(m.cuculescu_cache) == [()] for m in trees)
        grow_grids(trees, [4.0 / 3.0, 9.0 / 8.0])
        assert max(sizes) > 2  # both trees of a family share each batch
        grown = len(sizes)
        for m, (_, levels, refs) in zip(trees, cases):
            for level, ref in zip(levels, refs):
                got = cuculescu_r(m, level)
                for n, (a, b) in enumerate(zip(got.projections, ref.projections)):
                    assert a.allclose(b, 1e-12), (level, n)
                _assert_same_sequence(got, ref, level)
        assert len(sizes) == grown  # every query was a plain walk

    def test_mixed_dimension_algebra_grows_a_step_per_batch(self, monkeypatch):
        # blocks of unequal dimension have no direct sum: each step is a batch
        # of one, and the trees still match the recursion
        filt = make_filtration("trivial_full", dims=(1, 2, 3), weights=(0.2, 0.3, 0.5))
        ys = [random_martingale(filt, stream(64, i), sup_norm=2.0) for i in range(2)]
        trees = [m for y in ys for m in (y, -y)]
        sizes = _counted_steps(monkeypatch)
        grow_grids(trees, [1.5])
        assert sizes and set(sizes) == {1}
        for m in trees:
            lo, top = _k_range(m, 1.5)
            for k in range(top, max(lo, -12) - 1, -1):
                _assert_same_sequence(cuculescu_r(m, 1.5**k), level_recursion(m, 1.5**k),
                                      1.5**k)

    @pytest.mark.parametrize("B", (1.0 + 1e-4, 1.0 + 1e-6))
    def test_steps_are_bounded_by_the_thresholds_not_the_grid(self, monkeypatch, B):
        # the seed-0 moment trials 0..5, both signs: at p = 1e4 (B = 1 + 1e-4)
        # and at B = 1 + 1e-6 the grids hold about 1.8e5 and 1.8e7 levels per
        # tree, but a node's children are the windows of its thresholds: 166
        # steps, where corrected_p's walk one band at a time takes 131
        trees = _moment_trees(range(6))
        lo, top = _k_range(trees[0], B)
        assert top - lo > 0.9 * 1e-2 / (B - 1.0)
        sizes = _counted_steps(monkeypatch)
        grow_grids(trees, [B])
        assert sum(sizes) <= 170
        for m in trees:
            weak_max(m, B)
        assert sum(sizes) <= 170  # every band's sequence was grown

    def test_large_p_grows_the_grid_in_one_call(self, monkeypatch):
        # its band walk then visits the leaf of each of the 5 bands once,
        # checking the band's two ends and asking cuculescu_r for no
        # sequence, and weak_max reads the bands it kept, growing nothing
        y = random_martingale(triple_family(2), stream(57, 2), sup_norm=2.5)
        B = 1.0 + 1e-4
        sizes = _counted_steps(monkeypatch)
        calls, checks = _counted_calls(monkeypatch), _counted_checks(monkeypatch)
        grow_grids([y], [B])
        steps, walked = len(sizes), list(checks)
        wm = weak_max(y, B)
        assert calls == [] and len(wm.corrected.bands) == 5
        assert wm.corrected.bands is y.corrected_bands[B]
        assert walked == checks == _band_ends(wm.corrected.bands, B)
        assert len(sizes) == steps

    def test_a_query_off_the_grid_cuts_its_node_again(self, monkeypatch):
        # a tree grown to the B = 4/3 grid keeps only each node's ordered
        # thresholds; a level of the 9/8 grid whose child is missing cuts its
        # node again, and gets the bits of a tree grown one level at a time
        y, levels, refs = _grid_case(3, 1)
        grown, single = _fresh_copy(y), _fresh_copy(y)
        grow_grids([grown], [4.0 / 3.0])
        assert [f.name for f in dataclasses.fields(cuculescu._Node)] == \
            ["r", "seq", "thresholds"]
        cut = [node.thresholds for node in grown.cuculescu_cache.values()
               if node.thresholds is not None]
        assert cut and all(t == sorted(t) for t in cut)
        cuts = []
        cut = cuculescu._cut
        monkeypatch.setattr(cuculescu, "_cut", lambda items: cuts.append(len(items)) or cut(items))
        for level, ref in zip(levels, refs):
            got = cuculescu_r(grown, level)
            want = cuculescu_r(single, level)
            assert [_flat_bytes(r) for r in got.projections] == \
                [_flat_bytes(r) for r in want.projections], level
            _assert_same_sequence(got, ref, level)
        assert cuts

    @pytest.mark.parametrize("failure", ("drift", "basis"))
    def test_a_failed_step_raises_only_where_a_query_reaches_it(self, monkeypatch, failure):
        # y_0 = diag(2, 0.5) and, on the same filtration, diag(3, 0.25), grown
        # to the B = 2 grid in one batch: each step that keeps one eigenvalue
        # drifts from idempotency, or every cut of the second is
        # made from eigenvectors that are not orthonormal.  The batch fails,
        # its growth is let go, and a query that reaches the failed step grows
        # it alone and raises its error, with its class and message; the other
        # levels get the per-level recursion
        import ncgl.opalgebra as opalgebra

        a = _one_step([2.0, 0.5])
        b0 = a.algebra.operator([np.diag([3.0, 0.25])])
        b = Martingale(a.filtration, (b0,), (b0,))
        if failure == "drift":
            snap = cuculescu._snap_projection
            monkeypatch.setattr(cuculescu, "_snap_projection", lambda raw: snap(
                raw.summand_scaled([0.9 if r == 1 else 1.0 for r in raw.summand_ranks])))
            error, message = NumericalInstabilityError, "drifted by 1.00e-01"
            bad = [(a, 1.0), (b, 1.0)]
        else:
            eigh = opalgebra._eigh

            def skewed(s):
                eigs, vecs = eigh(s)
                three = (s.diagonal(axis1=1, axis2=2).real == 3.0).any(axis=1)
                vecs = vecs.copy()
                vecs[three] = vecs[three] @ (np.eye(s.shape[1]) + 0.1)
                return eigs, vecs

            monkeypatch.setattr(opalgebra, "_eigh", skewed)
            error, message = DomainError, "not within 1e-10 of"
            bad = [(b, level) for level in (0.125, 1.0, 4.0)]
        sizes = _counted_steps(monkeypatch)
        grow_grids([a, b], [2.0])
        assert sizes == [6]
        assert not a.corrected_bands and not b.corrected_bands
        for m, level in bad:
            with pytest.raises(error, match=message):
                cuculescu_r(m, level)
        monkeypatch.undo()
        for m in (a, b):
            for level in (0.125, 1.0, 4.0):
                if (m, level) not in bad:
                    _assert_same_sequence(cuculescu_r(m, level), level_recursion(m, level),
                                          level)

    @pytest.mark.parametrize("family", range(6))
    def test_a_level_set_grown_at_once_matches_one_level_at_a_time(self, monkeypatch, family):
        # a goodlambda-tail batch of the family's six seed-0 trials, grown to
        # {1, 1.5, 2, 4} in one call: each level then walks to the record,
        # window, projections and measurements, byte for byte, of a fresh copy
        # grown one level at a time through cuculescu_r
        filt = triple_family(family)
        _, y, _ = strong_triple_parts(filt, *(stream(0, 2, i) for i in range(family, 36, 6)))
        levels = (1.0, 1.5, 2.0, 4.0)
        single = _fresh_copy(y)
        want = [cuculescu_r(single, level) for level in levels]
        sizes = _counted_steps(monkeypatch)
        grow_grids([y], (), levels=levels[::-1])
        grown = len(sizes)
        assert grown <= y.N + 1  # one batch of steps per time n
        for level, w in zip(levels, want):
            got = cuculescu_r(y, level)
            assert (got.lo, got.hi) == (w.lo, w.hi), level
            assert [_flat_bytes(r) for r in got.projections] == \
                [_flat_bytes(r) for r in w.projections], level
            for s, t in zip(got.steps, w.steps):
                for field in dataclasses.fields(s):
                    assert np.array(getattr(s, field.name)).tobytes() == \
                        np.array(getattr(t, field.name)).tobytes(), (level, field.name)
        assert len(sizes) == grown  # every query was a plain walk
        assert y.cuculescu_cache.keys() == single.cuculescu_cache.keys()

    def test_levels_must_be_positive(self):
        y = _one_step([2.0, 0.5])
        for level in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="positive"):
                grow_grids([y], (), levels=(1.0, level))
        assert list(y.cuculescu_cache) == []

    def test_a_failed_level_raises_only_in_the_tail_queries_that_reach_it(self, monkeypatch):
        # y_0 = diag(3, 0.25), grown to {1, 1.5, 2, 4} in one call: the levels
        # 1 to 2 keep the eigenvalue 0.25 and level 4 keeps both, two children
        # in one batch of steps.  Every full-rank step drifts from
        # idempotency, so the batch fails and the growth is let go; the tail
        # query at beta = 4 grows level 4 alone and raises its error, and the
        # others get the bits of a fresh copy
        import ncgl.goodlambda as gl

        y = _one_step([3.0, 0.25])
        ident = y.algebra.identity()
        t = gl.Triple(ident * 3.0, y, ident * 3.0)
        fresh = gl.Triple(t.x, _fresh_copy(y), t.z)
        want = {beta: gl.verify_tail(fresh, beta) for beta in (1.5, 2.0)}
        snap = cuculescu._snap_projection
        monkeypatch.setattr(cuculescu, "_snap_projection", lambda raw: snap(
            raw.summand_scaled([0.9 if r == 2 else 1.0 for r in raw.summand_ranks])))
        sizes = _counted_steps(monkeypatch)
        grow_grids([y], (), levels=(1.0, 1.5, 2.0, 4.0))
        assert sizes == [2] and list(y.cuculescu_cache) == [()]
        with pytest.raises(NumericalInstabilityError, match="drifted by 1.00e-01"):
            gl.verify_tail(t, 4.0)
        for beta, reps in want.items():
            assert gl.verify_tail(t, beta) == reps
        with pytest.raises(NumericalInstabilityError, match="drifted by 1.00e-01"):
            gl.verify_tail(t, 4.0)  # asked again, grown again alone

    def test_growth_let_go_in_a_cut_round_is_grown_again_from_the_root(self, monkeypatch):
        # the first batch of cuts at n = 1 fails: growth ends with the nodes of
        # depth 1 stored and uncut, no bands are kept, and every later query
        # misses at such a node and grows its path alone from the root
        y = random_martingale(triple_family(3), stream(57, 3, 1), sup_norm=2.5)
        cut, failed = cuculescu._cut, []

        def failing(items):
            if items[0][1] == 1 and not failed:
                failed.append(len(items))
                raise NumericalInstabilityError("injected")
            return cut(items)

        monkeypatch.setattr(cuculescu, "_cut", failing)
        grow_grids([y], [1.5])
        assert failed
        uncut = [path for path, node in y.cuculescu_cache.items()
                 if node.thresholds is None and len(path) <= y.N]
        assert len(uncut) >= 2 and not y.corrected_bands
        lo, top = _k_range(y, 1.5)
        for k in range(top, lo - 1, -1):
            _assert_same_sequence(cuculescu_r(y, 1.5**k), level_recursion(y, 1.5**k), 1.5**k)
        _assert_same_bands(weak_max(y, 1.5).corrected.bands,
                           weak_max(_fresh_copy(y), 1.5).corrected.bands)


# the bases of the moment suite's p grid, of p = 1e4 and 2
_LOCKSTEP_BASES = tuple(1.0 + 1.0 / p for p in (3.0, 4.0, 8.0, 1e4)) + (2.0,)


def _assert_same_bands(got, want):
    """Equal (high, low) bounds and bitwise equal columns."""
    assert [band[:2] for band in got] == [band[:2] for band in want]
    for (high, _, a), (_, _, b) in zip(got, want):
        assert a.keys() == b.keys(), high
        for n in a:
            assert a[n].algebra.dims == b[n].algebra.dims, (high, n)
            assert all(np.array_equal(x, z) for x, z in zip(a[n].stacks, b[n].stacks)), \
                (high, n)


class TestLockstepBands:
    @pytest.mark.parametrize("family", range(6))
    def test_lockstep_bands_match_the_lone_walk(self, family):
        # both signs of two seed-0 moment trials of the family, grown and
        # walked together at five bases, each tree's leaves once for all of
        # them: each pair's kept final-only bands, and its bands of every row
        # walked in lockstep as well, are bit for bit those of corrected_p on
        # a fresh copy, which walks that pair alone
        trees = _moment_trees([family, family + 6])
        grow_grids(trees, _LOCKSTEP_BASES)
        every_row = cuculescu._walk([cuculescu._bands(m, _LOCKSTEP_BASES, tuple(range(m.N + 1)))
                                     for m in trees])
        pairs = [(m, B) for m in trees for B in _LOCKSTEP_BASES]
        for (m, B), bands in zip(pairs, itertools.chain(*every_row)):
            lone = _fresh_copy(m)
            kept = m.corrected_bands[B]
            assert corrected_p(m, B, final_only=True).bands is kept
            _assert_same_bands(kept, corrected_p(lone, B, final_only=True).bands)
            _assert_same_bands(bands, corrected_p(lone, B).bands)
            assert not lone.corrected_bands  # a lone walk keeps nothing

    @pytest.mark.parametrize("shared", (False, True))
    def test_a_failed_meet_raises_only_for_its_pair(self, monkeypatch, shared):
        # the seed-0 moment trials 3, 9 and 15 (one family), both signs, at
        # the suite's bases; _meet_blocks fails on a pair of blocks that only
        # the walk of trial 15's y at p = 4 meets, or (shared) that only the
        # walks of trial 3's -y at p = 3 and p = 4 meet, which share that
        # meet; its message tells the size of the stack it was given.  The
        # lockstep walk fails and is let go, no bands are kept, and only those
        # pairs' weak_max raise, each with the error of its walk alone; every
        # other pair gets the bands of its walk alone, and the other trials
        # their rows
        import ncgl.cli as cli
        import ncgl.opalgebra as opalgebra

        cfg = cli.ExperimentConfig(suite="moment", trials=42, seed=0, p_grid=(3.0, 4.0, 8.0))
        bases = [1.0 + 1.0 / p for p in cfg.p_grid]
        trials = (3, 9, 15)
        trees = _moment_trees(trials)
        targets = [(trees[1], bases[0]), (trees[1], bases[1])] if shared else \
            [(trees[4], bases[1])]
        meet_blocks, blocks = opalgebra._meet_blocks, []
        monkeypatch.setattr(opalgebra, "_meet_blocks",
                            lambda se, sf: blocks.extend(zip(se, sf)) or meet_blocks(se, sf))
        corrected_p(_fresh_copy(targets[0][0]), targets[0][1], final_only=True)

        def failing(marker):
            def meet(se, sf):
                if any(np.array_equal(e, marker[0]) and np.array_equal(f, marker[1])
                       for e, f in zip(se, sf)):
                    raise np.linalg.LinAlgError(f"no convergence in a stack of {len(se)}")
                return meet_blocks(se, sf)
            return meet

        def lone_errors():
            errors = {}
            for m, B in itertools.product(trees, bases):
                try:
                    corrected_p(_fresh_copy(m), B, final_only=True)
                except np.linalg.LinAlgError as err:
                    errors[m, B] = str(err)
            return errors

        for marker in blocks:
            monkeypatch.setattr(opalgebra, "_meet_blocks", failing(marker))
            if set(errors := lone_errors()) == set(targets):
                break
        else:
            pytest.fail("no meet of the first pair's walk is met by exactly the pairs asked for")
        grow_grids(trees, bases)
        assert not any(m.corrected_bands for m in trees)
        for target in targets:
            with pytest.raises(np.linalg.LinAlgError) as raised:
                weak_max(*target)
            assert str(raised.value) == errors[target]
        for m, B in itertools.product(trees, bases):
            if (m, B) not in targets:
                _assert_same_bands(corrected_p(m, B, final_only=True).bands,
                                   corrected_p(_fresh_copy(m), B, final_only=True).bands)
        for trial, y in zip(trials, trees[::2]):
            rows = lambda m: cli._suite_moment(cfg, [trial], y.filtration, [m])
            if any(m in (y, -y) for m, _ in targets):
                with pytest.raises(np.linalg.LinAlgError):
                    rows(y)
            else:
                assert rows(y) == rows(_fresh_copy(y))

    def test_no_meet_batch_repeats_a_pair(self, monkeypatch):
        # both signs of the seed-0 moment trials 0..11 at five bases: each
        # (n, R_n, above) meet is asked once per round, however many bases
        # need it, so no batch holds two items of the same objects
        trees = _moment_trees(range(12))
        batches, meet = [], cuculescu._meet
        monkeypatch.setattr(cuculescu, "_meet", lambda items: batches.append(items) or meet(items))
        grow_grids(trees, _LOCKSTEP_BASES)
        assert batches and all(m.corrected_bands for m in trees)
        for items in batches:
            assert len({(id(r), id(above)) for _, _, r, above in items}) == len(items)
        # every base's top lies on a tree's top leaf, so the first meet of
        # each tree, with its root's identity, is asked once, not five times
        roots = {id(m.cuculescu_cache[()].r) for m in trees}
        assert sum(id(above) in roots for items in batches for *_, above in items) == len(trees)

    def test_let_go_growth_holds_no_frames(self, monkeypatch):
        # y_0 = diag(2, 0.5) and diag(3, 0.25) on one filtration, grown to the
        # B = 2 grid with every step that keeps one eigenvalue drifting: the
        # growth is let go and keeps nothing, queries raise their own errors,
        # and reference counts alone free the martingales
        a = _one_step([2.0, 0.5])
        b0 = a.algebra.operator([np.diag([3.0, 0.25])])
        b = Martingale(a.filtration, (b0,), (b0,))
        snap = cuculescu._snap_projection
        monkeypatch.setattr(cuculescu, "_snap_projection", lambda raw: snap(
            raw.summand_scaled([0.9 if r == 1 else 1.0 for r in raw.summand_ranks])))
        refs = [weakref.ref(a), weakref.ref(b)]
        gc.collect()
        gc.disable()
        try:
            grow_grids([a, b], [2.0])
            assert not a.corrected_bands and not b.corrected_bands
            assert [list(m.cuculescu_cache) for m in (a, b)] == [[()], [()]]
            with pytest.raises(NumericalInstabilityError):
                weak_max(a, 2.0)
            with pytest.raises(NumericalInstabilityError):
                cuculescu_r(a, 1.0)
            del a, b
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_family_martingales_are_freed_when_run_returns(self, monkeypatch):
        # with the cycle collector off, reference counts alone free every
        # martingale of a family batch, its trees and its kept bands
        import ncgl.cli as cli

        refs, grow = [], cli.grow_grids

        def kept(ys, bases):
            refs.extend(weakref.ref(y) for y in ys)
            return grow(ys, bases)

        monkeypatch.setattr(cli, "grow_grids", kept)
        gc.collect()
        gc.disable()
        try:
            cli.run(cli.ExperimentConfig(suite="moment", trials=12, seed=0))
            assert len(refs) == 24 and all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestCorrectedProjections:
    def test_diagonal_p_equals_r_exactly(self):
        filt = make_filtration("rademacher", depth=3)
        y = random_martingale(filt, stream(47), sup_norm=2.0)
        cp = corrected_p(y, 2.0)
        for k in range(cp.k_min, cp.k_top + 1):
            # an independent recursion at this level, not y's cache
            seq = cuculescu_r(_fresh_copy(y), 2.0**k)
            for n in range(y.N + 1):
                got = np.concatenate([b.ravel() for b in cp.P(n, k).data])
                ref = np.concatenate([b.ravel() for b in seq.R(n).data])
                assert np.array_equal(got, ref), (n, k)

    def test_above_top_is_identity(self):
        filt = make_filtration("corner", dim=3)
        y = random_martingale(filt, stream(48), sup_norm=2.0)
        cp = corrected_p(y, 2.0)
        ident = y.algebra.identity()
        assert cp.P(y.N, cp.k_top + 5).allclose(ident, 0.0)

    def test_p_below_r(self):
        filt = make_filtration("matrix_corner", outer_dim=2, dim=3)
        y = random_martingale(filt, stream(49), sup_norm=2.5)
        cp = corrected_p(y, 1.5)
        for k in range(max(cp.k_min, -4), cp.k_top + 1):
            seq = cuculescu_r(y, 1.5**k)
            for n in range(y.N + 1):
                assert min_eigenvalue(seq.R(n) - cp.P(n, k)) > -1e-9

    def test_monotone_both_parameters(self):
        filt = make_filtration("matrix_corner", outer_dim=2, dim=3)
        y = random_martingale(filt, stream(50), sup_norm=2.5)
        cp = corrected_p(y, 1.5)
        for n in range(y.N + 1):
            for k in range(-4, cp.k_top + 1):
                if n + 1 <= y.N:
                    assert min_eigenvalue(cp.P(n, k) - cp.P(n + 1, k)) > -1e-9
                assert min_eigenvalue(cp.P(n, k + 1) - cp.P(n, k)) > -1e-9

    def test_base_validation(self):
        filt = make_filtration("corner", dim=3)
        y = random_martingale(filt, stream(51))
        with pytest.raises(DomainError):
            corrected_p(y, 1.0)
        with pytest.raises(DomainError, match="base B must exceed 1"):
            grow_grids([y], [2.0, 1.0])
        assert not y.cuculescu_cache

    def test_a_martingale_that_is_not_self_adjoint_is_refused(self):
        y = _one_step([2.0, 0.5])
        x0 = y.algebra.operator([np.array([[0.0, 1.0], [0.0, 0.0]])])
        x = Martingale(y.filtration, (x0,), (x0,))
        for query in (lambda: cuculescu_r(x, 1.0), lambda: corrected_p(x, 2.0),
                      lambda: grow_grids([y, x], [2.0])):
            with pytest.raises(DomainError, match="self-adjoint"):
                query()
        assert not y.cuculescu_cache and not x.cuculescu_cache

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_bands_match_the_per_level_grid(self, monkeypatch, family, sign):
        y = _fresh_copy(_grid_case(family, sign)[0])
        calls, checks = _counted_calls(monkeypatch), _counted_checks(monkeypatch)
        for p, final_only in itertools.product((3.0, 8.0), (False, True)):
            B = 1.0 + 1.0 / p
            checks.clear()
            cp = corrected_p(y, B, final_only=final_only)
            # each band is one leaf of the tree, checked at its two ends; no
            # sequence is asked of cuculescu_r
            assert calls == [] and checks == _band_ends(cp.bands, B)
            grid, seqs = _per_level_grid(y, B, final_only)
            # the bands tile [k_min, k_top], one per run of one sequence
            highs, lows, cols = zip(*cp.bands)
            assert (cp.k_min, cp.k_top) == (lows[-1], highs[0]) == _k_range(y, B)
            assert all(h >= low for h, low in zip(highs, lows))
            assert highs[1:] == tuple(low - 1 for low in lows[:-1])
            assert all(a is not b for a, b in zip(cols, cols[1:]))
            assert len(cp.bands) == len(list(itertools.groupby(seqs, key=id)))
            for (n, k), want in grid.items():
                assert _flat_bytes(cp.P(n, k)) == _flat_bytes(want), (p, n, k)
            with pytest.raises(DomainError):
                cp.P(y.N, cp.k_min - 1)
            if final_only:
                with pytest.raises(DomainError):
                    cp.P(0, cp.k_top)

    @pytest.mark.parametrize("field", ("commutator", "top"))
    def test_band_bottom_is_checked(self, field):
        # y_0 = diag(1.5, 0.3) at B = 2: the sequence cut at level 1 serves
        # the band of levels 1 and 0.5; moved to fail below 0.75, it fails at
        # the band's bottom only
        y = _one_step([1.5, 0.3])
        seq = cuculescu_r(y, 1.0)
        leaf, = _leaves(y)
        moved = dataclasses.replace(seq.steps[0], **{field: [_MOVED[field][0](0.75, 1.5)]})
        leaf.seq = dataclasses.replace(seq, steps=(moved,))
        assert not _raises(leaf.seq, 1.0)
        with pytest.raises(NumericalInstabilityError):
            corrected_p(y, 2.0)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_power_of_two_scaling_is_exact(self, family, sign):
        # at B = 2, y -> 2y and every level B^k -> B^{k+1} are exact in floating
        # point: each band moves up one level with the same columns, bit for
        # bit, except the top band's high and the bottom band's low, which
        # follow k_top and k_min
        for seed in range(5):
            y = random_martingale(triple_family(family), stream(63, family, seed),
                                  sup_norm=2.5)
            y = y if sign > 0 else -y
            cp, up = corrected_p(y, 2.0), corrected_p(y.scale(2.0), 2.0)
            assert len(up.bands) == len(cp.bands), seed
            for i, ((h, low, col), (h2, low2, col2)) in enumerate(zip(cp.bands, up.bands)):
                assert i == 0 or h2 == h + 1, (seed, i)
                assert i == len(cp.bands) - 1 or low2 == low + 1, (seed, i)
                assert col2.keys() == col.keys()
                for n in col:
                    assert _flat_bytes(col2[n]) == _flat_bytes(col[n]), (seed, i, n)
            a, a2 = weak_max(y, 2.0).operator, weak_max(y.scale(2.0), 2.0).operator
            assert all(np.array_equal(b2, 2.0 * b) for b, b2 in zip(a.data, a2.data)), seed


class TestWeakMax:
    def test_classical_staircase_value(self):
        # a coordinate whose running maximum is 5 gets value 4 at base 2
        filt = make_filtration("trivial_full", dims=(1, 1), weights=(0.5, 0.5))
        alg = filt.algebra
        f = alg.operator([np.array([[5.0]]), np.array([[-1.0]])])
        m = martingale_from_final(filt, f)
        wm = weak_max(m, 2.0)
        assert wm.operator.data[0][0, 0].real == pytest.approx(4.0)
        # the second coordinate sees max(y_0, y_1) = max(2, -1) = 2
        assert wm.operator.data[1][0, 0].real == pytest.approx(2.0)

    def test_nonpositive_martingale_gives_zero(self):
        filt = make_filtration("corner", dim=3)
        y = random_martingale(filt, stream(52), sup_norm=1.0)
        # conditional expectations are unital, so shifting the final by -3I
        # shifts every level; all values are then strictly negative
        shifted = martingale_from_final(filt, y.final - filt.algebra.identity() * 3.0)
        assert all(min_eigenvalue(-v) > 0 for v in shifted.values)
        wm = weak_max(shifted, 2.0)
        assert wm.operator.entry_max() < 1e-12
        assert wm.residual.rank() == filt.algebra.total_dim

    def test_psd_and_commutes_with_grid(self):
        filt = make_filtration("matrix_corner", outer_dim=2, dim=2)
        y = random_martingale(filt, stream(53), sup_norm=2.0)
        wm = weak_max(y, 1.5)
        assert min_eigenvalue(wm.operator) > -1e-10
        cp = wm.corrected
        for k in range(cp.k_min, cp.k_top + 1):
            p = cp.P(y.N, k)
            assert (wm.operator @ p - p @ wm.operator).entry_max() < 1e-8

    def test_weak_distribution_domination(self):
        # tau(I_{[B^k,inf)}(y_N)) <= tau(I_{[B^k,inf)}(a+)) + tau(I_{[B^k,inf)}(a-))
        filt = make_filtration("matrix_corner", outer_dim=2, dim=3)
        for seed in range(4):
            y = random_martingale(filt, stream(54, seed), sup_norm=2.5)
            wp = weak_max(y, 2.0)
            wn = weak_max(-y, 2.0)
            for k in range(-3, 3):
                lam = 2.0**k
                lhs = trace(spectral_projection(y.final, Interval.at_least(lam)))
                rhs = (trace(spectral_projection(wp.operator, Interval.at_least(lam)))
                       + trace(spectral_projection(wn.operator, Interval.at_least(lam))))
                assert lhs <= rhs + 1e-8

    def test_fubini_identity(self):
        for seed, p in [(0, 3.0), (1, 4.0), (2, 6.0)]:
            filt = make_filtration("rademacher_corner", depth=2, matrix_dim=2)
            y = random_martingale(filt, stream(55, seed), sup_norm=2.0)
            wm = weak_max(y, 2.0)
            assert _gap(wm, p) < 1e-6

    def test_fubini_gap_of_the_zero_martingale(self):
        # a_N^+ = 0 and every P_N^{B^k} = I: both sides are 0
        filt = make_filtration("corner", dim=3)
        wm = weak_max(martingale_from_final(filt, filt.algebra.zero()), 2.0)
        assert wm.operator.entry_max() == 0.0
        assert _gap(wm, 3.0) == 0.0
        with pytest.raises(DomainError, match="p > 2"):
            _gap(wm, 2.0)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_bands_match_the_per_level_sum(self, family, sign):
        y = _fresh_copy(_grid_case(family, sign)[0])
        for B in (4.0 / 3.0, 9.0 / 8.0):
            wm = weak_max(y, B)
            cp, N = wm.corrected, y.N
            per_level = y.algebra.zero()
            for k in range(cp.k_min, cp.k_top + 1):
                per_level = per_level + (cp.P(N, k + 1) - cp.P(N, k)) * B**k
            assert operator_norm(wm.operator - per_level.symmetrized()) <= 1e-12
            assert wm.residual is cp.P(N, cp.k_min)
            for p in (3.0, 4.0, 8.0):
                # a band's closed-form sum rounds unlike the per-level sum
                assert abs(_gap(wm, p) - _groupby_fubini_gap(wm, p)) <= 1e-14

    @pytest.mark.parametrize("case", ("families", "mixed dims", "one band",
                                      "zero final column", "zero martingale"))
    def test_stacked_sums_match_the_per_band_sums(self, monkeypatch, case):
        # a_N^+ and each left side of fubini_identity_gap, one weighted
        # reduction over the stacked band columns, are bit for bit the sums
        # of one Operator subtract, scale and add per band
        corner = make_filtration("corner", dim=3)
        if case == "families":
            ys = [_fresh_copy(_grid_case(family, sign)[0])
                  for family in range(6) for sign in (1, -1)]
        elif case == "mixed dims":
            filt = make_filtration("trivial_full", dims=(1, 2, 3), weights=(0.2, 0.3, 0.5))
            ys = [random_martingale(filt, stream(64, i), sup_norm=2.0) for i in range(2)]
            ys += [-y for y in ys]
        elif case == "one band":  # every value negative: nothing is ever cut
            y = random_martingale(corner, stream(52), sup_norm=1.0)
            ys = [martingale_from_final(corner, y.final - corner.algebra.identity() * 3.0)]
        elif case == "zero final column":  # every level below 1.5 cuts both
            ys = [_one_step([2.0, 1.5])]
        else:
            ys = [martingale_from_final(corner, corner.algebra.zero())]
        sums, weighted = [], cuculescu._staircases
        monkeypatch.setattr(cuculescu, "_staircases",
                            lambda *args: sums.append(weighted(*args)) or sums[-1])
        for y in ys:
            for p in (3.0, 4.0, 8.0):
                wm = weak_max(y, 1.0 + 1.0 / p)
                sums.clear()
                gap = _gap(wm, p)
                (lhs,) = sums
                a, want = per_band_sums(wm, p)
                assert _flat_bytes(wm.operator) == _flat_bytes(a), p
                assert _flat_bytes(lhs) == _flat_bytes(want), p
                assert 0.0 <= gap < 1e-6
        bands = wm.corrected.bands
        if case in ("one band", "zero martingale"):
            assert len(bands) == 1 and bands[0][2][y.N].rank() == y.algebra.total_dim
        if case == "zero final column":
            assert len(bands) > 1 and wm.residual.rank() == 0

    @pytest.mark.parametrize("family", range(6))
    def test_group_staircases_match_each_tree_alone(self, monkeypatch, family):
        # a family's trees of both signs, with unequal band counts, and a zero
        # martingale: every a_N^+ of the group is one reduction, padded in
        # front by exact zeros, and so is every Fubini left side; each part
        # is bit for bit its tree's own weighted sum, and each gap that of
        # its tree alone
        filt = triple_family(family)
        ys = [random_martingale(filt, stream(57, family, i), sup_norm=sup)
              for i, sup in enumerate((0.6, 2.5, 3.9))]
        ys += [-y for y in ys] + [martingale_from_final(filt, filt.algebra.zero())]
        sums, staircases = [], cuculescu._staircases
        monkeypatch.setattr(cuculescu, "_staircases",
                            lambda stairs: sums.append(staircases(stairs)) or sums[-1])
        for p in (3.0, 4.0, 8.0):
            sums.clear()
            wms = cuculescu.weak_maxima(ys, 1.0 + 1.0 / p)
            gaps = fubini_identity_gap(wms, p)
            assert len(sums) == 2 and len({len(wm.corrected.bands) for wm in wms}) > 1
            for wm, lhs, gap in zip(wms, sums[1].parts(filt.algebra), gaps):
                want_a, want_lhs = per_tree_staircases(wm, p)
                assert _flat_bytes(wm.operator) == _flat_bytes(want_a)
                assert _flat_bytes(lhs) == _flat_bytes(want_lhs)
                assert gap == _gap(wm, p)
            assert gaps[-1] == 0.0 and _flat_bytes(wms[-1].operator) == \
                _flat_bytes(filt.algebra.zero())

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_band_sums_match_the_per_level_fsum(self, family, sign):
        # the closed form anchored at the band's top neither overflows at
        # p = 1e4 (180,854 levels) nor cancels near p = 2, where the form
        # with 1 - B^{-q} in place of expm1 is 5.5e-14 off
        base = random_martingale(triple_family(family), stream(57, family), sup_norm=2.5)
        y = base if sign > 0 else -base
        for p in (2.001, 3.0, 8.0, 1e4):
            B, q = 1.0 + 1.0 / p, p - 2.0
            bands = weak_max(y, B).corrected.bands
            h = bands[0][0]
            for high, low, _ in bands:
                want = math.fsum(B ** ((k - h) * q) for k in range(low, high + 1))
                got = cuculescu._band_sum(B, q, high - h, high - low + 1)
                assert abs(got - want) <= 1e-14 * want, (p, high, low)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_scaled_gap_matches_the_unscaled_sum(self, family, sign):
        # dividing both sides by B^{h(p-2)} gives the same relative gap, and a
        # finite one where B^{k(p-2)} overflows
        y = _fresh_copy(_grid_case(family, sign)[0])
        for p in (3.0, 4.0, 8.0):
            wm = weak_max(y, 1.0 + 1.0 / p)
            assert abs(_gap(wm, p) - _unscaled_fubini_gap(wm, p)) <= 1e-13
        wm = weak_max(y, 1.0 + 1e-4)
        with pytest.raises(OverflowError):
            _unscaled_fubini_gap(wm, 1e4)
        assert 0.0 <= _gap(wm, 1e4) < 1e-6

    def test_large_p_makes_one_call_per_band(self, monkeypatch):
        # at p = 1e4 the grid has 180,854 levels, and this martingale's
        # column never reaches 0: the per-level walk asks for all of them,
        # the lone walk visits one leaf per band and checks its two ends
        y = random_martingale(triple_family(2), stream(57, 2), sup_norm=2.5)
        B, p = 1.0 + 1e-4, 1e4
        calls, checks = _counted_calls(monkeypatch), _counted_checks(monkeypatch)
        wm = weak_max(y, B)
        assert calls == [] and len(wm.corrected.bands) == 5
        assert checks == _band_ends(wm.corrected.bands, B) and len(checks) == 10
        monkeypatch.undo()
        per_level = _per_level_corrected(_fresh_copy(y), B, final_only=True)
        monkeypatch.setattr(cuculescu, "corrected_p", lambda *args, **kwargs: per_level)
        want = weak_max(y, B)
        assert _flat_bytes(wm.operator) == _flat_bytes(want.operator)
        assert _gap(wm, p) == _gap(want, p)

    @pytest.mark.parametrize("sign", ("+", "-"))
    @pytest.mark.parametrize("B", (1.5, 2.0, 4.0 / 3.0))
    @pytest.mark.parametrize("family", range(6))
    def test_scale_covariance(self, family, B, sign):
        # a^±(B^j y) = B^j a^±(y): scaling by B^j shifts the level grid by j
        y = random_martingale(triple_family(family), stream(60, family), sup_norm=2.5)
        signed = (lambda m: m) if sign == "+" else (lambda m: -m)
        a = weak_max(signed(y), B).operator
        for j in (-3, 2, 5):
            scaled = weak_max(signed(y.scale(B**j)), B).operator
            assert operator_norm(scaled - a * B**j) <= \
                1e-10 * B**j * (1.0 + operator_norm(a)), j
