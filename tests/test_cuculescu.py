import dataclasses
import functools
import gc
import itertools
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
from ncgl.instances import random_martingale, stream, triple_family
from ncgl.opalgebra import (
    Interval,
    min_eigenvalue,
    operator_norm,
    proj_meet,
    psd_power,
    spectral_projection,
    trace,
)

from helpers import check_projection, recorded_cuts


def _one_step(y0_diag):
    # a one-level filtration: the top (identity) level of the corner family
    c = make_filtration("corner", dim=len(y0_diag))
    filt = Filtration(c.algebra, c.signs, c.levels[-1:], label="one_step")
    y0 = c.algebra.operator([np.diag(np.asarray(y0_diag, dtype=float))])
    return Martingale(filt, (y0,), (y0,))


def _fresh_copy(y):
    """The same martingale with an empty Cuculescu cache."""
    return Martingale(y.filtration, y.values, y.diffs)


def _assert_same_sequence(got, want, level):
    """Projections within 1e-10, and the five measurements of each step and
    summand within 1e-12 (1 + ||y_n||/level)."""
    for n, (a, b) in enumerate(zip(got.projections, want.projections)):
        assert a.allclose(b, 1e-10), (level, n)
    for n, (s, t) in enumerate(zip(got.steps, want.steps)):
        for a, b in zip(s.summands, t.summands):
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
            verify_moment(t, p)
        diagonal = 0
        for m in (y, -y):
            for seq in m.cuculescu_cache:
                for proj in seq.projections:
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
    level computed from R_{-1} = I on a fresh copy."""
    base = random_martingale(triple_family(family), stream(57, family),
                             sup_norm=2.5)
    y = base if sign > 0 else -base
    levels = set()
    for p in (3.0, 8.0):
        B = 1.0 + 1.0 / p
        lo, top = _k_range(y, B, None)
        levels.update(B**k for k in range(lo, top + 1))
    levels = sorted(levels, reverse=True)
    refs = [cuculescu_r(_fresh_copy(y), level) for level in levels]
    return y, levels, refs


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("family", range(6))
def test_every_cut_passes_the_projection_oracle(monkeypatch, family, sign):
    # every cut E = I(compressed < 1) of the descending grid on one fresh
    # copy, which resumes cached prefixes as weak_max does, and of every
    # tenth level from R_{-1} = I, checked by its own eigensolve
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


def _per_level_grid(y, B, k_min=None, final_only=False):
    """The corrected projections as one column per level, the loop that the
    bands replaced: the (n, k) dict, and the sequences cuculescu_r returned,
    one per level that asked for one."""
    lo, top = _k_range(y, B, k_min)
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


def _groupby_fubini_gap(wm, p):
    """fubini_identity_gap as it was computed before the bands: one
    multiply-add per run of levels sharing one projection object."""
    cp = wm.corrected
    B, N, alg = cp.base, cp.martingale.N, cp.martingale.algebra
    ident = alg.identity()
    lhs = alg.zero()
    for proj, ks in itertools.groupby(range(cp.k_min, cp.k_top + 1),
                                      key=lambda k: cp.P(N, k)):
        lhs = lhs + (ident - proj) * sum(B ** (k * (p - 2.0)) for k in ks)
    tail_coeff = B ** (cp.k_min * (p - 2.0)) / (1.0 - B ** (-(p - 2.0)))
    lhs = lhs + (ident - cp.P(N, cp.k_min)) * tail_coeff
    rhs = psd_power(wm.operator, p - 2.0) * (1.0 / (1.0 - B ** (2.0 - p)))
    return operator_norm(lhs - rhs) / (1.0 + operator_norm(rhs))


class TestCachedSequences:
    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    @settings(max_examples=3, deadline=None)
    @given(order=st.integers(0, 2**32 - 1))
    def test_cache_matches_fresh_recursion(self, family, sign, order):
        y, levels, refs = _grid_case(family, sign)
        shuffled = list(zip(levels, refs))
        random.Random(order).shuffle(shuffled)
        cached = _fresh_copy(y)          # descending, then shuffled
        unordered = _fresh_copy(y)       # shuffled from an empty cache
        queries = ([(cached, q) for q in zip(levels, refs)]
                   + [(cached, q) for q in shuffled]
                   + [(unordered, q) for q in shuffled])
        for m, (level, ref) in queries:
            got = cuculescu_r(m, level).projections
            for n, (a, b) in enumerate(zip(got, ref.projections)):
                assert a.allclose(b, 1e-10), (level, n)
        # the grid is served by far fewer sequences than it has levels
        assert len(cached.cuculescu_cache) < len(levels)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_resumed_sequences_match_the_recursion_from_scratch(self, family, sign):
        # a level outside every cached sequence's last window resumes after
        # the leading steps that one of them shares at it
        y, levels, refs = _grid_case(family, sign)
        m = _fresh_copy(y)
        for level, ref in zip(levels, refs):
            _assert_same_sequence(cuculescu_r(m, level), ref, level)
        cache = m.cuculescu_cache
        assert any(s.projections[0] is t.projections[0]
                   for i, s in enumerate(cache) for t in cache[:i])

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_step_windows_are_nested(self, family, sign):
        y, levels, _ = _grid_case(family, sign)
        m = _fresh_copy(y)
        for level in levels:
            cuculescu_r(m, level)
        for seq in m.cuculescu_cache:
            assert len(seq.windows) == y.N + 1
            assert (seq.lo, seq.hi) == seq.windows[-1]
            for (lo, hi), (inner_lo, inner_hi) in zip(seq.windows, seq.windows[1:]):
                assert lo <= inner_lo and inner_hi <= hi

    def test_resume_computes_only_the_steps_not_shared(self, monkeypatch):
        # y_0 = 1.25 I and y_1 = U diag(3, -0.5) U*: at level 2 the second
        # step cuts the eigenvalue 3, at level 4 it cuts nothing
        filt = make_filtration("trivial_full", dims=(2,))
        u = np.linalg.qr(np.array([[1.0, 0.3 + 0.2j], [-0.4j, 1.0]]))[0]
        final = filt.algebra.operator([(u * np.array([3.0, -0.5])) @ u.conj().T])
        y = martingale_from_final(filt, final)
        first = cuculescu_r(y, 2.0)
        (lo0, hi0), (lo1, hi1) = first.windows
        assert lo0 < 4.0 < hi0 and not lo1 < 4.0 < hi1
        calls = {"spectral_projection": 0, "cond_exp": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cuculescu, name, counted(name, getattr(cuculescu, name)))
        seq = cuculescu_r(y, 4.0)
        assert calls == {"spectral_projection": 1, "cond_exp": 1}
        assert seq.projections[0] is first.projections[0]
        assert seq.steps[0] is first.steps[0]
        assert seq.windows[0] == first.windows[0]
        monkeypatch.undo()
        fresh = cuculescu_r(_fresh_copy(y), 4.0)
        assert seq.final().rank() == 2 and first.final().rank() == 1
        _assert_same_sequence(seq, fresh, 4.0)

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
        calls = {"check": 0, "fresh": 0}
        check, fresh = cuculescu._check_level, cuculescu._fresh_sequence

        def counted_check(seq, level):
            calls["check"] += 1
            return check(seq, level)

        def counted_fresh(y, level, prefix):
            calls["fresh"] += 1
            return fresh(y, level, prefix)

        monkeypatch.setattr(cuculescu, "_check_level", counted_check)
        monkeypatch.setattr(cuculescu, "_fresh_sequence", counted_fresh)
        y = _one_step([2.0, 0.5])
        first = cuculescu_r(y, 1.0)
        for level in (1.0, 1.5, 0.7):      # between the eigenvalues 0.5 and 2
            assert cuculescu_r(y, level).projections is first.projections
        assert calls == {"check": 4, "fresh": 1}
        cuculescu_r(y, 3.0)                # above both: outside every window
        cuculescu_r(y, 0.25)               # below both
        cuculescu_r(y, 5.0)
        assert calls == {"check": 7, "fresh": 3}
        assert len(y.cuculescu_cache) == 3

    @pytest.mark.parametrize("diagonals", [
        [(e, -0.5) for e in np.arange(0.05, 0.95, 0.01)],   # the relative slack
        [(0.0, top) for top in np.arange(0.5, 3.0, 0.05)],  # the 1e-12 ||y_n|| term
    ], ids=["relative", "near-zero"])
    def test_window_slack_covers_rounding_at_the_edge(self, diagonals):
        # y_0 = U diag(e, f) U* keeps e at level 1; without the slack the
        # sequence would serve every level above t(e) = (e + 1e-10 m) /
        # (1 - 1e-10), m = max(|e|, |f|).  Recomputed a few ulps above t(e),
        # e sits on the tie band and the rounding of the rotated eigenvalues
        # can cut it (for e = 0, t(e) ~ 1e-10 m and the relative part of the
        # slack is below that rounding): the slack sends such levels to a
        # fresh recursion.
        from ncgl.cuculescu import _BELOW_ONE, _TIE_TOL

        u = np.linalg.qr(np.array([[1.0, 0.3 + 0.2j], [-0.4j, 1.0]]))[0]

        def rotated(diagonal):
            y = _one_step([1.0, 1.0])
            y0 = y.algebra.operator([(u * np.array(diagonal)) @ u.conj().T])
            return Martingale(y.filtration, (y0,), (y0,))

        flipped = 0
        for diagonal in diagonals:
            y = rotated(diagonal)
            seq = cuculescu_r(y, 1.0)
            (spectrum,), (tol,) = y.values[0].symmetrized().spectrum
            kept = _BELOW_ONE.contains(spectrum[0], tol)
            level = float(((spectrum[0] + tol - _TIE_TOL) / (1.0 - _TIE_TOL))[kept].max())
            for _ in range(3):
                level = np.nextafter(level, np.inf)  # inside the unslacked window
                fresh = cuculescu_r(rotated(diagonal), level).R(0)
                assert cuculescu_r(y, level).R(0).allclose(fresh, 0.0), (diagonal, level)
                flipped += fresh.rank() != seq.R(0).rank()
        assert flipped > 0

    @pytest.mark.parametrize("field, value", [("adapted", 1.0), ("top", 1e3)])
    def test_hits_are_validated(self, field, value):
        y = _one_step([2.0, 0.5])
        cuculescu_r(y, 1.0)
        seq = y.cuculescu_cache[0]
        # one measurement per summand; this algebra has one
        bad = dataclasses.replace(seq.steps[0], **{field: [value]})
        y.cuculescu_cache[0] = dataclasses.replace(seq, steps=(bad,))
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
        assert cuculescu_r(y, 1.0) is y.cuculescu_cache[0]
        assert cuculescu_r(y, 1.5) is y.cuculescu_cache[0]
        assert cuculescu_r(y, 1.0).R(-1).allclose(y.algebra.identity(), 0.0)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_cut_off_certificate_matches_eigensolve(self, family, sign):
        # min_eig(R_n - R_n y_n R_n/level) against 1 - top/level, and 0 on a
        # nonzero kernel, at every grid level (cache hits included)
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

    @pytest.mark.parametrize("mu", (0.5, 4.0))
    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_scale_covariance(self, family, sign, mu):
        # R^{mu level}(mu y) = R^{level}(y): the windows scale with mu
        y, levels, refs = _grid_case(family, sign)
        scaled = y.scale(mu)
        for level, ref in zip(levels, refs):
            got = cuculescu_r(scaled, mu * level).projections
            for n, (a, b) in enumerate(zip(got, ref.projections)):
                assert a.allclose(b, 1e-10), (level, n)

    def test_cache_dies_with_the_martingale(self):
        y = random_martingale(make_filtration("corner", dim=3), stream(58),
                              sup_norm=2.0)
        ref = weakref.ref(y)
        corrected_p(y, 1.5)
        weak_max(y, 1.5, "-")
        assert y.cuculescu_cache and (-y).cuculescu_cache
        del y
        gc.collect()
        assert ref() is None

    def test_negation_is_built_once(self):
        y = random_martingale(make_filtration("corner", dim=3), stream(59))
        assert -y is -y
        assert all(np.array_equal(a.data, -b.data)
                   for a, b in zip((-y).values, y.values))


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
        cp = corrected_p(y, 1.5, k_min=-4)
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

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_bands_match_the_per_level_grid(self, family, sign):
        y = _fresh_copy(_grid_case(family, sign)[0])
        for p, k_min, final_only in itertools.product((3.0, 8.0), (None, -6),
                                                      (False, True)):
            B = 1.0 + 1.0 / p
            cp = corrected_p(y, B, k_min=k_min, final_only=final_only)
            grid, seqs = _per_level_grid(y, B, k_min, final_only)
            # the bands tile [k_min, k_top], one per run of one sequence
            highs, lows, cols = zip(*cp.bands)
            assert (cp.k_min, cp.k_top) == (lows[-1], highs[0]) == _k_range(y, B, k_min)
            assert all(h >= low for h, low in zip(highs, lows))
            assert highs[1:] == tuple(low - 1 for low in lows[:-1])
            assert all(a is not b for a, b in zip(cols, cols[1:]))
            assert len(cp.bands) == len(list(itertools.groupby(seqs, key=id)))
            for (n, k), want in grid.items():
                assert _flat_bytes(cp.P(n, k)) == _flat_bytes(want), (p, k_min, n, k)
            with pytest.raises(DomainError):
                cp.P(y.N, cp.k_min - 1)
            if final_only:
                with pytest.raises(DomainError):
                    cp.P(0, cp.k_top)


class TestWeakMax:
    def test_classical_staircase_value(self):
        # a coordinate whose running maximum is 5 gets value 4 at base 2
        filt = make_filtration("trivial_full", dims=(1, 1), weights=(0.5, 0.5))
        alg = filt.algebra
        f = alg.operator([np.array([[5.0]]), np.array([[-1.0]])])
        m = martingale_from_final(filt, f)
        wm = weak_max(m, 2.0, "+")
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
        wm = weak_max(shifted, 2.0, "+")
        assert wm.operator.entry_max() < 1e-12
        assert wm.residual.rank() == filt.algebra.total_dim

    def test_psd_and_commutes_with_grid(self):
        filt = make_filtration("matrix_corner", outer_dim=2, dim=2)
        y = random_martingale(filt, stream(53), sup_norm=2.0)
        wm = weak_max(y, 1.5, "+")
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
            wp = weak_max(y, 2.0, "+")
            wn = weak_max(y, 2.0, "-")
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
            wm = weak_max(y, 2.0, "+")
            assert fubini_identity_gap(wm, p) < 1e-6

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("family", range(6))
    def test_bands_match_the_per_level_sum(self, family, sign):
        y = _fresh_copy(_grid_case(family, sign)[0])
        for B in (4.0 / 3.0, 9.0 / 8.0):
            wm = weak_max(y, B, "+")
            cp, N = wm.corrected, y.N
            per_level = y.algebra.zero()
            for k in range(cp.k_min, cp.k_top + 1):
                per_level = per_level + (cp.P(N, k + 1) - cp.P(N, k)) * B**k
            assert operator_norm(wm.operator - per_level.symmetrized()) <= 1e-12
            assert wm.residual is cp.P(N, cp.k_min)
            for p in (3.0, 4.0, 8.0):
                assert fubini_identity_gap(wm, p) == _groupby_fubini_gap(wm, p)

    @pytest.mark.parametrize("sign", ("+", "-"))
    @pytest.mark.parametrize("B", (1.5, 2.0, 4.0 / 3.0))
    @pytest.mark.parametrize("family", range(6))
    def test_scale_covariance(self, family, B, sign):
        # a^±(B^j y) = B^j a^±(y): scaling by B^j shifts the level grid by j
        y = random_martingale(triple_family(family), stream(60, family), sup_norm=2.5)
        a = weak_max(y, B, sign).operator
        for j in (-3, 2, 5):
            scaled = weak_max(y.scale(B**j), B, sign).operator
            assert operator_norm(scaled - a * B**j) <= \
                1e-10 * B**j * (1.0 + operator_norm(a)), j

    def test_sign_validation(self):
        filt = make_filtration("corner", dim=3)
        y = random_martingale(filt, stream(56))
        with pytest.raises(DomainError):
            weak_max(y, 2.0, "x")
