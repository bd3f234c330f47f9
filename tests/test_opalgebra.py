import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgl.errors import DomainError, StructureError
from ncgl.instances import (
    FAMILY_TEMPLATES,
    gaussian_hermitian,
    gaussian_psd,
    stream,
    triple_family,
)
from ncgl.opalgebra import (
    Interval,
    Operator,
    TracialAlgebra,
    abs_spectral_trace,
    direct_sum,
    func_calculus,
    min_eigenvalue,
    operator_norm,
    proj_meet,
    psd_sqrt,
    schatten_norm,
    spectral_projection,
    trace,
    trace_pair,
)

from helpers import (
    check_projection,
    diagonal_operator,
    per_block_gaussian_hermitian,
    per_block_gaussian_psd,
    reference_eigenvalues,
    reference_spectrum,
    tie_rule_contains,
)


def alg1(d, w=1.0):
    return TracialAlgebra((d,), (w,))


class TestTrace:
    def test_identity_single_block(self):
        assert trace(alg1(3).identity()) == pytest.approx(3.0)

    def test_identity_two_weighted_blocks(self):
        alg = TracialAlgebra((2, 2), (0.5, 0.5))
        assert trace(alg.identity()) == pytest.approx(2.0)

    def test_matrix_unit(self):
        alg = alg1(2)
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        assert trace(alg.operator([e11])) == pytest.approx(1.0)

    def test_hermitian_trace_is_float(self):
        x = gaussian_hermitian(alg1(4), stream(0))
        assert isinstance(trace(x), float)

    def test_shape_mismatch(self):
        with pytest.raises(StructureError):
            alg1(3).operator([np.zeros((2, 2))])


class TestSchattenNorm:
    def test_p1(self):
        x = alg1(2).operator([np.diag([3.0, -4.0])])
        assert schatten_norm(x, 1) == pytest.approx(7.0)

    def test_p2(self):
        x = alg1(2).operator([np.diag([3.0, -4.0])])
        assert schatten_norm(x, 2) == pytest.approx(5.0)

    def test_p_inf(self):
        x = alg1(2).operator([np.diag([3.0, -4.0])])
        assert schatten_norm(x, math.inf) == pytest.approx(4.0)

    def test_weights_enter(self):
        x = TracialAlgebra((1,), (0.25,)).operator([np.array([[2.0]])])
        assert schatten_norm(x, 2) == pytest.approx(np.sqrt(0.25 * 4.0))

    def test_inf_ignores_weights(self):
        x = TracialAlgebra((1,), (0.25,)).operator([np.array([[2.0]])])
        assert schatten_norm(x, math.inf) == pytest.approx(2.0)

    def test_quasi_norm_rejected(self):
        with pytest.raises(DomainError):
            schatten_norm(alg1(2).identity(), 0.5)

    def test_large_p_does_not_overflow(self):
        # 999^1100 is far beyond the float range
        x = TracialAlgebra((3,), (0.5,)).operator([np.diag([999.0, -998.0, 1.0])])
        p = 1100.0
        closed = 999.0 * (0.5 * (1.0 + (998.0 / 999.0) ** p)) ** (1.0 / p)
        assert schatten_norm(x, p) == pytest.approx(closed, rel=1e-12)
        assert schatten_norm(alg1(2).zero(), p) == 0.0

    def test_two_norm_squared_is_trace(self):
        rng = stream(1)
        alg = TracialAlgebra((3, 2), (1.0, 0.5))
        x = gaussian_hermitian(alg, rng)
        lhs = schatten_norm(x, 2) ** 2
        rhs = trace(x.adjoint() @ x)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSpectralProjection:
    def test_diagonal_below(self):
        a = alg1(2).operator([np.diag([0.5, 2.0])])
        e = spectral_projection(a, Interval.below(1.0))
        assert np.allclose(e.data[0], np.diag([1.0, 0.0]))

    def test_zero_operator_at_least_zero(self):
        e = spectral_projection(alg1(3).zero(), Interval.at_least(0.0))
        assert np.allclose(e.data[0], np.eye(3))

    def test_random_projection_properties(self):
        # independent oracle: the output must be idempotent and commute
        for seed in range(5):
            a = gaussian_hermitian(alg1(6), stream(2, seed))
            e = spectral_projection(a, Interval.below(0.2))
            assert operator_norm(e @ e - e) < 1e-9
            assert operator_norm(e @ a - a @ e) < 1e-9

    def test_complement_pair_is_exactly_identity(self):
        a = gaussian_hermitian(alg1(5), stream(3))
        lam = 0.1
        lo = spectral_projection(a, Interval.below(lam))
        hi = spectral_projection(a, Interval.at_least(lam))
        assert (lo + hi).allclose(a.algebra.identity(), 1e-12)

    def test_tie_rule_pushes_boundary_up(self):
        # an eigenvalue within the snap tolerance of an open upper endpoint
        # is excluded from (-inf, beta)
        a = alg1(2).operator([np.diag([1.0 - 1e-13, 0.0])])
        e = spectral_projection(a, Interval.below(1.0))
        assert np.allclose(e.data[0], np.diag([0.0, 1.0]))

    def test_non_hermitian_rejected(self):
        a = alg1(2).operator([np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(DomainError):
            spectral_projection(a, Interval.below(0.0))


MIXED = TracialAlgebra((3, 2), (1.0, 0.5))


def _dense(x):
    """The block-diagonal matrix of an operator."""
    n = x.algebra.total_dim
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in x.data:
        d = b.shape[0]
        out[at:at + d, at:at + d] = b
        at += d
    return out


def _dense_calculus(x, f):
    """Oracle: f applied through one dense eigh of the block-diagonal matrix."""
    w, v = np.linalg.eigh(_dense(x))
    return (v * f(w)) @ v.conj().T


def _rotated(diagonals, seed):
    """Operator on MIXED with the given block spectra, in a random basis."""
    rng = stream(13, seed)
    blocks = []
    for vals in diagonals:
        d = len(vals)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q = np.linalg.qr(g)[0]
        blocks.append((q * np.asarray(vals, dtype=float)) @ q.conj().T)
    return MIXED.operator(blocks)


class TestDenseOracle:
    """The per-block spectral path against one dense eigh of the whole matrix."""

    INTERVALS = [Interval.below(0.3), Interval.at_least(-0.5),
                 Interval(-1.0, 1.0, False, True), Interval(2.0, math.inf, False, False)]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_spectral_projection(self, seed, interval):
        a = gaussian_hermitian(MIXED, stream(12, seed))
        e = spectral_projection(a, interval)
        want = _dense_calculus(
            a, lambda w: ((w < interval.upper) & (w > interval.lower)).astype(float))
        assert np.abs(_dense(e) - want).max() < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_func_calculus_and_sqrt(self, seed):
        a = gaussian_hermitian(MIXED, stream(12, seed))
        assert np.abs(_dense(func_calculus(a, np.exp))
                      - _dense_calculus(a, np.exp)).max() < 1e-10
        sq = (a @ a).symmetrized()
        assert np.abs(_dense(psd_sqrt(sq))
                      - _dense_calculus(sq, lambda w: np.sqrt(np.clip(w, 0, None)))
                      ).max() < 1e-10

    def test_diagonal_is_exact(self):
        vals = ([4.0, 0.25, 1.0], [9.0, 0.0])
        a = diagonal_operator(MIXED, vals)
        assert np.array_equal(_dense(psd_sqrt(a)), np.diag(np.sqrt(np.concatenate(vals))))
        assert np.array_equal(_dense(func_calculus(a, lambda t: t ** 2)),
                              np.diag(np.concatenate(vals) ** 2))
        e = spectral_projection(a, Interval.below(1.0))
        assert np.array_equal(_dense(e), np.diag([0.0, 1.0, 0.0, 0.0, 1.0]))

    # spectrum {1, -3, 5} + {1, 0.5}: the two eigenvalues 1.0 sit exactly on
    # the endpoint (to rounding once rotated); the tie rule counts them in
    # closed ends and leaves them out of open ones
    @pytest.mark.parametrize("interval,rank", [
        (Interval.below(1.0), 2),
        (Interval.below(1.0, closed=True), 4),
        (Interval.at_least(1.0), 3),
        (Interval(1.0, math.inf, False, False), 1),
    ])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_eigenvalue_on_endpoint(self, interval, rank, rotate):
        vals = ([1.0, -3.0, 5.0], [1.0, 0.5])
        a = _rotated(vals, 0) if rotate else diagonal_operator(MIXED, vals)
        e = spectral_projection(a, interval)
        assert e.rank() == rank
        if not rotate:
            assert all(np.array_equal(b, np.diag(np.diag(b))) for b in e.data)


def _tie_intervals():
    """Every open/closed combination of ends on finite, infinite and
    degenerate intervals."""
    ends = [(-1.5, 2.0), (0.0, 0.0), (2.0, 1e3), (1e3, 1e3), (-math.inf, 0.0),
            (2.0, math.inf), (-math.inf, math.inf)]
    return [Interval(lo, hi, lo_closed, hi_closed) for lo, hi in ends
            for lo_closed in (True, False) for hi_closed in (True, False)]


class TestTieRule:
    @pytest.mark.parametrize("interval", _tie_intervals(), ids=str)
    def test_matches_the_snapping_rule(self, interval):
        # the endpoints, values tol and 2 tol from them and each of those
        # values' neighbouring floats, and random values; a scalar tol, and
        # a column of one tol per block
        tols = np.array([0.0, 1e-10, 3e-10, 1e-10 * (1.0 + 1e3)])
        ends = [e for e in (interval.lower, interval.upper) if math.isfinite(e)]
        near = np.array([c + k * t for c in ends for t in tols for k in (-2, -1, 0, 1, 2)])
        eigs = np.concatenate([near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf),
                               3.0 * stream(70).standard_normal(64)])
        for tol in (*tols, tols[:, None]):
            blocks = np.broadcast_to(eigs, (len(tols), len(eigs)))
            assert np.array_equal(interval.contains(blocks, tol),
                                  tie_rule_contains(interval, blocks, tol)), tol


class TestFuncCalculus:
    def test_identity_function(self):
        a = gaussian_hermitian(alg1(4), stream(4))
        assert func_calculus(a, lambda t: t).allclose(a, 1e-12)

    def test_sqrt_diag(self):
        a = alg1(2).operator([np.diag([4.0, 9.0])])
        assert np.allclose(psd_sqrt(a).data[0], np.diag([2.0, 3.0]))

    def test_sqrt_square_back(self):
        for seed in range(5):
            g = gaussian_hermitian(alg1(5), stream(5, seed))
            a = g @ g  # PSD
            r = psd_sqrt(a)
            assert operator_norm(r @ r - a) < 1e-9 * (1 + operator_norm(a))

    def test_undefined_value_raises(self):
        a = alg1(2).operator([np.diag([1.0, -4.0])])
        with pytest.raises(DomainError):
            psd_sqrt(a)


def _subspace_intersection_dim(e, f):
    """SVD-based oracle for dim(range(e) & range(f)) on a single block."""
    def basis(p):
        eigs, vecs = np.linalg.eigh(p)
        return vecs[:, eigs > 0.5]

    u, v = basis(e), basis(f)
    if u.shape[1] == 0 or v.shape[1] == 0:
        return 0
    sv = np.linalg.svd(u.conj().T @ v, compute_uv=False)
    return int(np.sum(sv > 1.0 - 1e-8))


class TestProjMeet:
    def _random_projection(self, d, rank, rng):
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        q = np.linalg.qr(g)[0]
        return q @ q.conj().T

    def test_meet_with_itself(self):
        rng = stream(6)
        alg = alg1(5)
        e = check_projection(alg.operator([self._random_projection(5, 2, rng)]))
        assert proj_meet(e, e).allclose(e, 1e-9)

    def test_orthogonal_meet_is_zero(self):
        alg = alg1(2)
        e = check_projection(alg.operator([np.diag([1.0, 0.0])]))
        f = check_projection(alg.operator([np.diag([0.0, 1.0])]))
        assert proj_meet(e, f).entry_max() == 0.0

    def test_rank_matches_svd_oracle(self):
        alg = alg1(7)
        for seed in range(8):
            rng = stream(7, seed)
            be = self._random_projection(7, int(rng.integers(1, 6)), rng)
            bf = self._random_projection(7, int(rng.integers(1, 6)), rng)
            # force a shared direction half the time so the meet is nontrivial
            if seed % 2:
                shared = rng.standard_normal(7) + 1j * rng.standard_normal(7)
                shared /= np.linalg.norm(shared)
                be = np.linalg.qr(np.column_stack([shared, be]))[0][:, :4]
                be = be @ be.conj().T
                bf = np.linalg.qr(np.column_stack([shared, bf]))[0][:, :4]
                bf = bf @ bf.conj().T
            e = check_projection(alg.operator([be]))
            f = check_projection(alg.operator([bf]))
            m = proj_meet(e, f)
            assert m.rank() == _subspace_intersection_dim(be, bf)

    def test_meet_below_both(self):
        rng = stream(8)
        alg = alg1(6)
        e = check_projection(alg.operator([self._random_projection(6, 4, rng)]))
        f = check_projection(alg.operator([self._random_projection(6, 4, rng)]))
        m = proj_meet(e, f)
        assert min_eigenvalue(e - m) > -1e-9
        assert min_eigenvalue(f - m) > -1e-9
        assert proj_meet(f, e).allclose(m, 1e-9)

    def test_trivial_meets_are_read_off_the_ranks(self, monkeypatch):
        # a meet with I is the other operand and a meet with 0 is 0, with no
        # eigensolve; each matches the eigensolved meet within 1e-12
        from ncgl.opalgebra import _meet_blocks

        rng = stream(9)
        alg = alg1(5)
        e = check_projection(alg.operator([self._random_projection(5, 3, rng)]))
        solved = lambda a, b: alg.operator(_meet_blocks(a.stacks[0], b.stacks[0]))
        ident, zero = alg.identity(), alg.zero()
        monkeypatch.setattr(np.linalg, "eigh", None)  # nothing is solved
        assert proj_meet(ident, e) is e and proj_meet(e, ident) is e
        assert proj_meet(e, zero).entry_max() == 0.0 == proj_meet(zero, ident).entry_max()
        monkeypatch.undo()
        for a, b in ((ident, e), (e, ident), (e, zero), (zero, e), (ident, ident)):
            assert proj_meet(a, b).allclose(solved(a, b), 1e-12)

    def test_trivial_meets_are_decided_per_summand(self):
        # on a direct sum each summand is decided on its own: summands with I,
        # with 0 and with neither side trivial, against the eigensolved meet
        from ncgl.opalgebra import _meet_blocks

        rng = stream(10)
        alg = TracialAlgebra((4, 4), (0.5, 0.5))
        proj = lambda rank: alg.operator([self._random_projection(4, rank, rng)
                                          for _ in range(2)])
        es = [alg.identity(), proj(2), alg.zero(), proj(3), proj(3)]
        fs = [proj(2), alg.identity(), proj(3), alg.zero(), proj(3)]
        e, f = direct_sum(es), direct_sum(fs)
        got = proj_meet(e, f)
        want = e.algebra.operator(_meet_blocks(e.stacks[0], f.stacks[0]))
        assert got.allclose(want, 1e-12)
        assert got.summand_ranks == want.summand_ranks
        # the summands decided from the ranks are the operands' own entries
        parts = got.parts(alg)
        assert np.array_equal(parts[0].stacks[0], fs[0].stacks[0])
        assert np.array_equal(parts[1].stacks[0], es[1].stacks[0])
        assert parts[2].entry_max() == parts[3].entry_max() == 0.0


class TestTraceProperties:
    @settings(max_examples=25, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_tracial_and_positive(self, seed):
        alg = TracialAlgebra((3, 2), (1.0, 0.25))
        rng = stream(9, seed)
        x = gaussian_hermitian(alg, rng)
        y = gaussian_hermitian(alg, rng)
        assert abs(trace_pair(x, y) - trace_pair(y, x)) < 1e-10
        assert trace(x.adjoint() @ x) >= -1e-12

    def test_faithful(self):
        alg = TracialAlgebra((3,), (0.5,))
        x = alg.zero()
        assert trace(x.adjoint() @ x) == 0.0
        assert operator_norm(x) <= 1e-8

    @settings(max_examples=25, derandomize=True)
    @given(st.integers(0, 10_000), st.sampled_from([(1.5, 3.0), (2.0, 2.0), (4.0, 4.0 / 3.0), (1.0, math.inf)]))
    def test_hoelder(self, seed, pq):
        p, q = pq
        alg = TracialAlgebra((3, 2), (1.0, 0.5))
        rng = stream(10, seed)
        x = gaussian_hermitian(alg, rng)
        y = gaussian_hermitian(alg, rng)
        lhs = abs(trace(x @ y))
        assert lhs <= schatten_norm(x, p) * schatten_norm(y, q) + 1e-8

    def test_linearity(self):
        alg = TracialAlgebra((2, 3), (1.0, 2.0))
        rng = stream(11)
        x = gaussian_hermitian(alg, rng)
        y = gaussian_hermitian(alg, rng)
        assert trace(x + y * 2.5) == pytest.approx(trace(x) + 2.5 * trace(y))


class TestProjectionType:
    def test_accepts_a_projection_as_itself(self):
        e = alg1(2).operator([np.diag([0.0, 1.0])])
        assert check_projection(e) is e

    def test_rejects_non_idempotent(self):
        with pytest.raises(DomainError):
            check_projection(alg1(2).operator([np.diag([0.5, 1.0])]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            check_projection(alg1(2).operator([np.array([[1.0, 0.3], [0.0, 0.0]])]))

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)


class TestBasisCheck:
    """spectral_projection checks the eigenbasis V of its operator once:
    every entry of V*V - I at most 1e-10/d in each d x d block."""

    @staticmethod
    def _with_defect(defect):
        # column 0 of the cached V scaled so that (V*V)_00 = 1 + defect
        a = gaussian_hermitian(alg1(4), stream(31))
        ((eigs, vecs),), tols = a.spectrum
        vecs = vecs.copy()
        vecs[:, :, 0] *= math.sqrt(1.0 + defect)
        a.__dict__["spectrum"] = (((eigs, vecs),), tols)
        return a

    def test_defect_just_above_the_bound_raises(self):
        a = self._with_defect(1.02e-10 / 4)
        with pytest.raises(DomainError, match="eigenvalues are not within 1e-10 of"):
            spectral_projection(a, Interval.below(0.0))

    def test_defect_just_below_the_bound_passes_the_oracle(self):
        a = self._with_defect(0.98e-10 / 4)
        for interval in (Interval.below(0.0), Interval.at_least(-math.inf)):
            check_projection(spectral_projection(a, interval))

    def test_cuts_are_checked_once_per_eigenbasis(self, monkeypatch):
        a = gaussian_hermitian(RUNS, stream(32))
        a.spectrum  # solved before the count starts
        solves = []
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, lambda *args, **kw: solves.append(args))
        for c in (-1.0, 0.0, 1.0):
            spectral_projection(a, Interval.below(c))
        assert solves == [] and a.basis_ok


# three runs of equal block dimension, with dimension 3 coming back after a break
RUNS = TracialAlgebra((3, 3, 2, 3), (0.5, 1.0, 0.25, 2.0))


def _draw(alg, rng, hermitian=False):
    blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for d in alg.dims]
    return [(b + b.conj().T) / 2 for b in blocks] if hermitian else blocks


def _weight_diagonal(alg):
    """Diagonal of the dense weight matrix W, so that tau(x) = Tr(W x)."""
    return np.repeat(alg.weights, alg.dims)


def _dense_meet(e, f):
    """Projection onto range(e) & range(f) from one dense eigh."""
    n = e.shape[0]
    w, v = np.linalg.eigh(2.0 * np.eye(n) - e - f)
    v = v[:, w < 1e-8]
    return v @ v.conj().T


class TestRunStacks:
    """Run-wise stack storage against the dense block-diagonal matrix."""

    def test_runs_and_block_order(self):
        assert RUNS.runs == ((2, 3), (1, 2), (1, 3))
        blocks = _draw(RUNS, stream(14))
        x = RUNS.operator(blocks)
        assert [s.shape for s in x.stacks] == [(2, 3, 3), (1, 2, 2), (1, 3, 3)]
        assert len(x.data) == 4
        for got, want in zip(x.data, blocks):
            assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            x.data[0][0, 0] = 1.0

    def test_stack_input(self):
        alg = TracialAlgebra((2,) * 4, (0.25,) * 4)
        stack = np.zeros((4, 2, 2), dtype=complex)
        assert alg.operator(stack).stacks[0] is stack
        assert alg.operator(stack).data.shape == (4, 2, 2)
        with pytest.raises(StructureError):
            RUNS.operator(np.zeros((4, 3, 3)))

    def test_arithmetic(self):
        rng = stream(15)
        x, y = (RUNS.operator(_draw(RUNS, rng)) for _ in range(2))
        dx, dy = _dense(x), _dense(y)
        assert np.array_equal(_dense(x + y), dx + dy)
        assert np.array_equal(_dense(x - y * 2.0), dx - 2.0 * dy)
        assert np.array_equal(_dense(x.adjoint()), dx.conj().T)
        assert np.allclose(_dense(x @ y), dx @ dy, atol=1e-12)

    def test_traces_and_norms(self):
        rng = stream(16)
        x, y = (RUNS.operator(_draw(RUNS, rng)) for _ in range(2))
        dx, dy = _dense(x), _dense(y)
        w = _weight_diagonal(RUNS)
        assert trace(x) == pytest.approx(np.sum(w * np.diag(dx)), rel=1e-14)
        assert trace_pair(x, y) == pytest.approx(np.sum(w * np.diag(dx @ dy)), rel=1e-14)
        for p in (1.0, 2.5, 4.0):
            sv = np.linalg.svd(w[:, None] ** (1.0 / p) * dx, compute_uv=False)
            assert schatten_norm(x, p) == pytest.approx(np.sum(sv**p) ** (1.0 / p),
                                                        rel=1e-14)
        assert schatten_norm(x, math.inf) == pytest.approx(
            np.linalg.svd(dx, compute_uv=False).max(), rel=1e-14)

    @pytest.mark.parametrize("interval", [Interval.below(0.0), Interval(-1.0, 1.0)])
    def test_spectral_projection(self, interval):
        a = RUNS.operator(_draw(RUNS, stream(17), hermitian=True))
        ref = _dense_calculus(a, lambda t: interval.contains(t, 0.0).astype(float))
        assert np.abs(_dense(spectral_projection(a, interval)) - ref).max() < 1e-10

    def test_proj_meet(self):
        rng = stream(18)
        pe, pf = [], []
        for d in RUNS.dims:
            # two subspaces of dimension d - 1 sharing one random direction
            shared = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
            for out in (pe, pf):
                g = rng.standard_normal((d, d - 2)) + 1j * rng.standard_normal((d, d - 2))
                q = np.linalg.qr(np.column_stack([shared, g]))[0]
                out.append(q @ q.conj().T)
        pe[2], pf[2] = np.diag([1.0, 0.0]), np.diag([1.0, 1.0])  # the exact path
        e, f = check_projection(RUNS.operator(pe)), check_projection(RUNS.operator(pf))
        m = proj_meet(e, f)
        assert np.abs(_dense(m) - _dense_meet(_dense(e), _dense(f))).max() < 1e-9
        assert m.rank() == 4
        assert np.array_equal(m.data[2], np.diag([1.0, 0.0]))
        # exactly diagonal pairs: exact 0/1 entries meet bitwise in the
        # entrywise minimum; entries that are 1 only to rounding (as Cuculescu
        # projections can have) meet in a projection within 1e-15 of it
        def diagonal(v):
            return RUNS.operator([np.diag(v[:d]) for d in RUNS.dims])

        for top in (1.0, 1.0 - 1.1e-16 + 7e-21j):
            e = check_projection(diagonal([top, top, 0.0]))
            f = check_projection(diagonal([top, 0.0, top]))
            got = _dense(proj_meet(e, f))
            want = _dense(diagonal([top.real, 0.0, 0.0]))
            if top == 1.0:
                assert np.array_equal(got, want)
            assert np.abs(got - want).max() < 1e-15
            assert np.abs(got @ got - got).max() < 1e-15

    def test_derived_hermitian_flag(self):
        x = RUNS.operator(_draw(RUNS, stream(19)))
        assert not x.hermitian
        s = x + x.adjoint()
        assert s.hermitian
        assert isinstance(trace(s), float)
        assert trace(s) == pytest.approx(2.0 * trace(x).real)

    def test_hermitian_tolerance_is_per_block(self):
        blocks = _draw(RUNS, stream(20), hermitian=True)
        blocks[0] = 1e6 * blocks[0]
        blocks[2] = blocks[2] + 1e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert not RUNS.operator(blocks).hermitian
        blocks[2] = (blocks[2] + blocks[2].conj().T) / 2
        assert RUNS.operator(blocks).hermitian

    @pytest.mark.parametrize("exact", [True, False], ids=["symmetrized", "near"])
    def test_whole_stack_kernels_are_batch_independent(self, exact):
        # 3 * 256 + 5 blocks of Gaussian Hermitian, exactly diagonal and zero
        # kinds; the kernels run once on the whole stack, which must give the
        # bits of the same calls on runs of at most 256 consecutive blocks
        n, size = 773, 256
        alg = TracialAlgebra((4,) * n, (1.0 / n,) * n)
        rng = stream(21)
        kinds = ("dense", "diagonal", "dense", "zero")

        def blocks():
            out = np.stack([_block(kinds[i % 4], 4, rng) for i in range(n)]).astype(complex)
            if not exact:
                # one 1e-14 asymmetry per slice: the whole operator and each
                # slice are Hermitian within the tolerance, not exactly
                out[::size, 0, 1] += 1e-14
            return out

        x, y = blocks(), blocks()
        parts = [slice(i, min(i + size, n)) for i in range(0, n, size)]

        def op(stack, part=slice(None)):
            a = TracialAlgebra(alg.dims[part], alg.weights[part]).operator(stack[part])
            return a.symmetrized() if exact else a

        def results(part=slice(None)):
            a, b = op(x, part), op(y, part)
            assert a.exactly_hermitian == exact and a.hermitian
            (eigs, vecs), = a.spectrum[0]
            cut_a = spectral_projection(a, Interval.below(0.2))
            cut_b = spectral_projection(b, Interval.below(0.2))
            return (a.eigenvalues[0], eigs, vecs, cut_a.stacks[0],
                    func_calculus(a, np.exp).stacks[0], proj_meet(cut_a, cut_b).stacks[0],
                    np.array([a.hermitian, a.basis_ok]))

        whole = results()
        sliced = [np.concatenate(r) for r in zip(*map(results, parts))]
        assert whole[-1].all() and sliced[-1].all()
        for got, want in zip(sliced[:-1], whole[:-1]):
            assert _same_bits(got, want)


class TestAbsSpectralTrace:
    """tau(I_[1, inf)(|x|)) counted from singular values, against the cut of |x|."""

    @staticmethod
    def _diagonal(values):
        return diagonal_operator(TracialAlgebra((2, 2, 2), (0.5, 0.25, 0.25)), values)

    def test_tie_band_is_the_whole_operators(self):
        # block 0 holds the norm 1e3, so the tie tolerance is 1e-10 (1 + 1e3)
        # and 1 - 1e-8 in block 1 sits on the endpoint; with a norm of 1 it
        # does not
        at_least_one = Interval.at_least(1.0)
        for top, expected in ((1e3, 1.0), (0.5, 0.25)):
            x = self._diagonal([[top, -0.25], [1.0 - 1e-8, 0.75], [-1.0, 0.5]])
            cut = spectral_projection(func_calculus(x, np.abs), at_least_one)
            assert abs_spectral_trace(x, at_least_one) == trace(cut) == expected

    def test_counts_singular_values_of_a_non_hermitian_operator(self):
        x = alg1(2, 0.5).operator([np.array([[0.0, 2.0], [0.0, 0.0]])])
        assert not x.hermitian
        assert abs_spectral_trace(x, Interval.at_least(1.0)) == 0.5
        assert abs_spectral_trace(x, Interval.below(1.0)) == 0.5


class TestSymmetrized:
    @pytest.mark.parametrize("seed", range(5))
    def test_symmetrized_is_hermitian_to_the_bit(self, seed, monkeypatch):
        import ncgl.opalgebra as oa

        rng = stream(23, seed)
        for alg in (RUNS, TracialAlgebra((4,) * 6, (0.5,) * 6)):
            x = alg.operator(_draw(alg, rng))
            s = x.symmetrized()
            # every entry equals the conjugate of its transpose exactly (a
            # zero imaginary part may differ from it in sign only)
            for a, b in zip(s.stacks, s.adjoint().stacks):
                assert np.array_equal(a, b)
                assert np.array_equal(a.real.view(np.uint64), b.real.view(np.uint64))
            assert not any(oa._non_hermitian_blocks(a).any() for a in s.stacks)
            # so the flag is set without measuring it
            monkeypatch.setattr(oa, "_non_hermitian_blocks", None)
            assert s.hermitian
            monkeypatch.undo()


class TestSpectrumCache:
    def test_one_solve_of_each_kind_per_run(self, monkeypatch):
        rng = stream(24)
        x = RUNS.operator(_draw(RUNS, rng))
        a = (x.adjoint() @ x).symmetrized()  # PSD, with no diagonal block
        own = {"eigvalsh": 0, "eigh": 0}
        for name in own:
            solve = getattr(np.linalg, name)

            def counted(m, *args, _solve=solve, _name=name, **kwargs):
                # only solves of a's own stacks count
                own[_name] += any(m.shape == s.shape and np.array_equal(m, s)
                                  for s in a.stacks)
                return _solve(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        operator_norm(a)
        min_eigenvalue(a)
        schatten_norm(a, 3.0)
        spectral_projection(a, Interval.below(1.0))
        spectral_projection(a, Interval.at_least(1.0))
        psd_sqrt(a)
        func_calculus(a, np.exp)
        assert own == {"eigvalsh": len(RUNS.runs), "eigh": len(RUNS.runs)}

    def test_cached_arrays_reject_writes(self):
        rng = stream(25)
        a = RUNS.operator(_draw(RUNS, rng, hermitian=True))
        # a direct sum of two trials carries its tie tolerances as an array
        batch = direct_sum([alg1(3).operator(_draw(alg1(3), rng, hermitian=True))
                            for _ in range(2)])
        arrays = [*a.eigenvalues, *batch.spectrum[1]]
        arrays += [m for op in (a, batch) for run in op.spectrum[0] for m in run]
        for m in arrays:
            with pytest.raises(ValueError):
                m.flat[0] = 0.0

    def test_exact_diagonal_mask_matches_entrywise_check(self):
        from ncgl.opalgebra import _exact_diagonal

        rng = stream(26)
        for d in (1, 2, 5):
            s = np.zeros((12, d, d), dtype=complex)
            s[:, range(d), range(d)] = rng.standard_normal((12, d))
            # one entry per block made nonzero; off the diagonal when i != j
            s[np.arange(12), rng.integers(0, d, 12), rng.integers(0, d, 12)] += 1j
            expected = [not np.count_nonzero(b - np.diag(np.diag(b))) for b in s]
            assert _exact_diagonal(s).tolist() == expected
            assert 0 < sum(expected) < 12 or d == 1


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _block(kind, d, rng):
    if kind == "zero":
        return np.zeros((d, d))
    if kind == "repeated":
        return np.diag(np.resize([0.5, 0.5, -1.25], d))
    if kind == "diagonal":
        return np.diag(rng.standard_normal(d))
    return _draw(alg1(d), rng, hermitian=True)[0]


class TestExactHermitianSolves:
    """The exact solve paths against the solves they replaced, LAPACK on the
    Hermitian part 0.5 (s + s*) of every block (tests/helpers.py): an exactly
    Hermitian operator is solved as it is, and an exactly diagonal block is
    read off its diagonal."""

    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_symmetrized_operators_solve_as_before(self, family):
        alg = triple_family(family).algebra
        a = alg.operator(_draw(alg, stream(27, family))).symmetrized()
        assert a.exactly_hermitian
        for new, old in zip(a.eigenvalues, reference_eigenvalues(a)):
            assert _same_bits(new, old)
        for (eigs, vecs), (old_eigs, old_vecs) in zip(a.spectrum[0], reference_spectrum(a)):
            assert _same_bits(eigs, old_eigs) and _same_bits(vecs, old_vecs)

    @pytest.mark.parametrize("dims, kinds", [
        ((3, 3, 3), ("zero", "repeated", "diagonal")),
        ((3, 3, 3, 3), ("dense", "zero", "dense", "repeated")),
        ((3, 3), ("dense", "dense")),
        ((1, 1, 1), ("zero", "diagonal", "repeated")),
        ((1, 2, 2, 3, 3), ("diagonal", "repeated", "dense", "zero", "dense")),
    ], ids=["all", "some", "none", "1x1", "runs"])
    def test_diagonal_blocks_give_the_lapack_values(self, dims, kinds, monkeypatch):
        rng = stream(28, len(dims))
        alg = TracialAlgebra(dims, (1.0,) * len(dims))
        a = alg.operator([_block(kind, d, rng) for kind, d in zip(kinds, dims)])
        old = reference_eigenvalues(a)
        solves = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda s: solves.append(len(s)) or eigvalsh(s))
        assert a.exactly_hermitian
        assert all(_same_bits(new, o) for new, o in zip(a.eigenvalues, old))
        # LAPACK sees only the runs with a block that is not exactly diagonal
        ends = np.cumsum([n for n, _ in alg.runs])
        assert solves == [n for (n, _), end in zip(alg.runs, ends)
                          if "dense" in kinds[end - n:end]]

    def test_hermitian_within_the_tolerance_solves_its_hermitian_part(self):
        a = gaussian_hermitian(RUNS, stream(29))
        s = [b.copy() for b in a.stacks]
        s[0][1, 0, 2] += 1e-14
        near = Operator(RUNS, tuple(s))
        assert not near.exactly_hermitian and near.hermitian
        assert all(_same_bits(new, old)
                   for new, old in zip(near.eigenvalues, reference_eigenvalues(near)))
        for (eigs, vecs), (old_eigs, old_vecs) in zip(near.spectrum[0],
                                                      reference_spectrum(near)):
            assert _same_bits(eigs, old_eigs) and _same_bits(vecs, old_vecs)

    def test_signed_zero_pairs_count_as_equal(self):
        # the seed-0 schur-reversed-l trial-0 matrix m*a: its zeros come in
        # +-0 pairs, so it is solved as it is, which LAPACK rounds a little
        # differently from its Hermitian part
        from ncgl.schur import reversed_l_pattern

        rng = stream(0, 11, 0)
        pattern = reversed_l_pattern(rng.integers(0, 2, size=7), rng.integers(0, 2, size=8))
        rng = stream(0, 5501)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = (g + g.conj().T) / 2.0
        ma = pattern.entries * a
        assert (np.signbit(ma.real) != np.signbit(ma.real.T)).any()
        op = alg1(8).operator([ma])
        assert op.exactly_hermitian
        (old,) = reference_eigenvalues(op)
        assert np.abs(op.eigenvalues[0] - old).max() <= 1e-15 * np.linalg.norm(a, 2)

    def test_non_hermitian_operators_are_rejected(self):
        a = RUNS.operator(_draw(RUNS, stream(30)))
        assert not a.exactly_hermitian and not a.hermitian
        with pytest.raises(DomainError):
            min_eigenvalue(a)
        with pytest.raises(DomainError):
            a.spectrum


class TestGaussianDraws:
    """One draw per run of blocks against the per-block draws it replaced: the
    same numbers from the stream, in the same order, to the bit."""

    ALGEBRAS = [triple_family(i).algebra for i in range(len(FAMILY_TEMPLATES))] + [
        RUNS, TracialAlgebra((1, 2, 2, 1, 3), (0.1, 0.2, 0.3, 0.15, 0.25))]

    @pytest.mark.parametrize("index", range(len(ALGEBRAS)))
    def test_draws_match_the_per_block_draws(self, index):
        alg = self.ALGEBRAS[index]
        for seed in range(50):
            got, want = stream(seed, 17, index), stream(seed, 17, index)
            for scale in (None, 1.0, 0.37):
                if scale is None:
                    a, b = gaussian_hermitian(alg, got), per_block_gaussian_hermitian(alg, want)
                else:
                    a, b = gaussian_psd(alg, got, scale), per_block_gaussian_psd(alg, want, scale)
                assert [s.shape for s in a.stacks] == [s.shape for s in b.stacks]
                assert all(x.tobytes() == y.tobytes() for x, y in zip(a.stacks, b.stacks))
            # both took the same count of numbers from the stream
            assert got.standard_normal() == want.standard_normal()
