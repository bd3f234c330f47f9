import math

import numpy as np
import pytest

from ncgl import schur
from ncgl.cli import ExperimentConfig, run
from ncgl.errors import DomainError, StructureError
from ncgl.instances import stream
from ncgl.opalgebra import TracialAlgebra
from ncgl.schur import (
    Pattern,
    interlace_pattern,
    interlace_t,
    matrix_p_norm,
    reversed_l_bound,
    reversed_l_pattern,
    schur_multiply,
    _norm_quotient,
    _ratio_quotient,
    schur_norm_lower,
    triangular_pattern,
    triangular_projection,
    verify_reversed_L,
)
from helpers import eager_schur_norm_lower


def _random_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _perturbed_quotient(x, p, h):
    """(||x + hE||_p - ||x||_p)/h over E = e_i e_j^T (real part) and
    i e_i e_j^T (imaginary part), from one batched SVD of 2 n^2 perturbed
    copies: the reference for the closed-form quotient."""
    n = x.shape[0]
    stack = np.repeat(x[None], 2 * n * n, axis=0)
    for t in range(n * n):
        stack[2 * t, t // n, t % n] += h
        stack[2 * t + 1, t // n, t % n] += 1j * h
    vals = np.sum(np.linalg.svd(stack, compute_uv=False) ** p, axis=1) ** (1.0 / p)
    diff = (vals - matrix_p_norm(x, p)).reshape(n, n, 2) / h
    return diff[..., 0] + 1j * diff[..., 1]


def _max_rel_dev(got, ref):
    return max(np.abs(got.real - ref.real).max(),
               np.abs(got.imag - ref.imag).max()) / np.abs(ref).max()


class TestSchurMultiply:
    def test_all_ones(self):
        a = _random_matrix(4, stream(120))
        assert np.array_equal(schur_multiply(np.ones((4, 4)), a), a)

    def test_zero_pattern(self):
        a = _random_matrix(4, stream(121))
        assert np.abs(schur_multiply(np.zeros((4, 4)), a)).max() == 0.0

    def test_duality_identity(self):
        rng = stream(122)
        a, b = _random_matrix(5, rng), _random_matrix(5, rng)
        m = (rng.random((5, 5)) < 0.5).astype(float)
        lhs = np.trace(schur_multiply(m, a) @ b)
        rhs = np.trace(a @ schur_multiply(m.T, b))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(StructureError):
            schur_multiply(np.ones((3, 3)), np.ones((4, 4)))


class TestTriangularProjection:
    def test_two_by_two(self):
        out = triangular_projection(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, np.array([[1.0, 2.0], [0.0, 4.0]]))

    def test_fixed_point(self):
        a = np.triu(_random_matrix(5, stream(123)))
        assert np.array_equal(triangular_projection(a), a)

    def test_frobenius_contraction_attained(self):
        # at p = 2 the projection is a contraction, with equality on
        # upper-triangular input
        rng = stream(124)
        a = _random_matrix(6, rng)
        assert matrix_p_norm(triangular_projection(a), 2) <= matrix_p_norm(a, 2)
        u = np.triu(a)
        assert matrix_p_norm(triangular_projection(u), 2) == \
            pytest.approx(matrix_p_norm(u, 2))

    def test_agrees_with_pattern_multiplier(self):
        a = _random_matrix(7, stream(125))
        assert np.array_equal(triangular_projection(a),
                              schur_multiply(triangular_pattern(7), a))


class TestInterlace:
    def test_smallest_case(self):
        out = interlace_t(np.array([[3.5]]))
        assert np.array_equal(out, np.array([[0.0, 3.5], [0.0, 0.0]]))

    def test_norm_preservation(self):
        a = _random_matrix(4, stream(126))
        for p in (1.0, 2.0, 4.0, math.inf):
            assert matrix_p_norm(interlace_t(a), p) == pytest.approx(
                matrix_p_norm(a, p), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_key_identity_exact(self, n):
        a = _random_matrix(n, stream(127, n))
        m = interlace_pattern(2 * n)
        assert np.array_equal(schur_multiply(m, interlace_t(a)),
                              interlace_t(triangular_projection(a)))

    def test_interlace_pattern_is_reversed_l(self):
        assert interlace_pattern(8).tag == "reversed-L"


class TestPatternValidation:
    def test_reversed_l_structure_enforced(self):
        bad = np.ones((3, 3))
        bad[0, 2] = 0.0  # breaks the hook structure
        with pytest.raises(StructureError):
            Pattern(bad, "reversed-L")

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            Pattern(0.5 * np.ones((2, 2)))

    def test_reversed_l_builder(self):
        pat = reversed_l_pattern([1, 0, 1], [0, 1, 1, 0])
        e = pat.entries
        assert e[0, 1] == e[1, 0] == 1.0  # m_2
        assert e[0, 2] == e[2, 1] == 0.0  # m_3
        assert e[3, 0] == e[1, 3] == 1.0  # m_4
        assert list(np.diag(e)) == [0.0, 1.0, 1.0, 0.0]


class TestMatrixPNorm:
    def test_large_p_does_not_overflow(self):
        # 999^1100 is far beyond the float range
        p = 1100.0
        closed = 999.0 * (1.0 + (998.0 / 999.0) ** p) ** (1.0 / p)
        assert matrix_p_norm(np.diag([999.0, -998.0j, 1.0]), p) == \
            pytest.approx(closed, rel=1e-12)
        assert matrix_p_norm(np.zeros((2, 2)), p) == 0.0

    @staticmethod
    def _svd_p_norm(a, p):
        """The SVD-and-scale form matrix_p_norm had before it became
        schatten_norm on one block: the reference."""
        sv = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
        top = float(sv.max()) if sv.size else 0.0
        if p == math.inf or top == 0.0:
            return top
        return top * float(np.sum((sv / top) ** p) ** (1.0 / p))

    @pytest.mark.parametrize("p", [1.0, 3.0, 16.0, math.inf])
    def test_matches_the_svd_form(self, p):
        for seed in range(20):
            rng = stream(139, seed)
            a = _random_matrix(int(rng.integers(1, 13)), rng)
            assert matrix_p_norm(a, p) == pytest.approx(
                self._svd_p_norm(a, p), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 3.0, 16.0, math.inf])
    def test_near_hermitian_takes_the_eigenvalue_path(self, p):
        for seed in range(20):
            rng = stream(140, seed)
            n = int(rng.integers(1, 13))
            g = _random_matrix(n, rng)
            a = (g + g.conj().T) / 2.0 + 1e-13 * _random_matrix(n, rng)
            assert TracialAlgebra((n,), (1.0,)).operator(a[None]).hermitian
            assert matrix_p_norm(a, p) == pytest.approx(
                self._svd_p_norm(a, p), rel=1e-12, abs=0.0)


class TestNormLowerBounds:
    def test_all_ones_is_exactly_one(self):
        assert schur_norm_lower(np.ones((5, 5)), 3.0, budget=4,
                                restarts=1) == pytest.approx(1.0)

    def test_zero_pattern_is_zero(self):
        # m*a = 0 has no positive singular value for the closed-form quotient
        assert schur_norm_lower(np.zeros((4, 4)), 3.0, budget=4, restarts=1) == 0.0

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_diagonal_pattern_at_most_one(self, p):
        # m*a has exactly zero singular values, where phi' (p < 2) or phi''
        # (p < 4) of the closed-form quotient is infinite
        rng = stream(128)
        diag = np.diag((rng.random(6) < 0.5).astype(float))
        lb = schur_norm_lower(diag, p, budget=8, restarts=2)
        assert math.isfinite(lb) and lb <= 1.0 + 1e-9

    def test_triangular_growth_in_p(self):
        pat = triangular_pattern(12)
        prev = None
        prev_val = 0.0
        for p in (4.0, 8.0, 16.0):
            val, arg = schur_norm_lower(pat, p, budget=12, restarts=2,
                                        starts=[prev] if prev is not None else None,
                                        return_argmax=True)
            assert val >= prev_val - 1e-9
            assert val <= reversed_l_bound(p)
            prev, prev_val = arg, val
        assert prev_val > 1.2  # really grows past the p = 2 value

    def test_localization_monotone_in_dimension(self):
        pat_small = triangular_pattern(6)
        pat_big = triangular_pattern(12)
        lb_small = schur_norm_lower(pat_small, 4.0, budget=12, restarts=2)
        lb_big = schur_norm_lower(pat_big, 4.0, budget=12, restarts=2)
        assert lb_big >= lb_small - 5e-3  # optimization noise allowance

    def test_duality_consistency(self):
        # neither lower bound may exceed the theorem's upper bound at the
        # other exponent (both are below the p >= 2 constant)
        rng = stream(129)
        pat = reversed_l_pattern(rng.integers(0, 2, size=5),
                                 rng.integers(0, 2, size=6))
        for p in (3.0, 4.0):
            q = p / (p - 1.0)
            ub = reversed_l_bound(p)
            assert schur_norm_lower(pat, p, budget=8, restarts=2) <= ub
            assert schur_norm_lower(pat, q, budget=8, restarts=2) <= ub

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            schur_norm_lower(np.ones((3, 3)), 4.0, budget=0)


class TestClosedFormQuotient:
    @pytest.mark.parametrize("n", [5, 16])
    @pytest.mark.parametrize("p", [4.0 / 3.0, 3.0, 4.0, 16.0])
    def test_matches_perturbed_copies(self, n, p):
        x = _random_matrix(n, stream(131, n))
        x /= np.linalg.norm(x)
        norm, quotient = _norm_quotient(x, p)
        assert norm == pytest.approx(matrix_p_norm(x, p), rel=1e-13)
        # the first-order gradient alone is about 1e-6 away
        assert _max_rel_dev(quotient(1e-6), _perturbed_quotient(x, p, 1e-6)) <= 1e-7

    def test_ratio_quotient_rule(self):
        m = triangular_pattern(5).entries
        a = _random_matrix(5, stream(132))
        a /= np.linalg.norm(a)
        p, h = 3.0, 1e-6  # the step 1e-6 ||a||_2 of the ascent
        num, den = matrix_p_norm(m * a, p), matrix_p_norm(a, p)
        ref = (m * _perturbed_quotient(m * a, p, h) * den
               - num * _perturbed_quotient(a, p, h)) / den**2
        ratio, quotient = _ratio_quotient(m, a, p)
        assert _max_rel_dev(quotient(), ref) <= 1e-7
        assert ratio == pytest.approx(num / den, rel=1e-14)


class TestDeferredQuotient:
    """The ascent forms a quotient only where it takes a step; every value
    and argmax must be those of the ascent that formed it for every
    candidate."""

    @staticmethod
    def _assert_same(m, p, **kw):
        val, arg = schur_norm_lower(m, p, return_argmax=True, **kw)
        ref_val, ref_arg = eager_schur_norm_lower(m, p, **kw)
        assert val == ref_val
        assert arg.tobytes() == ref_arg.tobytes()
        return arg

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_triangular_warm_started_sweep(self, n):
        # as cli._suite_schur_norms runs it: each p starts from the last argmax
        prev = None
        for p in (1.5, 3.0, 4.0, 8.0, 16.0):
            prev = self._assert_same(triangular_pattern(n), p, budget=20, restarts=2,
                                     starts=[prev] if prev is not None else None)

    def test_seeded_reversed_l(self):
        rng = stream(133)
        pat = reversed_l_pattern(rng.integers(0, 2, size=9), rng.integers(0, 2, size=10))
        for p in (1.5, 4.0):
            self._assert_same(pat, p, budget=20, restarts=2, seed=5)

    def test_zero_pattern(self):
        self._assert_same(np.zeros((4, 4)), 3.0, budget=4, restarts=1)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_diagonal_pattern_with_zero_singular_values(self, p):
        rng = stream(128)
        diag = np.diag((rng.random(6) < 0.5).astype(float))
        self._assert_same(diag, p, budget=8, restarts=2)

    def test_work_counts_of_the_schur_ascent_pass(self, monkeypatch):
        # perfbench's schur-ascent pass at seed 0: two SVDs per ratio (231
        # ratios), but a quotient pair only for the 11 starts and the 123
        # accepted iterates that the budget leaves a further step
        svds, quotients = [], []
        svd, norm_quotient = np.linalg.svd, schur._norm_quotient

        def counted_svd(*args, **kwargs):
            svds.append(1)
            return svd(*args, **kwargs)

        def counted_norm_quotient(x, p):
            norm, quotient = norm_quotient(x, p)

            def counted(h):
                quotients.append(1)
                return quotient(h)
            return norm, counted

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(schur, "_norm_quotient", counted_norm_quotient)
        rows, _ = run(ExperimentConfig(suite="schur-norms", trials=1, seed=0,
                                       p_grid=(4.0, 8.0, 16.0),
                                       dims={"dim": 16, "budget": 20}))
        assert len(rows) == 3
        assert len(svds) == 462
        assert len(quotients) == 2 * 134


class TestReversedLTheorem:
    def test_all_ones_identity_trivial(self):
        pat = reversed_l_pattern([1] * 7, [1] * 8)
        rep = verify_reversed_L(pat, 4.0, trials=5, seed=0)
        assert rep.passed
        assert rep.meta["identity_dev"] < 1e-14

    def test_random_patterns_pass(self):
        rng = stream(130)
        for seed in range(5):
            pat = reversed_l_pattern(rng.integers(0, 2, size=7),
                                     rng.integers(0, 2, size=8))
            rep = verify_reversed_L(pat, 4.0, trials=20, seed=seed)
            assert rep.passed
            assert rep.meta["identity_dev"] < 1e-12

    def test_non_reversed_l_rejected(self):
        with pytest.raises(DomainError):
            verify_reversed_L(triangular_pattern(4), 4.0, trials=1)

    def test_identity_perfectly_reconstructs(self):
        # with every hook sign +1 the partner equals the martingale itself
        pat = reversed_l_pattern([1] * 5, [0, 1, 0, 1, 0, 1])
        rep = verify_reversed_L(pat, 4.0, trials=10, seed=3)
        assert rep.passed
