import numpy as np
import pytest

from ncgl.errors import DomainError, StructureError
from ncgl.filtration import (
    cond_exp,
    conditioned_square_function,
    diagonal_p_function,
    lift_with_matrix_factor,
    make_filtration,
    martingale_from_diffs,
    martingale_from_final,
    rademacher_operator,
    sign_matrix_filtration,
    square_function,
    square_functions,
)
from ncgl.instances import gaussian_hermitian, stream
from ncgl.opalgebra import (
    func_calculus,
    min_eigenvalue,
    schatten_norm,
    trace,
    trace_pair,
)

import helpers
from helpers import ce_oracle, validate_filtration

FAMILIES = [
    ("corner", {"dim": 4}),
    ("rademacher", {"depth": 3}),
    ("rademacher", {"depth": 2, "matrix_dim": 2}),
    ("matrix_corner", {"outer_dim": 2, "dim": 3}),
    ("rademacher_corner", {"depth": 2, "matrix_dim": 2}),
    ("trivial_full", {"dims": (3,)}),
]


@pytest.fixture(scope="module", params=range(len(FAMILIES)), ids=lambda i: FAMILIES[i][0] + str(i))
def family(request):
    kind, params = FAMILIES[request.param]
    return make_filtration(kind, **params)


# every family, every family lifted by a full M_2 factor, and every one-block
# family under a depth-2 sign layer and a full M_2 factor
WRAPPED = ([("", kind, params) for kind, params in FAMILIES]
           + [("lift", kind, params) for kind, params in FAMILIES]
           + [("sign_matrix", kind, params) for kind, params in FAMILIES
              if make_filtration(kind, **params).algebra.n_blocks == 1])


@pytest.fixture(scope="module", params=range(len(WRAPPED)),
                ids=lambda i: "-".join(filter(None, WRAPPED[i][:2])) + str(i))
def any_family(request):
    wrap, kind, params = WRAPPED[request.param]
    base = make_filtration(kind, **params)
    if wrap == "lift":
        return lift_with_matrix_factor(base, 2)
    if wrap == "sign_matrix":
        return sign_matrix_filtration(2, 2, base)
    return base


class TestConditionalExpectationAxioms:
    def test_axioms_on_samples(self, any_family):
        dev = validate_filtration(any_family, stream(20), samples=5)
        for key, val in dev.items():
            assert val < 1e-9, (any_family.label, key, val)

    def test_lp_contraction(self, family):
        rng = stream(21)
        for p in (1.0, 2.0, 4.0, np.inf):
            x = gaussian_hermitian(family.algebra, rng)
            for n in range(family.n_levels):
                assert schatten_norm(cond_exp(family, n, x), p) \
                    <= schatten_norm(x, p) + 1e-8

    def test_jensen(self, family):
        rng = stream(22)
        x = gaussian_hermitian(family.algebra, rng)
        for n in range(family.n_levels):
            ex = cond_exp(family, n, x)
            gap = cond_exp(family, n, x @ x) - ex @ ex
            assert min_eigenvalue(gap.symmetrized()) > -1e-9


class TestCornerFormula:
    def test_level_one_example(self):
        filt = make_filtration("corner", dim=3)
        a = filt.algebra.operator([np.array([[1.0, 2, 3], [4, 5, 6], [7, 8, 9]])])
        expected = np.diag([1.0, 7.0, 7.0])
        assert np.allclose(cond_exp(filt, 1, a).data[0], expected)

    def test_level_zero_example(self):
        filt = make_filtration("corner", dim=3)
        a = filt.algebra.operator([np.array([[1.0, 2, 3], [4, 5, 6], [7, 8, 9]])])
        assert np.allclose(cond_exp(filt, 0, a).data[0], 5.0 * np.eye(3))

    def test_top_level_is_identity(self):
        filt = make_filtration("corner", dim=3)
        x = gaussian_hermitian(filt.algebra, stream(23))
        assert cond_exp(filt, 3, x).allclose(x, 0.0)

    def test_level_out_of_range(self):
        filt = make_filtration("corner", dim=3)
        x = filt.algebra.identity()
        with pytest.raises(DomainError):
            cond_exp(filt, 4, x)

    @pytest.mark.parametrize("kind, params, key", [
        ("rademacher", {"depth": 2, "matrix_dimm": 3}, "matrix_dimm"),
        ("corner", {"dim": 3, "weight": 2.0}, "weight"),
    ])
    def test_unread_keyword_rejected(self, kind, params, key):
        # a misspelled or unread keyword would silently build another instance
        with pytest.raises(DomainError, match=key):
            make_filtration(kind, **params)

    def test_minus_one_aliases_zero(self):
        filt = make_filtration("corner", dim=3)
        x = gaussian_hermitian(filt.algebra, stream(24))
        assert cond_exp(filt, -1, x).allclose(cond_exp(filt, 0, x), 0.0)


class TestRademacherFamily:
    def test_block_count_and_weights(self):
        filt = make_filtration("rademacher", depth=3)
        assert filt.algebra.n_blocks == 8
        assert all(w == pytest.approx(1 / 8) for w in filt.algebra.weights)

    # (filtration, number of leading signs that level n conditions on)
    SIGN_LEVELS = {
        "rademacher-3": (lambda: make_filtration("rademacher", depth=3),
                         lambda n: n),
        "rademacher-2xM2": (
            lambda: make_filtration("rademacher", depth=2, matrix_dim=2),
            lambda n: n),
        "rademacher_corner-2xM2": (
            lambda: make_filtration("rademacher_corner", depth=2, matrix_dim=2),
            lambda n: min(n, 2)),
        "rademacher_corner-3xM3": (
            lambda: make_filtration("rademacher_corner", depth=3, matrix_dim=3),
            lambda n: min(n, 3)),
        "sign_matrix-2x2xcorner2": (
            lambda: sign_matrix_filtration(2, 2, make_filtration("corner", dim=2)),
            lambda n: n + 1),
        "lift-M2xrademacher-2xM2": (
            lambda: lift_with_matrix_factor(
                make_filtration("rademacher", depth=2, matrix_dim=2), 2),
            lambda n: n),
    }

    @pytest.mark.parametrize("name", sorted(SIGN_LEVELS))
    def test_levels_average_blocks_sharing_leading_signs(self, name):
        # classical conditional expectation oracle on the sign algebra: on a
        # block-scalar operator c_b I, E_n is the weighted mean of c over the
        # blocks whose first m signs agree, read from the signs themselves
        build, leading = self.SIGN_LEVELS[name]
        filt = build()
        alg = filt.algebra
        signs = filt.signs
        assert not signs.flags.writeable
        w = np.asarray(alg.weights)
        c = stream(25).uniform(1.0, 2.0, size=alg.n_blocks)
        eye = np.eye(alg.dims[0])
        x = alg.operator(c[:, None, None] * eye)
        for n in range(filt.n_levels):
            m = leading(n)
            got = cond_exp(filt, n, x).stacks[0]
            for b in range(alg.n_blocks):
                same = (signs[:, :m] == signs[b, :m]).all(axis=1)
                expected = (w[same] * c[same]).sum() / w[same].sum()
                np.testing.assert_allclose(got[b], expected * eye,
                                           rtol=1e-14, atol=0.0,
                                           err_msg=f"level {n}, block {b}")

    def test_sign_operator_squares_to_identity(self):
        filt = make_filtration("rademacher", depth=3, matrix_dim=2)
        eps = rademacher_operator(filt, 1)
        assert (eps @ eps).allclose(filt.algebra.identity(), 0.0)
        assert trace(eps) == pytest.approx(0.0)

    def test_sign_mean_zero_before_its_level(self):
        filt = make_filtration("rademacher", depth=3)
        eps = rademacher_operator(filt, 2)
        assert cond_exp(filt, 2, eps).entry_max() < 1e-12
        assert cond_exp(filt, 3, eps).allclose(eps, 0.0)


class TestOracle:
    def test_matches_structured_map(self, any_family):
        rng = stream(26)
        for _ in range(25):
            n = int(rng.integers(0, any_family.n_levels))
            x = gaussian_hermitian(any_family.algebra, rng)
            assert (cond_exp(any_family, n, x)
                    - ce_oracle(any_family, n, x)).entry_max() < 1e-9

    def test_trivial_level_returns_mean(self):
        filt = make_filtration("trivial_full", dims=(3,))
        x = gaussian_hermitian(filt.algebra, stream(27))
        expected = filt.algebra.identity() * (trace(x) / 3.0)
        assert (ce_oracle(filt, 0, x) - expected).entry_max() < 1e-12

    def test_full_level_returns_input(self):
        filt = make_filtration("trivial_full", dims=(3,))
        x = gaussian_hermitian(filt.algebra, stream(28))
        assert (ce_oracle(filt, 1, x) - x).entry_max() < 1e-12

    @pytest.mark.parametrize("dims", [(4, 4), (3,)])
    def test_rejects_operator_on_other_algebra(self, dims):
        from ncgl.opalgebra import TracialAlgebra

        filt = make_filtration("corner", dim=4)
        x = gaussian_hermitian(TracialAlgebra(dims, (1.0,) * len(dims)), stream(282))
        with pytest.raises(StructureError):
            ce_oracle(filt, 1, x)

    def test_singular_gram_raises(self, monkeypatch):
        filt = make_filtration("trivial_full", dims=(3,))
        basis = helpers.range_basis
        # a duplicated spanning set: singular Gram matrix
        monkeypatch.setattr(helpers, "range_basis", lambda level, alg: 2 * basis(level, alg))
        x = gaussian_hermitian(filt.algebra, stream(280))
        with pytest.raises(helpers.NumericalRankError):
            ce_oracle(filt, 0, x)


class TestMartingale:
    def test_from_final_satisfies_invariants(self):
        filt = make_filtration("corner", dim=4)
        m = martingale_from_final(filt, gaussian_hermitian(filt.algebra, stream(29)),
                                  validate=True)
        for n in range(m.N):
            drift = (cond_exp(filt, n, m.values[n + 1]) - m.values[n]).entry_max()
            assert drift < 1e-9

    def test_constant_when_final_in_bottom_level(self):
        filt = make_filtration("corner", dim=4)
        f = cond_exp(filt, 0, gaussian_hermitian(filt.algebra, stream(30)))
        m = martingale_from_final(filt, f)
        for v in m.values:
            assert v.allclose(f, 1e-12)

    def test_corner_unit_final_matches_hand_formula(self):
        # final operator e_{N,N}: levels average the trailing diagonal
        d = 4
        filt = make_filtration("corner", dim=d)
        e = np.zeros((d, d))
        e[d - 1, d - 1] = 1.0
        m = martingale_from_final(filt, filt.algebra.operator([e]))
        for k in range(d):
            expected = np.zeros((d, d))
            for j in range(k, d):
                expected[j, j] = 1.0 / (d - k)
            assert np.allclose(m.values[k].data[0], expected), k

    def test_diff_orthogonality(self):
        filt = make_filtration("rademacher_corner", depth=2, matrix_dim=2)
        m = martingale_from_final(filt, gaussian_hermitian(filt.algebra, stream(31)))
        for i in range(m.N + 1):
            for j in range(i):
                assert abs(trace_pair(m.diffs[i].adjoint(), m.diffs[j])) < 1e-9

    def test_from_diffs_validates(self):
        filt = make_filtration("corner", dim=3)
        bad = [gaussian_hermitian(filt.algebra, stream(32)) for _ in range(4)]
        with pytest.raises(DomainError):
            martingale_from_diffs(filt, bad)


class TestSquareFunctions:
    def test_one_step_is_modulus(self):
        # for a single-level filtration, S_0 = |x_0|
        from ncgl.filtration import Filtration

        c = make_filtration("corner", dim=3)
        filt = Filtration(c.algebra, c.signs, c.levels[-1:])
        m = martingale_from_final(filt, gaussian_hermitian(c.algebra, stream(33)))
        assert (square_function(m) - func_calculus(m.final, np.abs)).entry_max() < 1e-10

    def test_diagonal_matches_classical(self):
        filt = make_filtration("rademacher", depth=4)
        m = martingale_from_final(filt, gaussian_hermitian(filt.algebra, stream(34)))
        s = square_function(m)
        diffs = np.array([[d.data[b][0, 0].real for b in range(16)]
                          for d in m.diffs])
        classical = np.sqrt((diffs**2).sum(axis=0))
        got = np.array([s.data[b][0, 0].real for b in range(16)])
        assert np.allclose(got, classical, atol=1e-12)

    def test_two_norm_identity(self):
        filt = make_filtration("corner", dim=4)
        m = martingale_from_final(filt, gaussian_hermitian(filt.algebra, stream(35)))
        s = square_function(m)
        assert trace(s @ s) == pytest.approx(
            sum(schatten_norm(d, 2) ** 2 for d in m.diffs))

    def test_conditioned_square_uses_alias_at_zero(self):
        filt = make_filtration("corner", dim=3)
        m = martingale_from_final(filt, gaussian_hermitian(filt.algebra, stream(36)))
        s = conditioned_square_function(m)
        assert s.hermitian and min_eigenvalue(s) > -1e-10

    def test_triple_shapes(self):
        filt = make_filtration("corner", dim=3)
        m = martingale_from_final(filt, gaussian_hermitian(filt.algebra, stream(37)))
        S, s, z = square_functions(m, 4.0)
        assert min_eigenvalue(z) > -1e-10
        with pytest.raises(DomainError):
            diagonal_p_function(m, 1.5)


class TestStructuredTrivialFull:
    def test_matches_plain_levels(self):
        # on equal block dims trivial_full is built from corner levels at
        # k = 0 and k = d; the plain trace and identity levels are the reference
        from ncgl.filtration import _FullLevel, _TrivialLevel

        filt = make_filtration("trivial_full", dims=(3, 3), weights=(0.25, 0.75))
        assert [lvl.ks for lvl in filt.levels] == [(0,), (3,)]
        x = gaussian_hermitian(filt.algebra, stream(283))
        for lvl, ref in zip(filt.levels, (_TrivialLevel(), _FullLevel())):
            got, want = lvl.apply(x), ref.apply(x)
            assert (got - want).entry_max() <= 1e-15 * want.entry_max()


class TestLiftedFiltrations:
    def test_matrix_lift_axioms(self):
        base = make_filtration("corner", dim=3)
        big = lift_with_matrix_factor(base, 2)
        dev = validate_filtration(big, stream(38), samples=4)
        assert max(dev.values()) < 1e-9

    def test_matrix_lift_rejects_non_uniform_base(self):
        # the lifted trivial level is structured, which needs uniform blocks
        base = make_filtration("trivial_full", dims=(4, 2))
        with pytest.raises(StructureError):
            lift_with_matrix_factor(base, 2)

    def test_sign_matrix_axioms(self):
        base = make_filtration("corner", dim=2)
        big = sign_matrix_filtration(3, 2, base)
        dev = validate_filtration(big, stream(39), samples=4)
        assert max(dev.values()) < 1e-9
        assert big.algebra.n_blocks == 4
        assert big.algebra.dims[0] == 6
