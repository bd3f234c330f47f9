import decimal
from decimal import Decimal

import numpy as np
import pytest

from ncgl.errors import DomainError
from ncgl.cuculescu import cuculescu_r
from ncgl.filtration import (
    Martingale,
    cond_exp,
    lift_with_matrix_factor,
    make_filtration,
    martingale_from_final,
    square_function,
)
from ncgl.goodlambda import (
    Triple,
    check_strong_testing,
    check_testing,
    hypothesis_status,
    moment_constant,
    simplified_moment_constant,
    verify_core,
    verify_moment,
    verify_tail,
)
from ncgl.instances import (
    FAMILY_TEMPLATES,
    random_martingale,
    stream,
    strong_triple_parts,
    triple_family,
)
from ncgl.opalgebra import (
    Interval,
    min_eigenvalue,
    operator_norm,
    spectral_projection,
    trace,
    trace_pair,
)

from helpers import sampled_condition_ii, verify_good_hom


def bg_triple(filt, rng, sup=2.5):
    y = random_martingale(filt, rng, sup_norm=sup)
    s = square_function(y)
    return Triple(s, y, s)


class TestTestingConditions:
    def test_bg_triple_passes(self):
        filt = triple_family(0)
        t = bg_triple(filt, stream(60))
        (ok,), (s1,), (s2,) = check_testing(t)  # one entry per summand
        assert ok and s1 >= -1e-8 and s2 >= -1e-8

    def test_zero_martingale_passes(self):
        filt = triple_family(1)
        zero = martingale_from_final(filt, filt.algebra.zero())
        t = Triple(filt.algebra.zero(), zero, filt.algebra.zero())
        (ok,), (s1,), (s2,) = check_testing(t)
        assert ok and s1 == pytest.approx(0.0) and s2 == pytest.approx(0.0)

    def test_transform_triple_passes(self):
        # dy = v dx with |v| <= 1, z the diagonal p-function of x
        from ncgl.filtration import diagonal_p_function, martingale_from_diffs

        filt = make_filtration("corner", dim=4)
        rng = stream(61)
        x = random_martingale(filt, rng, sup_norm=2.0)
        v = rng.uniform(-1, 1, size=x.N + 1)
        y = martingale_from_diffs(filt, [d * float(c) for d, c in zip(x.diffs, v)],
                                  validate=False)
        z = diagonal_p_function(x, 4.0)
        (ok,), _, _ = check_testing(Triple(x.final, y, z))
        assert ok

    def test_strong_conditions_on_construction(self):
        for i in range(12):
            filt = triple_family(i)
            x, y, z = strong_triple_parts(filt, stream(62, i))
            ok, mx, mz = check_strong_testing(Triple(x, y, z))
            assert ok and mx > -1e-8 and mz > -1e-8

    def test_strong_implies_sampled(self):
        for i in range(6):
            filt = triple_family(i)
            x, y, z = strong_triple_parts(filt, stream(63, i))
            t = Triple(x, y, z)
            assert check_strong_testing(t)[0]
            assert check_testing(t)[0]

    def test_scaling_up_y_breaks_strong(self):
        broken = 0
        for i in range(6):
            filt = triple_family(i)
            x, y, z = strong_triple_parts(filt, stream(64, i))
            t = Triple(x, y.scale(10.0), z)
            broken += not check_strong_testing(t)[0]
        assert broken == 6

    def test_enlarging_z_never_breaks(self):
        for i in range(4):
            filt = triple_family(i)
            x, y, z = strong_triple_parts(filt, stream(65, i))
            t = Triple(x, y, z)
            assert check_testing(t)[0]
            bigger = Triple(x, y, z + filt.algebra.identity() * 0.7)
            assert check_testing(bigger)[0]

    def test_strong_conditions_are_scale_invariant(self):
        # both sides of each strong condition are quadratic, so the PSD
        # margins scale by mu^2; checking mu = 1 covers every level
        for i in range(4):
            filt = triple_family(i)
            x, y, z = strong_triple_parts(filt, stream(655, i))
            t = Triple(x, y, z)
            ok, mx, mz = check_strong_testing(t)
            for mu in (0.25, 5.0):
                ok2, mx2, mz2 = check_strong_testing(t.scale(mu))
                assert ok2 == ok
                assert mx2 == pytest.approx(mx * mu * mu, rel=1e-8, abs=1e-12)
                assert mz2 == pytest.approx(mz * mu * mu, rel=1e-8, abs=1e-12)

    def test_strong_implies_testing_500_instances(self):
        # every strong pass is an exact testing pass, and an exact pass is a
        # pass of the sampled condition (ii) it replaced
        for i in range(500):
            filt = triple_family(i)
            x, y, z = strong_triple_parts(filt, stream(660, i))
            t = Triple(x, y, z)
            assert check_strong_testing(t)[0], i
            assert check_testing(t)[0], i
            assert sampled_condition_ii(t, seed=i, n_random=6)[0], i

    @pytest.mark.parametrize("i, mu", [(4, 0.9), (5, 0.6), (6, 0.9)])
    def test_sampled_condition_ii_passes_falsely(self, i, mu):
        # z shrunk below the strong construction: the sampled condition (ii)
        # passes, yet the negative spectral projection p of E_k(z^2) - dy_k^2
        # lies in the level-k algebra and has tau((z^2 - dy_k^2) p) < 0
        x, y, z = strong_triple_parts(triple_family(i), stream(900, i))
        t = Triple(x, y, z * mu)
        assert sampled_condition_ii(t, seed=i, n_random=50) == (True, 0.0)
        (ok,), _, (slack_ii,) = check_testing(t)
        assert not ok and slack_ii < -1e-3
        assert hypothesis_status(t) == ("unverified",)
        _, z_sq, dy_sq = t.squares
        gaps = [cond_exp(t.filtration, k, z_sq) - dy_sq[k] for k in range(y.N + 1)]
        k = int(np.argmin([min_eigenvalue(g) for g in gaps]))
        p = spectral_projection(gaps[k], Interval.below(0.0))
        assert operator_norm(cond_exp(t.filtration, k, p) - p) <= 1e-12
        assert trace_pair(z_sq - dy_sq[k], p).real < -1e-3


class TestCoreInequality:
    def test_zero_case(self):
        filt = triple_family(2)
        zero = martingale_from_final(filt, filt.algebra.zero())
        (rep,) = verify_core(Triple(filt.algebra.zero(), zero, filt.algebra.zero()))
        assert rep.passed and rep.lhs == pytest.approx(0.0) \
            and rep.rhs == pytest.approx(0.0)

    def test_random_strong_triples(self):
        for i in range(40):
            filt = triple_family(i)
            x, y, z = strong_triple_parts(filt, stream(66, i))
            (rep,) = verify_core(Triple(x, y, z))
            assert rep.passed, (i, rep)

    def test_diagonal_reproduces_classical_bound(self):
        # on a diagonal algebra every quantity is a classical expectation
        filt = make_filtration("rademacher", depth=4)
        x, y, z = strong_triple_parts(filt, stream(67))
        (rep,) = verify_core(Triple(x, y, z))
        vals = np.array([[v.data[b][0, 0].real for b in range(16)]
                         for v in y.values])
        tail = (vals.max(axis=0) >= 1.0).astype(float)  # 1 - R_N classically
        w = np.array(filt.algebra.weights)
        yn = vals[-1]
        xs = np.array([x.data[b][0, 0].real for b in range(16)])
        zs = np.array([z.data[b][0, 0].real for b in range(16)])
        lhs_classical = float((w * tail * (yn - 1.0) ** 2).sum())
        rhs_classical = 2.0 * float((w * tail * (xs**2 + zs**2)).sum())
        assert rep.lhs == pytest.approx(lhs_classical, abs=1e-9)
        assert rep.rhs == pytest.approx(rhs_classical, abs=1e-9)
        assert rep.passed

    def test_scale_invariance(self):
        filt = triple_family(3)
        x, y, z = strong_triple_parts(filt, stream(68))
        (base,) = verify_core(Triple(x, y, z))
        for mu in (0.5, 2.0, 7.0):
            (scaled,) = verify_core(Triple(x, y, z).scale(mu), level=mu)
            assert scaled.margin == pytest.approx(base.margin * mu * mu,
                                                  rel=1e-8, abs=1e-12)


class TestTailInequality:
    def test_bounded_below_beta_gives_zero(self):
        filt = make_filtration("corner", dim=4)
        y = random_martingale(filt, stream(69), sup_norm=1.2)
        s = square_function(y)
        (rep,) = verify_tail(Triple(s, y, s), beta=4.0)
        assert rep.lhs == pytest.approx(0.0)
        assert rep.passed

    @pytest.mark.parametrize("beta", [1.5, 2.0, 4.0])
    def test_random_strong_triples(self, beta):
        for i in range(15):
            filt = triple_family(i)
            x, y, z = strong_triple_parts(filt, stream(70, i))
            (rep,) = verify_tail(Triple(x, y, z), beta)
            assert rep.passed, (i, beta, rep)

    def test_constant_value(self):
        filt = triple_family(0)
        x, y, z = strong_triple_parts(filt, stream(71))
        (rep,) = verify_tail(Triple(x, y, z), 3.0)
        assert rep.constant == pytest.approx(1.0)

    def test_good_hom_across_scales(self):
        for i in range(4):
            filt = triple_family(i)
            x, y, z = strong_triple_parts(filt, stream(72, i))
            t = Triple(x, y, z)
            for k in range(-2, 3):
                rep = verify_good_hom(t, 2.0, k)
                assert rep.passed, (i, k, rep)

    def test_beta_validation(self):
        filt = triple_family(0)
        x, y, z = strong_triple_parts(filt, stream(73))
        with pytest.raises(DomainError):
            verify_tail(Triple(x, y, z), 1.0)

    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_scale_covariance(self, family):
        # rescaling the triple and the level by mu scales both core sides by
        # mu^2 and leaves both tail sides (the lhs a projection trace) as they
        # are, to rounding, at every mu; every flag and label stays
        for seed in range(5):
            t = Triple(*strong_triple_parts(triple_family(family), stream(seed, 77, family)))
            for mu in (1e-3, 0.1, 3.0, 10.0, 1e3):
                scaled = t.scale(mu)
                for level in (0.5, 1.0, 1.7):
                    pairs = [(verify_core(t, level)[0], verify_core(scaled, mu * level)[0],
                              mu * mu, 1e-10)]
                    pairs += [(verify_tail(t, beta, level)[0],
                               verify_tail(scaled, beta, mu * level)[0], 1.0, 1e-13)
                              for beta in (1.5, 2.0)]
                    for base, got, factor, rel in pairs:
                        where = (seed, mu, level, base.meta)
                        for side, want in ((got.lhs, base.lhs), (got.rhs, base.rhs)):
                            assert abs(side - factor * want) <= rel * abs(factor * want), where
                        assert got.passed == base.passed, where
                        assert got.meta["hypothesis"] == base.meta["hypothesis"], where

    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_power_of_two_scaling_is_exact(self, family):
        # scaling by 2 rounds nothing, so the Cuculescu cuts at 2 level are
        # those at level: the core sides scale by exactly 4, the tail sides
        # not at all, and every flag and label stays
        for seed in range(5):
            t = Triple(*strong_triple_parts(triple_family(family), stream(seed, 77, family)))
            doubled = t.scale(2.0)
            for level in (0.5, 1.0, 1.7):
                pairs = [(verify_core(t, level)[0], verify_core(doubled, 2 * level)[0], 4.0)]
                pairs += [(verify_tail(t, beta, level)[0],
                           verify_tail(doubled, beta, 2 * level)[0], 1.0)
                          for beta in (1.5, 2.0)]
                for base, scaled, factor in pairs:
                    where = (seed, level, base.meta)
                    assert scaled.lhs == factor * base.lhs, where
                    assert scaled.rhs == factor * base.rhs, where
                    assert scaled.passed == base.passed, where
                    assert scaled.meta["hypothesis"] == base.meta["hypothesis"], where


class TestMomentConstant:
    def test_simplified_value_at_p4(self):
        c, simplified = moment_constant(4.0, 1.25)
        assert simplified == pytest.approx(80.0)

    def test_closed_form_below_simplified_on_grid(self):
        for p in (2.1, 3.0, 4.0, 8.0, 16.0, 64.0):
            c, simplified = moment_constant(p, 1.0 + 1.0 / p)
            assert c <= simplified

    def test_linear_growth(self):
        ratios = [moment_constant(p, 1 + 1 / p)[1] / p
                  for p in (2.1, 3.0, 4.0, 8.0, 16.0, 64.0)]
        assert max(ratios) < 130.0  # bounded multiple of p
        assert ratios[-1] < ratios[0]

    @staticmethod
    def _reference(p, B=None):
        """C_{p,B}, or with no B the simplified constant, to 40 digits."""
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            p, one = Decimal(p), Decimal(1)
            if B is None:
                return float(12 * p / (1 - (1 + one / p) ** (2 - p)).sqrt())
            B = Decimal(B)
            first = (2 * p * B ** (p - 1) * (B - 1) / (1 - B ** -p)) ** (one / p)
            return float(first * 2 * B ** (p / 2) / ((B - 1) * (1 - B ** (2 - p)).sqrt()))

    @pytest.mark.parametrize("p, B", [(3.0, 4.0 / 3.0), (4.0, 1.25), (1e4, 1.0001),
                                      (600.0, 4.0), (1100.0, 2.0)])
    def test_closed_form_at_large_p(self, p, B):
        # B^{p-1} overflows at p = 600, B = 4 and at p = 1100, B = 2, where
        # C_{p,B} is finite
        assert moment_constant(p, B)[0] == pytest.approx(self._reference(p, B), rel=1e-14)

    @pytest.mark.parametrize("p", [3.0, 1e4, 1e16])
    def test_simplified_constant_at_large_p(self, p):
        # 1 + 1/p rounds to 1 at p = 1e16
        assert simplified_moment_constant(p) == pytest.approx(self._reference(p), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_constant(2.0, 1.5)
        with pytest.raises(DomainError):
            moment_constant(3.0, 1.0)


class TestMomentVerification:
    def test_zero_martingale(self):
        filt = triple_family(4)
        zero = martingale_from_final(filt, filt.algebra.zero())
        reps = verify_moment(Triple(filt.algebra.zero(), zero,
                                    filt.algebra.zero()), 4.0)
        assert reps.max_plus.lhs == pytest.approx(0.0)
        assert reps.max_minus.lhs == pytest.approx(0.0)
        assert reps.moment.lhs == pytest.approx(0.0)
        assert reps.all_passed()

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_bg_triples(self, p):
        for i in range(6):
            filt = triple_family(i)
            t = bg_triple(filt, stream(74, i))
            reps = verify_moment(t, p)
            assert reps.all_passed(), (i, p)

    def test_diagonal_instances_pass_with_room(self):
        filt = make_filtration("rademacher", depth=3)
        t = bg_triple(filt, stream(75))
        reps = verify_moment(t, 4.0)
        assert reps.all_passed()
        assert reps.moment.lhs < 0.25 * reps.moment.rhs

    def test_scale_invariance_of_moment_margin(self):
        filt = triple_family(5)
        t = bg_triple(filt, stream(76))
        base = verify_moment(t, 3.0)
        mu = 3.0
        scaled = verify_moment(t.scale(mu), 3.0)
        assert scaled.moment.margin == pytest.approx(base.moment.margin * mu,
                                                     rel=1e-8)

    @pytest.mark.parametrize("p, B", [(2.0, None), (0.0, None), (3.0, 1.0), (3.0, 0.5)])
    def test_domain(self, p, B):
        # p = 0 must fail before the default B = 1 + 1/p is formed
        filt = triple_family(0)
        t = bg_triple(filt, stream(77))
        with pytest.raises(DomainError):
            verify_moment(t, p, B)


class TestHypothesisStatus:
    def test_strong_certificate(self):
        filt = triple_family(0)
        x, y, z = strong_triple_parts(filt, stream(78))
        assert hypothesis_status(Triple(x, y, z)) == ("strong-pass",)

    def test_unverified_when_scaled(self):
        filt = triple_family(0)
        x, y, z = strong_triple_parts(filt, stream(79))
        status = hypothesis_status(Triple(x * 1e-3, y.scale(20.0), z * 1e-3))
        assert status == ("unverified",)

    def test_label_computed_once_per_triple(self, monkeypatch):
        import ncgl.goodlambda as gl

        calls = []
        original = gl.hypothesis_status

        def counted(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(gl, "hypothesis_status", counted)
        filt = triple_family(1)
        t = Triple(*strong_triple_parts(filt, stream(80)))
        reps = list(verify_core(t))
        reps += [rep for beta in (1.5, 2.0, 4.0) for rep in verify_tail(t, beta)]
        reps.append(verify_good_hom(t, 2.0, 0))
        moment = verify_moment(t, 3.0)
        reps += [moment.max_plus, moment.max_minus, moment.moment,
                 moment.moment_simplified]
        assert calls == [t]
        assert {r.meta["hypothesis"] for r in reps} == {"strong-pass"}

    def test_squares_formed_once_per_triple(self, monkeypatch):
        from ncgl.opalgebra import Operator

        filt = triple_family(1)
        t = Triple(*strong_triple_parts(filt, stream(80)))
        products = []
        original = Operator.__matmul__

        def counted(a, b):
            products.append((a, b))
            return original(a, b)

        monkeypatch.setattr(Operator, "__matmul__", counted)
        verify_core(t)
        for beta in (1.5, 2.0, 4.0):
            verify_tail(t, beta)
        for op in (t.x, t.z, *t.y.diffs):
            assert sum(a is op and b is op for a, b in products) == 1

    @pytest.mark.parametrize("scaled", [False, True], ids=["strong", "unverified"])
    def test_reports_carry_the_computed_label(self, scaled):
        filt = triple_family(0)
        x, y, z = strong_triple_parts(filt, stream(79))
        t = Triple(x * 1e-3, y.scale(20.0), z * 1e-3) if scaled else Triple(x, y, z)
        (expected,) = hypothesis_status(t)
        assert expected == ("unverified" if scaled else "strong-pass")
        assert verify_core(t)[0].meta["hypothesis"] == expected
        assert verify_tail(t, 2.0)[0].meta["hypothesis"] == expected
        assert verify_good_hom(t, 2.0, 0).meta["hypothesis"] == expected
        assert verify_moment(t, 4.0).moment.meta["hypothesis"] == expected


class TestSymmetry:
    """Maps that commute with every E_n and keep the trace move the Cuculescu
    projections with them, and keep every margin, pass flag and hypothesis
    label: conjugation by u (x) I on M_2 (x) corner-filtered M_3, and the
    block permutation of a Rademacher sign flip."""

    @staticmethod
    def _reports(t):
        m = verify_moment(t, 3.0)
        return (*verify_core(t), *verify_tail(t, 2.0),
                m.max_plus, m.max_minus, m.moment, m.moment_simplified)

    def _assert_moves_with(self, t, move):
        moved_y = Martingale(t.filtration, tuple(map(move, t.y.values)),
                             tuple(map(move, t.y.diffs)))
        moved = Triple(move(t.x), moved_y, move(t.z))
        seq, moved_seq = cuculescu_r(t.y, 1.0), cuculescu_r(moved.y, 1.0)
        for n in range(t.y.N + 1):
            assert (moved_seq.R(n) - move(seq.R(n))).entry_max() <= 1e-10
        assert moved.hypothesis == t.hypothesis
        for a, b in zip(self._reports(t), self._reports(moved)):
            assert b.passed == a.passed and b.meta == a.meta
            assert abs(b.margin - a.margin) <= 1e-9 * max(1.0, abs(a.lhs), abs(a.rhs))

    @pytest.mark.parametrize("seed", range(20))
    def test_unitary_on_the_full_factor(self, seed):
        filt = make_filtration("matrix_corner", outer_dim=2, dim=3)
        rng = stream(78, seed)
        t = Triple(*strong_triple_parts(filt, rng))
        u, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        big = t.algebra.operator(np.kron(u, np.eye(3))[None])
        self._assert_moves_with(t, lambda a: (big @ a @ big.adjoint()).symmetrized())

    _SIGN_FAMILIES = {
        "rademacher3": lambda: make_filtration("rademacher", depth=3),
        "rademacher2xM2": lambda: make_filtration("rademacher", depth=2, matrix_dim=2),
        "corner2xM2": lambda: make_filtration("rademacher_corner", depth=2, matrix_dim=2),
        "M2(x)rademacher2xM2": lambda: lift_with_matrix_factor(
            make_filtration("rademacher", depth=2, matrix_dim=2), 2),
    }

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("family", sorted(_SIGN_FAMILIES))
    def test_sign_flip_permutes_the_blocks(self, family, seed):
        # flipping sign j sends each block to the one whose signs differ in
        # coordinate j only; the blocks' weights are equal
        filt = self._SIGN_FAMILIES[family]()
        t = Triple(*strong_triple_parts(filt, stream(79, seed)))
        index = {tuple(s): b for b, s in enumerate(filt.signs)}
        for j in range(filt.signs.shape[1]):
            flip = np.where(np.arange(filt.signs.shape[1]) == j, -1.0, 1.0)
            perm = [index[tuple(s * flip)] for s in filt.signs]
            self._assert_moves_with(t, lambda a: t.algebra.operator(a.stacks[0][perm]))
