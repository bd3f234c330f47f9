import decimal
import re
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
    tail_constant,
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


def _one_step_martingale():
    """y_0 = diag(2, 0.5) on a one-level filtration."""
    c = make_filtration("corner", dim=2)
    filt = type(c)(c.algebra, c.signs, c.levels[-1:], label="one_step")
    y0 = c.algebra.operator([np.diag([2.0, 0.5])])
    return Martingale(filt, (y0,), (y0,))


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
        ((rep,),) = verify_tail(Triple(s, y, s), [4.0])
        assert rep.lhs == pytest.approx(0.0)
        assert rep.passed

    @pytest.mark.parametrize("beta", [1.5, 2.0, 4.0])
    def test_random_strong_triples(self, beta):
        for i in range(15):
            filt = triple_family(i)
            x, y, z = strong_triple_parts(filt, stream(70, i))
            ((rep,),) = verify_tail(Triple(x, y, z), [beta])
            assert rep.passed, (i, beta, rep)

    def test_constant_value(self):
        filt = triple_family(0)
        x, y, z = strong_triple_parts(filt, stream(71))
        ((rep,),) = verify_tail(Triple(x, y, z), [3.0])
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
            verify_tail(Triple(x, y, z), [2.0, 1.0])

    @pytest.mark.parametrize("beta, level", [(1e308, 1.0), (1e155, 1.0), (1.5, 1e-200),
                                             (1e300, 1e10)])
    def test_a_constant_out_of_the_float_range_is_refused(self, beta, level):
        # 4/((beta-1) level)^2: its square overflows (an OverflowError), its
        # square underflows to 0 (a ZeroDivisionError), or its product
        # overflows to inf (a constant of 0); each is a DomainError naming
        # beta and the level, raised before any sequence is grown
        y = _one_step_martingale()
        t = Triple(y.final, y, y.final)
        message = re.escape(f"float range at beta = {beta!r}, level = {level!r}")
        for call in (lambda: tail_constant(beta, level), lambda: verify_tail(t, [beta], level)):
            with pytest.raises(DomainError, match=message):
                call()
        assert not y.cuculescu_cache

    def test_representable_constants_keep_their_arithmetic(self):
        for beta, level in [(1.5, 1.0), (2.0, 1.0), (4.0, 1.0), (3.0, 0.1), (1e154, 1.0),
                            (1.0 + 2.0 ** -52, 1e-100)]:
            assert tail_constant(beta, level) == 4.0 / ((beta - 1.0) * level) ** 2

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
                    pairs += [(base, got, 1.0, 1e-13) for (base,), (got,) in zip(
                        verify_tail(t, (1.5, 2.0), level),
                        verify_tail(scaled, (1.5, 2.0), mu * level))]
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
                pairs += [(base, got, 1.0) for (base,), (got,) in zip(
                    verify_tail(t, (1.5, 2.0), level), verify_tail(doubled, (1.5, 2.0), 2 * level))]
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
        # B^{p/2} = 2^1050 alone passes the float range, and C_{p,B} with it
        with pytest.raises(DomainError, match=r"C_\{p,B\}.*p = 2100.0, B = 2.0"):
            moment_constant(2100.0, 2.0)


def _all_passed(reps):
    return all(r.passed for r in (reps.max_plus, reps.max_minus, reps.moment,
                                  reps.moment_simplified))


class TestMomentVerification:
    def test_a_repeated_base_is_walked_and_summed_once(self, monkeypatch):
        # three seed-0 moment trials, one per group, at B = 1.5: the p grid
        # {3, 4, 8} grows, walks and sums its one base once, as p = 3 alone
        # does, with 51 checks (153 with a walk per p) and one a_N^± reduction
        # per group (three with one per p) besides each p's Fubini reduction;
        # each p's rows are those of a call at that p alone, bit for bit
        import ncgl.cli as cli
        import ncgl.cuculescu as cuculescu

        counts = {"_check_level": 0, "_staircases": 0}

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        for name in counts:
            monkeypatch.setattr(cuculescu, name, counted(name, getattr(cuculescu, name)))

        def rows(p_grid):
            counts.update(dict.fromkeys(counts, 0))
            got, _ = cli.run(cli.ExperimentConfig(suite="moment", trials=3, seed=0,
                                                  p_grid=p_grid, B=1.5))
            return [repr(row) for row in got], dict(counts)

        grid, grid_counts = rows((3.0, 4.0, 8.0))
        alone, alone_counts = rows((3.0,))
        assert grid_counts == {"_check_level": 51, "_staircases": 3 * (1 + 3)}
        assert alone_counts == {"_check_level": 51, "_staircases": 3 * (1 + 1)}
        for j, p in enumerate((3.0, 4.0, 8.0)):
            lone = alone if p == 3.0 else rows((p,))[0]
            for trial in range(3):
                assert grid[15 * trial + 5 * j:15 * trial + 5 * j + 5] == \
                    lone[5 * trial:5 * trial + 5], (p, trial)

    def test_zero_martingale(self):
        filt = triple_family(4)
        zero = martingale_from_final(filt, filt.algebra.zero())
        ((reps,),) = verify_moment(Triple(filt.algebra.zero(), zero,
                                          filt.algebra.zero()), [zero], [4.0])
        assert reps.max_plus.lhs == pytest.approx(0.0)
        assert reps.max_minus.lhs == pytest.approx(0.0)
        assert reps.moment.lhs == pytest.approx(0.0)
        assert _all_passed(reps)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_bg_triples(self, p):
        for i in range(6):
            filt = triple_family(i)
            t = bg_triple(filt, stream(74, i))
            ((reps,),) = verify_moment(t, [t.y], [p])
            assert _all_passed(reps), (i, p)

    def test_diagonal_instances_pass_with_room(self):
        filt = make_filtration("rademacher", depth=3)
        t = bg_triple(filt, stream(75))
        ((reps,),) = verify_moment(t, [t.y], [4.0])
        assert _all_passed(reps)
        assert reps.moment.lhs < 0.25 * reps.moment.rhs

    def test_scale_invariance_of_moment_margin(self):
        filt = triple_family(5)
        t = bg_triple(filt, stream(76))
        ((base,),) = verify_moment(t, [t.y], [3.0])
        mu = 3.0
        scaled_t = t.scale(mu)
        ((scaled,),) = verify_moment(scaled_t, [scaled_t.y], [3.0])
        assert scaled.moment.margin == pytest.approx(base.moment.margin * mu,
                                                     rel=1e-8)

    @pytest.mark.parametrize("p, B", [(2.0, None), (0.0, None), (3.0, 1.0), (3.0, 0.5)])
    def test_domain(self, p, B):
        # p = 0 must fail before the default B = 1 + 1/p is formed
        filt = triple_family(0)
        t = bg_triple(filt, stream(77))
        with pytest.raises(DomainError):
            verify_moment(t, [t.y], [p], B)


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

    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_labels_do_not_depend_on_scale(self, family):
        # every testing margin is quadratic in the triple, and so is its gate:
        # the strong flags, and the labels wherever condition (i) at the fixed
        # level 1 does not decide them, are those of mu = 1 at every mu.  With
        # an absolute gate, the triple with x = z = 0 read strong-pass below
        # mu = 1e-4, where its margins -dy_k^2 fell under 1e-8
        x, y, z = strong_triple_parts(triple_family(family), stream(0, 9, family))
        triples = {"strong": Triple(x, y, z), "zero": Triple(x * 0.0, y, z * 0.0),
                   "small z": Triple(x, y, z * 0.3), "small x": Triple(x * 0.3, y, z)}
        want = {"strong": ("strong-pass",), "zero": ("unverified",),
                "small z": ("unverified",)}
        for name, t in triples.items():
            strong = check_strong_testing(t)[0]
            assert strong == (name == "strong"), name
            for mu in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 10.0, 1e2, 1e3):
                scaled = t.scale(mu)
                assert check_strong_testing(scaled)[0] == strong, (name, mu)
                if name in want:
                    assert hypothesis_status(scaled) == want[name], (name, mu)

    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_a_large_term_loosens_no_other_margin(self, family):
        # the z margin has no x in it, nor the x margin z: growing x alone on
        # the triple whose z is too small, or z alone on the one whose x is,
        # leaves the failing margin failing and the labels where they were.
        # With one gate over x, z and dy, x * 1e5 read strong-pass
        x, y, z = strong_triple_parts(triple_family(family), stream(0, 9, family))
        for name, grow in {"small z": lambda mu: Triple(x * mu, y, z * 0.3),
                           "small x": lambda mu: Triple(x * 0.3, y, z * mu)}.items():
            base = grow(1.0)
            flags = check_strong_testing(base)
            assert not flags[0].any(), name
            for mu in (10.0, 1e3, 1e5):
                grown = grow(mu)
                assert not check_strong_testing(grown)[0].any(), (name, mu)
                assert hypothesis_status(grown) == hypothesis_status(base), (name, mu)

    def test_label_is_that_of_the_level_verified(self):
        # condition (i) is taken on the Cuculescu sequence of the level: the
        # triple passes it at level 1 and fails it at level 1/10, where it has
        # no strong certificate to fall back on
        x, y, z = strong_triple_parts(triple_family(0), stream(0, 9, 0))
        t = Triple(x * 0.3, y, z)
        assert not check_strong_testing(t)[0].any()
        assert hypothesis_status(t) == ("testing-pass",)
        assert hypothesis_status(t, 0.1) == ("unverified",)
        assert check_testing(t, 0.1)[1][0] < -0.07
        assert verify_core(t)[0].meta["hypothesis"] == "testing-pass"
        assert verify_core(t, 0.1)[0].meta["hypothesis"] == "unverified"
        assert verify_tail(t, [2.0])[0][0].meta["hypothesis"] == "testing-pass"
        assert verify_tail(t, [2.0], 0.1)[0][0].meta["hypothesis"] == "unverified"

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
        reps += [rep for by_beta in verify_tail(t, (1.5, 2.0, 4.0)) for rep in by_beta]
        reps.append(verify_good_hom(t, 2.0, 0))
        ((moment,),) = verify_moment(t, [t.y], [3.0])
        reps += [moment.max_plus, moment.max_minus, moment.moment,
                 moment.moment_simplified]
        assert calls == [t]
        assert {r.meta["hypothesis"] for r in reps} == {"strong-pass"}

    def test_labels_at_another_level_are_computed_once_per_grid(self, monkeypatch):
        # verify_tail at a level other than 1 labels the reports of every beta
        # from one hypothesis_status call at that level (one per beta before)
        import ncgl.goodlambda as gl

        levels, original = [], gl.hypothesis_status

        def counted(t, level=1.0):
            levels.append(level)
            return original(t, level)

        monkeypatch.setattr(gl, "hypothesis_status", counted)
        t = Triple(*strong_triple_parts(triple_family(1), stream(80)))
        by_beta = verify_tail(t, (1.5, 2.0, 4.0), 0.5)
        assert levels == [0.5] and len(by_beta) == 3
        assert {rep.meta["hypothesis"] for reps in by_beta for rep in reps} == {"strong-pass"}

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
        verify_tail(t, (1.5, 2.0, 4.0))
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
        assert verify_tail(t, [2.0])[0][0].meta["hypothesis"] == expected
        assert verify_good_hom(t, 2.0, 0).meta["hypothesis"] == expected
        assert verify_moment(t, [t.y], [4.0])[0][0].moment.meta["hypothesis"] == expected


class TestSymmetry:
    """Maps that commute with every E_n and keep the trace move the Cuculescu
    projections with them, and keep every margin, pass flag and hypothesis
    label: conjugation by u (x) I on M_2 (x) corner-filtered M_3, and the
    block permutation of a Rademacher sign flip."""

    @staticmethod
    def _reports(t):
        ((m,),) = verify_moment(t, [t.y], [3.0])
        ((tail,),) = verify_tail(t, [2.0])
        return (*verify_core(t), tail,
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
