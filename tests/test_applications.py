import functools
import math
import tracemalloc

import numpy as np
import pytest

import ncgl.applications as apps
from ncgl.applications import (
    _counterexample_finals,
    bg_constant_square_by_norm,
    bg_embed,
    check_tangent,
    counterexample_pair,
    doob_embed,
    dual_doob_constant,
    interp_bound,
    refined_doob,
    stein_constant,
    tangent_counterexample,
    verify_bg,
    verify_dominated,
    verify_dual_doob,
    verify_positive_tangent,
    verify_stein,
    verify_transform,
)
from ncgl.cli import ExperimentConfig, run
from ncgl.errors import DomainError
from ncgl.filtration import (
    cond_exp,
    make_filtration,
    martingale_from_diffs,
    martingale_from_final,
    square_function,
)
from ncgl.goodlambda import simplified_moment_constant
from ncgl.instances import (
    adapted_psd_sequence,
    arrow_martingale_pair,
    classical_tangent_positive_pair,
    gaussian_hermitian,
    gaussian_psd,
    hook_flipped,
    random_martingale,
    stream,
)
from ncgl.opalgebra import (
    Interval,
    _eigvalsh,
    abs_spectral_trace,
    direct_sum,
    func_calculus,
    operator_norm,
    psd_power,
    schatten_norm,
    spectral_projection,
    trace,
)
from ncgl.reports import VerifyReport

from helpers import (
    check_projection,
    cluster_eigenvalues,
    diagonal_operator,
    per_cluster_tangent,
    recorded_cuts,
    sampled_transform_lhs,
    tangent_moment_deviation,
)


class TestBGEmbedding:
    def test_single_step_scalar(self):
        # one-step martingale with dx_0 = 1: y_0 = e_{12} + e_{21} in M_2
        from ncgl.filtration import Filtration

        c = make_filtration("corner", dim=1)
        filt = Filtration(c.algebra, c.signs, c.levels[-1:])
        inst = bg_embed(martingale_from_final(filt, c.algebra.identity()))
        eigs = np.linalg.eigvalsh(inst.y.final.data[0])
        assert np.allclose(sorted(eigs), [-1.0, 1.0])
        assert np.allclose(sorted(np.abs(eigs)), [1.0, 1.0])

    def test_single_step_padded_to_three(self):
        # the same martingale padded by a zero step embeds into M_3, where
        # |y| has eigenvalues {1, 1, 0}
        filt = make_filtration("trivial_full", dims=(1,))
        one = filt.algebra.identity()
        m = martingale_from_diffs(filt, [one, filt.algebra.zero()],
                                  validate=False)
        inst = bg_embed(m)
        eigs = np.abs(np.linalg.eigvalsh(inst.y.final.data[0]))
        assert np.allclose(sorted(eigs), [0.0, 1.0, 1.0])

    def test_trace_identity(self):
        filt = make_filtration("corner", dim=4)
        m = random_martingale(filt, stream(80))
        inst = bg_embed(m)
        for p in (3.0, 4.0):
            lhs = schatten_norm(inst.x_tilde.final, p) ** p
            rhs = schatten_norm(m.final, p) ** p + sum(
                schatten_norm(d, p) ** p for d in m.diffs)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_zero_martingale(self):
        filt = make_filtration("corner", dim=3)
        m = martingale_from_final(filt, filt.algebra.zero())
        inst = bg_embed(m)
        assert inst.y.final.entry_max() == 0.0

    def test_big_martingale_is_martingale(self):
        filt = make_filtration("corner", dim=3)
        m = random_martingale(filt, stream(81))
        inst = bg_embed(m)
        big = inst.big_filtration
        for n in range(inst.y.N):
            drift = (cond_exp(big, n, inst.y.values[n + 1]) - inst.y.values[n])
            assert drift.entry_max() < 1e-9

    def test_square_dominates_corner(self):
        filt = make_filtration("corner", dim=3)
        m = random_martingale(filt, stream(82))
        inst = bg_embed(m)
        # ||y_N||_p >= ||S_N||_p follows from the corner domination
        for p in (2.0, 4.0):
            assert schatten_norm(inst.y.final, p) >= \
                schatten_norm(square_function(m), p) - 1e-9


class TestVerifyBG:
    def test_p2_equality_with_constant_one(self):
        filt = make_filtration("corner", dim=5)
        m = random_martingale(filt, stream(83))
        reps = verify_bg(m, 2.0)
        assert reps.norm_by_square.constant == 1.0
        assert reps.square_by_norm.constant == 1.0
        assert abs(reps.norm_by_square.margin) < 1e-8
        assert reps.all_passed()

    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
    def test_random_corner_martingales(self, p):
        filt = make_filtration("corner", dim=5)
        for seed in range(10):
            m = random_martingale(filt, stream(84, seed))
            assert verify_bg(m, p).all_passed()

    def test_interp_bound_at_p2_is_equality(self):
        filt = make_filtration("corner", dim=4)
        m = random_martingale(filt, stream(85))
        rep = interp_bound(m, 2.0)
        assert rep.constant == pytest.approx(1.0)
        assert abs(rep.margin) < 1e-8

    def test_interp_bound_on_embedded(self):
        filt = make_filtration("corner", dim=4)
        m = random_martingale(filt, stream(86))
        inst = bg_embed(m)
        assert interp_bound(inst.x_tilde, 4.0).passed

    def test_domain(self):
        filt = make_filtration("corner", dim=3)
        m = random_martingale(filt, stream(87))
        with pytest.raises(DomainError):
            verify_bg(m, 1.5)

    def test_square_by_norm_constant_is_finite_at_large_p(self):
        assert math.isfinite(bg_constant_square_by_norm(1100.0))

    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
    def test_square_by_norm_constant_matches_unscaled_form(self, p):
        # the form with (1 + 2^{p-2})^{1/p}, which overflows near p = 1026
        unscaled = (simplified_moment_constant(p)
                    * math.sqrt(1.0 + 2.0 ** (2.0 - 4.0 / p))
                    * (1.0 + 2.0 ** (p - 2.0)) ** (1.0 / p))
        assert bg_constant_square_by_norm(p) == pytest.approx(unscaled, rel=1e-15, abs=0.0)

    @staticmethod
    def _interp_martingale(p):
        """A corner martingale whose largest ||dx_k||_p is 3."""
        m = random_martingale(make_filtration("corner", dim=4), stream(89))
        return m.scale(3.0 / max(schatten_norm(d, p) for d in m.diffs))

    @staticmethod
    def _unscaled_interp_lhs(m, p):
        # NumPy floats, so a power beyond the float range is inf, not an error
        return sum(np.float64(schatten_norm(d, p)) ** p for d in m.diffs) ** (1.0 / p)

    def test_interp_bound_is_finite_at_large_p(self):
        m = self._interp_martingale(1100.0)
        with np.errstate(over="ignore"):  # 3^1100 is beyond the float range
            assert math.isinf(self._unscaled_interp_lhs(m, 1100.0))
        rep = interp_bound(m, 1100.0)
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
        assert 3.0 - 1e-12 <= rep.lhs <= 3.0 * len(m.diffs) ** (1.0 / 1100.0) + 1e-12
        assert rep.passed

    def test_interp_bound_matches_unscaled_form(self):
        m = self._interp_martingale(8.0)
        assert interp_bound(m, 8.0).lhs == pytest.approx(
            self._unscaled_interp_lhs(m, 8.0), rel=1e-14, abs=0.0)


class TestTransforms:
    def test_identity_multipliers(self):
        filt = make_filtration("corner", dim=4)
        m = random_martingale(filt, stream(88))
        rep = verify_transform(m, [1.0] * (m.N + 1), 4.0)
        assert rep.passed
        assert rep.lhs == pytest.approx(schatten_norm(m.final, 4.0))

    def test_sign_flip_preserves_norm(self):
        filt = make_filtration("corner", dim=4)
        m = random_martingale(filt, stream(89))
        rep = verify_transform(m, [-1.0] * (m.N + 1), 4.0)
        assert rep.passed
        assert rep.lhs == pytest.approx(schatten_norm(m.final, 4.0), rel=1e-10)

    @pytest.mark.parametrize("p", [3.0, 6.0])
    def test_alternating_signs(self, p):
        filt = make_filtration("corner", dim=5)
        for seed in range(8):
            m = random_martingale(filt, stream(90, seed))
            v = [(-1.0) ** n for n in range(m.N + 1)]
            assert verify_transform(m, v, p).passed

    def test_duality_mode_below_two(self):
        filt = make_filtration("corner", dim=4)
        m = random_martingale(filt, stream(91))
        v = [(-1.0) ** n for n in range(m.N + 1)]
        rep = verify_transform(m, v, 1.5)
        assert rep.passed

    @pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
    def test_exact_norm_below_two_bounds_the_sampled_one(self, p):
        # below 2 the lhs is the exact ||y_N||_p, which the sampled duality
        # pairing it replaced only bounds from below
        filt = make_filtration("corner", dim=4)
        for seed in range(6):
            rng = stream(93, seed)
            m = random_martingale(filt, rng)
            v = [float(c) for c in rng.uniform(-1.0, 1.0, size=m.N + 1)]
            rep = verify_transform(m, v, p)
            y = martingale_from_diffs(filt, [d * c for d, c in zip(m.diffs, v)],
                                      validate=False)
            assert rep.lhs == schatten_norm(y.final, p)
            assert rep.lhs >= sampled_transform_lhs(m, v, p, seed=seed)
            assert rep.passed

    def test_multiplier_validation(self):
        filt = make_filtration("corner", dim=3)
        m = random_martingale(filt, stream(92))
        with pytest.raises(DomainError):
            verify_transform(m, [2.0] * (m.N + 1), 4.0)


class TestReportGate:
    """A report's gate is relative to its larger side: every checked
    inequality is homogeneous, so no pass flag may depend on the scale."""

    @pytest.mark.parametrize("rhs", [1e-12, 1e-9, 1.0, 1e6])
    def test_twice_the_bound_fails_at_every_scale(self, rhs):
        # with the old absolute floor of 1e-8, lhs = 2 rhs passed at rhs = 1e-9
        assert not VerifyReport.compare(2.0 * rhs, rhs, 1.0).passed
        assert VerifyReport.compare(rhs * (1.0 + 1e-9), rhs, 1.0).passed

    def test_zero_against_zero_passes(self):
        assert VerifyReport.compare(0.0, 0.0, 1.0).passed

    @pytest.mark.parametrize("mu", [1e-9, 1e-6, 1.0])
    def test_a_false_claim_fails_on_a_small_instance(self, mu):
        # ||x_N||_3 <= ||x_N||_3 / 2 on a corner(5) martingale scaled by mu
        m = random_martingale(make_filtration("corner", dim=5), stream(0, 5, 0)).scale(mu)
        norm = schatten_norm(m.final, 3.0)
        assert not VerifyReport.compare(norm, norm / 2.0, 0.5).passed


class TestDoobEmbedding:
    def test_single_step_trivial_corner_equality(self):
        filt = make_filtration("trivial_full", dims=(2,))
        u0 = gaussian_psd(filt.algebra, stream(93))
        inst = doob_embed([u0], filt)
        outer = 2  # N + 2 with N = 0... actually len(u)+1
        y = inst.y.final
        ysq = (y @ y).symmetrized()
        ceu = inst.extras["conditional"][0]
        d = filt.algebra.dims[0]
        for b in range(inst.big_algebra.n_blocks):
            corner = ysq.data[b][:d, :d]
            assert np.allclose(corner, ceu.data[0], atol=1e-10)

    def test_zero_sequence(self):
        filt = make_filtration("trivial_full", dims=(2,))
        inst = doob_embed([filt.algebra.zero(), filt.algebra.zero()], filt)
        assert inst.y.final.entry_max() == 0.0

    def test_x_norm_interpolation(self):
        filt = make_filtration("corner", dim=3)
        rng = stream(94)
        u = [gaussian_psd(filt.algebra, rng) for _ in range(3)]
        inst = doob_embed(u, filt)
        total = u[0]
        for ui in u[1:]:
            total = total + ui
        for p in (3.0, 4.0):
            lhs = schatten_norm(inst.x_tilde, p)
            rhs = 2.0 ** (1.0 / p) * schatten_norm(total, p / 2.0) ** 0.5
            assert lhs <= rhs + 1e-9

    def test_rejects_non_positive(self):
        filt = make_filtration("trivial_full", dims=(2,))
        h = gaussian_hermitian(filt.algebra, stream(95))
        with pytest.raises(DomainError):
            doob_embed([h @ h, h - filt.algebra.identity() * 10.0], filt)


class TestDualDoobAndStein:
    def test_single_step_is_contraction(self):
        filt = make_filtration("trivial_full", dims=(2,))
        u0 = gaussian_psd(filt.algebra, stream(96))
        for p in (1.0, 2.0, 4.0):
            rep = verify_dual_doob([u0], filt, p)
            assert rep.margin >= 0.0

    def test_p1_is_trace_identity(self):
        filt = make_filtration("corner", dim=3)
        rng = stream(97)
        u = [gaussian_psd(filt.algebra, rng) for _ in range(3)]
        rep = verify_dual_doob(u, filt, 1.0)
        assert rep.constant == 1.0
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-10)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_random_nonadapted(self, p):
        filt = make_filtration("corner", dim=4)
        for seed in range(8):
            rng = stream(98, seed)
            u = [gaussian_psd(filt.algebra, rng) for _ in range(4)]
            assert verify_dual_doob(u, filt, p).passed
            assert verify_stein(u, filt, p).passed

    def test_stein_p2_constant_one(self):
        filt = make_filtration("corner", dim=4)
        rng = stream(99)
        u = [gaussian_psd(filt.algebra, rng) for _ in range(4)]
        rep = verify_stein(u, filt, 2.0)
        assert rep.constant == 1.0
        assert rep.passed

    def test_stein_domain(self):
        filt = make_filtration("corner", dim=3)
        u = [gaussian_psd(filt.algebra, stream(100))]
        with pytest.raises(DomainError):
            verify_stein(u, filt, 1.5)

    def test_dual_doob_domain(self):
        filt = make_filtration("corner", dim=3)
        u = [gaussian_psd(filt.algebra, stream(100))]
        with pytest.raises(DomainError):
            verify_dual_doob(u, filt, 0.5)

    def test_doob_constant_order(self):
        # the dual Doob constant grows like p^2
        ratios = [dual_doob_constant(p) / p**2 for p in (4.0, 8.0, 16.0, 64.0)]
        assert ratios[-1] < ratios[0]
        assert stein_constant(4.0) == pytest.approx(math.sqrt(dual_doob_constant(2.0)))


def _reference_tangent_deviation(a, b, filt):
    """check_tangent's worst deviation with every cluster projection rebuilt
    from its own dense eigh per block, under the same closed-window tie rule
    (an eigenvalue within 1e-10 (1 + ||op||) of an end counts as inside)."""
    worst = 0.0
    for n, (an, bn) in enumerate(zip(a, b)):
        eigs = np.concatenate([np.linalg.eigvalsh(blk) for op in (an, bn)
                               for blk in op.data])
        scale = max(operator_norm(an), operator_norm(bn))
        for cluster in cluster_eigenvalues(eigs, scale):
            lo, hi = cluster.min(), cluster.max()
            ind = []
            for op in (an, bn):
                tol = 1e-10 * (1.0 + operator_norm(op))
                blocks = []
                for blk in op.data:
                    w, v = np.linalg.eigh(0.5 * (blk + blk.conj().T))
                    v = v[:, (w >= lo - tol) & (w <= hi + tol)]
                    blocks.append(v @ v.conj().T)
                ind.append(op.algebra.operator(blocks))
            worst = max(worst, operator_norm(cond_exp(filt, n - 1, ind[0])
                                             - cond_exp(filt, n - 1, ind[1])))
    return worst


def _arrow_case():
    x, y, _ = arrow_martingale_pair(5, stream(102))
    return x.diffs, y.diffs, x.filtration


def _classical_case():
    return classical_tangent_positive_pair(3, 2, stream(104))


def _non_tangent_case():
    filt = make_filtration("corner", dim=3)
    rng = stream(103)
    a = [cond_exp(filt, n, gaussian_hermitian(filt.algebra, rng))
         for n in range(filt.n_levels)]
    return a, [x * 2.0 for x in a], filt


@functools.lru_cache(maxsize=None)
def _positive_tangent_pairs():
    """The 12 (u, v, filtration) trials of a seed-0 `positive-tangent` run at
    depth 4 and matrix_dim 2, the benchmark's tangent-spectral workload."""
    return tuple(classical_tangent_positive_pair(4, 2, stream(0, 9, trial))
                 for trial in range(12))


def _two_call_tangent(a, b, filt):
    """check_tangent with E_{n-1} applied to each cluster cut separately, the
    form that one cond_exp of their difference replaced."""
    worst = 0.0
    for n, (an, bn) in enumerate(zip(a, b)):
        eigs = np.concatenate([e.ravel() for e, _ in an.spectrum + bn.spectrum])
        for cluster in cluster_eigenvalues(eigs, float(np.abs(eigs).max())):
            window = Interval(float(cluster.min()), float(cluster.max()), True, True)
            worst = max(worst, operator_norm(
                cond_exp(filt, n - 1, spectral_projection(an, window))
                - cond_exp(filt, n - 1, spectral_projection(bn, window))))
    return bool(worst <= 1e-8), float(worst)


def _mixed_dims_case():
    """trivial_full on blocks of dims (4, 2), which have no direct sum: a_1
    and its conjugate by a block unitary are tangent."""
    filt = make_filtration("trivial_full", dims=(4, 2), weights=(0.5, 1.5))
    rng = stream(105)
    a1 = gaussian_hermitian(filt.algebra, rng)
    u = filt.algebra.operator([np.linalg.qr(rng.standard_normal((d, d))
                                            + 1j * rng.standard_normal((d, d)))[0]
                               for d in filt.algebra.dims])
    a0 = cond_exp(filt, 0, gaussian_hermitian(filt.algebra, rng))
    return [a0, a1], [a0, (u @ a1 @ u.adjoint()).symmetrized()], filt


def _direct_sum_case():
    """Two benchmark trials side by side on their filtration's 2-copy sum."""
    (u1, v1, filt), (u2, v2, _) = _positive_tangent_pairs()[:2]
    return ([direct_sum([x, y]) for x, y in zip(u1, u2)],
            [direct_sum([x, y]) for x, y in zip(v1, v2)], filt.direct_sum(2))


def _counterexample_case():
    x, y, filt = counterexample_pair(5)
    return x.diffs, y.diffs, filt


_BATCH_CASES = {"arrow": _arrow_case, "counterexample": _counterexample_case,
                "non-tangent": _non_tangent_case, "mixed-dims": _mixed_dims_case,
                "direct-sum": _direct_sum_case}


class TestTangency:
    @pytest.mark.parametrize("case,tangent", [
        (_arrow_case, True), (_classical_case, True), (_non_tangent_case, False)])
    def test_matches_dense_reference(self, case, tangent):
        a, b, filt = case()
        ok, dev = check_tangent(a, b, filt)
        ref = _reference_tangent_deviation(a, b, filt)
        assert ok is tangent
        assert dev == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_equal_sequences_tangent(self):
        filt = make_filtration("corner", dim=4)
        rng = stream(101)
        seq = [cond_exp(filt, n, gaussian_hermitian(filt.algebra, rng))
               for n in range(filt.n_levels)]
        ok, dev = check_tangent(seq, seq, filt)
        assert ok and dev == 0.0

    def test_arrow_pair_tangent(self):
        x, y, _ = arrow_martingale_pair(5, stream(102))
        ok, dev = check_tangent(x.diffs, y.diffs, x.filtration)
        assert ok, dev
        assert tangent_moment_deviation(x.diffs, y.diffs, x.filtration) < 1e-8

    def test_counterexample_pair_tangent(self):
        x, y, filt = counterexample_pair(5)
        ok, dev = check_tangent(x.diffs, y.diffs, filt)
        assert ok, dev

    @pytest.mark.parametrize("mu", [1e-12, 1e-9, 1e-6, 1.0, 1e6])
    def test_non_tangent_at_every_scale(self, mu):
        # the cluster gap is 1e-8 of each summand's own scale: under a gap of
        # 1e-8 (1 + scale) the case read (True, 0.0) at 1e-9 and 1e-12, every
        # eigenvalue one cluster
        a, b, filt = _non_tangent_case()
        a, b = [x * mu for x in a], [x * mu for x in b]
        assert check_tangent(a, b, filt) == per_cluster_tangent(a, b, filt) == (False, 1.0)

    @pytest.mark.parametrize("mu", [1e-12, 1e-9, 1e-6, 1.0, 1e6])
    def test_tangent_at_every_scale(self, mu):
        a, b, filt = _positive_tangent_pairs()[0]
        # the deviation is between projections: rounding at every scale
        a, b = [x * mu for x in a], [x * mu for x in b]
        ok, dev = check_tangent(a, b, filt)
        assert ok and dev <= 1e-14
        assert (ok, dev) == per_cluster_tangent(a, b, filt)

    @pytest.mark.parametrize("mu", [1e-12, 1e-9, 1e-6, 1.0, 1e6])
    def test_non_adapted_rejected_at_every_scale(self, mu):
        # the drift gate is 1e-9 ||a_n||: under 1e-9 (1 + ||a_n||) eps_2 at
        # 1e-12 passed as E_0-measurable
        from ncgl.filtration import rademacher_operator

        filt = make_filtration("rademacher", depth=3)
        seq = [rademacher_operator(filt, 2) * mu] + [filt.algebra.identity() * mu] * 3
        with pytest.raises(DomainError, match="a_0 is not adapted"):
            check_tangent(seq, seq, filt)

    def test_non_adapted_rejected(self):
        filt = make_filtration("rademacher", depth=3)
        eps_late = None
        from ncgl.filtration import rademacher_operator

        bad = [rademacher_operator(filt, 2)] * 4  # not adapted at level 0
        with pytest.raises(DomainError):
            check_tangent(bad, bad, filt)

    @pytest.mark.parametrize("case", [*range(12), "counterexample", "non-tangent"])
    def test_one_cond_exp_per_cluster_matches_two(self, case):
        if case == "counterexample":
            x, y, filt = counterexample_pair(5)
            a, b = x.diffs, y.diffs
        elif case == "non-tangent":
            a, b, filt = _non_tangent_case()
        else:
            a, b, filt = _positive_tangent_pairs()[case]
        ok, dev = check_tangent(a, b, filt)
        ref_ok, ref_dev = _two_call_tangent(a, b, filt)
        assert ok is ref_ok and ok is (case != "non-tangent")
        assert abs(dev - ref_dev) <= 1e-14 * max(1.0, ref_dev)

    @pytest.mark.parametrize("case", [*range(12), "arrow", "counterexample", "non-tangent",
                                      "mixed-dims", "direct-sum"])
    def test_batched_steps_match_the_per_cluster_loop(self, case):
        if isinstance(case, int):
            a, b, filt = _positive_tangent_pairs()[case]
        else:
            a, b, filt = _BATCH_CASES[case]()
        ok, dev = check_tangent(a, b, filt)
        if case == "direct-sum":
            # each summand is clustered on its own: the reference is its worst part
            base = _positive_tangent_pairs()[0][2].algebra
            parts = [per_cluster_tangent([x.parts(base)[k] for x in a],
                                         [x.parts(base)[k] for x in b],
                                         _positive_tangent_pairs()[0][2]) for k in range(2)]
            assert (ok, dev) == max(parts, key=lambda r: r[1])
        else:
            assert (ok, dev) == per_cluster_tangent(a, b, filt)
        assert ok is (case != "non-tangent")

    def test_work_counts_of_the_positive_tangent_call(self, monkeypatch):
        # perfbench's seed-0 positive-tangent call: 12 trials verified as one
        # direct sum of 5 steps, padded to 17 clusters at most.  applications
        # conditions the 10 sequence operators in the adaptedness checks and
        # one batch per step; each operator's spectrum is solved once, and the
        # LAPACK values-only solves left are the deviation norms of the 2 steps
        # whose batch is not exactly diagonal and the norms of sum u_n, sum v_n
        # The cuts compose only the blocks a label keeps an eigenvalue of:
        # 3,072 of the 13,824 (cut, block) pairs of the batches.
        import ncgl.opalgebra as oa

        counts = {"cond_exp": 0, "eigh": 0, "eigvalsh": 0, "cuts": 0, "blocks": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        def composed(vecs, vals):
            out = compose(vecs, vals)
            counts["blocks"] += int(np.prod(out.shape[:-2]))
            return out

        compose = oa._compose
        monkeypatch.setattr(oa, "_compose", composed)
        monkeypatch.setattr(apps, "cond_exp", counted("cond_exp", apps.cond_exp))
        monkeypatch.setattr(apps, "spectral_cuts", counted("cuts", apps.spectral_cuts))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        rows, _ = run(ExperimentConfig(suite="positive-tangent", trials=12, seed=0,
                                       p_grid=(3.0, 4.0), dims={"depth": 4, "matrix_dim": 2}))
        assert len(rows) == 24
        assert counts == {"cond_exp": 15, "eigh": 9, "eigvalsh": 4, "cuts": 10,
                          "blocks": 3072}

    def test_peak_memory_of_a_large_positive_tangent_run(self):
        # run verifies 1,000 trials in groups of at most 64, each one direct
        # sum whose cuts go in batches of at most 2**14 block rows: 4.0 MiB
        # measured, 28.1 MiB as one group; 6.6 MiB was the peak of 200 trials
        # as one group
        cfg = ExperimentConfig(suite="positive-tangent", trials=1000, seed=0)
        run(cfg)
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.6 * 2**20

    def test_one_draw_per_trial_matches_the_per_step_draws(self):
        # each trial draws its depth + 1 PSD stacks in one gaussian_psd call;
        # the reference draws one per step from the same stream, as a lone
        # trial once did, and builds the pair from them
        from ncgl.filtration import rademacher_operator

        depth, dim = 4, 2
        u, v, filt = classical_tangent_positive_pair(depth, dim,
                                                     *(stream(0, 9, t) for t in range(3)))
        base = make_filtration("rademacher", depth=depth, matrix_dim=dim)
        draws = [[gaussian_psd(base.algebra, rng) for _ in range(depth + 1)]
                 for rng in (stream(0, 9, t) for t in range(3))]
        ws = [cond_exp(filt, n - 1, direct_sum(list(w))) for n, w in enumerate(zip(*draws))]
        ident = filt.algebra.identity()
        want_u, want_v = [ws[0]], [ws[0]]
        for n in range(1, depth + 1):
            eps = rademacher_operator(filt, n - 1)
            want_u.append(((ident + eps) @ ws[n]).symmetrized())
            want_v.append(((ident - eps) @ ws[n]).symmetrized())
        for got, want in zip(u + v, want_u + want_v):
            assert np.array_equal(got.stacks[0], want.stacks[0])

    def test_positivity_reads_the_tangency_solve(self):
        # the positivity check of the u_n reads the spectra that tangency
        # solves with vectors: no u_n or v_n is also solved values-only
        for u, v, filt in _positive_tangent_pairs():
            verify_positive_tangent(u, v, filt, (3.0, 4.0))
            assert not any("eigenvalues" in op.__dict__ for op in (*u, *v))
            assert all("spectrum" in op.__dict__ for op in (*u, *v))

    def test_no_values_only_solve_of_the_sequences(self, monkeypatch):
        # the adaptedness scale is read off the spectrum the clustering solves
        # anyway: the values-only solves left are one deviation norm per step
        import ncgl.opalgebra as oa

        solves = []
        monkeypatch.setattr(oa, "_eigvalsh", lambda s: solves.append(1) or _eigvalsh(s))
        for a, b, filt in _positive_tangent_pairs():
            solves.clear()
            check_tangent(a, b, filt)
            assert not any("eigenvalues" in op.__dict__ for op in (*a, *b))
            assert len(solves) == len(a)

    def test_every_cut_passes_the_projection_oracle(self, monkeypatch):
        # check_tangent cuts a whole step as one batch: every summand of it is a cut
        cuts = recorded_cuts(monkeypatch, apps)
        for u, v, filt in _positive_tangent_pairs():
            cuts.clear()
            check_tangent(u, v, filt)
            assert cuts
            for batch in cuts:
                parts = batch.parts(filt.algebra)
                assert len(parts) == batch.algebra.summands
                for part in parts:
                    check_projection(part)

    def test_detects_non_tangent(self):
        ok, dev = check_tangent(*_non_tangent_case())
        assert not ok

    def test_moment_deviation_clusters_like_check_tangent(self):
        # eigenvalues 0 and g are two clusters under the rule of check_tangent,
        # a gap of more than 1e-8 times the largest |eigenvalue| (here g);
        # E_0 of the first moments then differs by g/2.
        g = 1.5e-8
        filt = make_filtration("trivial_full", dims=(2,))
        zero = filt.algebra.zero()
        a = [zero, diagonal_operator(filt.algebra, [[0.0, g]])]
        b = [zero, diagonal_operator(filt.algebra, [[g, g]])]
        assert check_tangent(a, b, filt)[1] == pytest.approx(0.5)
        assert tangent_moment_deviation(a, b, filt) == pytest.approx(0.5 * g / (1.0 + g))


def _conjugated(ops, w):
    """Each operator conjugated by I (x) w, w a unitary on the matrix factor."""
    return [op.algebra.operator(w @ op.data @ w.conj().T).symmetrized() for op in ops]


class TestTangencyMetamorphic:
    """The cluster and tie rules of check_tangent are relative, and tangency
    is invariant under automorphisms that fix the filtration: on the seed-0
    positive-tangent pairs neither rescaling nor conjugation by I (x) w
    changes a verdict."""

    @pytest.mark.parametrize("mu", (1e-3, 1e3))
    def test_rescaling_keeps_the_verdict(self, mu):
        for u, v, filt in _positive_tangent_pairs():
            ok, dev = check_tangent(u, v, filt)
            ok_mu, dev_mu = check_tangent([x * mu for x in u], [x * mu for x in v], filt)
            assert ok_mu is ok
            assert abs(dev_mu - dev) <= 1e-12

    def test_conjugation_keeps_the_verdict_and_both_sides(self):
        g = stream(117).standard_normal((2, 2, 2))
        w = np.linalg.qr(g[0] + 1j * g[1])[0]
        for u, v, filt in _positive_tangent_pairs():
            uw, vw = _conjugated(u, w), _conjugated(v, w)
            ok, dev = check_tangent(u, v, filt)
            ok_w, dev_w = check_tangent(uw, vw, filt)
            assert ok_w is ok
            assert abs(dev_w - dev) <= 1e-12
            for rep, rep_w in zip(verify_positive_tangent(u, v, filt, (1.5, 3.0, 4.0)),
                                  verify_positive_tangent(uw, vw, filt, (1.5, 3.0, 4.0))):
                assert rep_w.meta["hypothesis"] == rep.meta["hypothesis"]
                assert rep_w.lhs == pytest.approx(rep.lhs, rel=1e-12)
                assert rep_w.rhs == pytest.approx(rep.rhs, rel=1e-12)


def _summed(*seqs):
    """Sequences of one filtration side by side, step by step."""
    return [direct_sum(list(ops)) for ops in zip(*seqs)]


class TestPerSummandVerdicts:
    """On a direct sum of trials every gate and cluster scale is each
    summand's own, so every summand gets exactly the verdict it gets alone,
    whatever the scale of the others."""

    def _scaled_pairs(self):
        a, b, filt = _non_tangent_case()
        small = ([x * 1e-6 for x in a], [x * 1e-6 for x in b])
        big = ([x * 1e3 for x in a], [x * 1e3 for x in a])
        return small, big, filt

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_clusters_use_each_summands_scale(self, order):
        small, big, filt = self._scaled_pairs()
        alone = [check_tangent(*small, filt), check_tangent(*big, filt)]
        assert alone == [(False, 1.0), (True, 0.0)]
        pairs = [(small, big)[i] for i in order]
        a, b = _summed(*(p[0] for p in pairs)), _summed(*(p[1] for p in pairs))
        # the whole sum is tangent only if every summand is
        assert check_tangent(a, b, filt.direct_sum(2)) == (False, 1.0)
        oks, devs = check_tangent(a, b, filt.direct_sum(2), per_summand=True)
        assert list(zip(oks, devs)) == [alone[i] for i in order]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_adaptedness_gate_uses_each_summands_norm(self, order):
        from ncgl.filtration import rademacher_operator

        filt = make_filtration("rademacher", depth=3)
        small = [rademacher_operator(filt, 2) * 1e-6] * 4  # not adapted at level 0
        big = [filt.algebra.identity() * 1e4] * 4
        with pytest.raises(DomainError, match="a_0 is not adapted"):
            check_tangent(small, small, filt)
        assert check_tangent(big, big, filt) == (True, 0.0)
        seq = _summed(*([small, big][i] for i in order))
        with pytest.raises(DomainError, match="a_0 is not adapted"):
            check_tangent(seq, seq, filt.direct_sum(2))

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_positivity_gate_uses_each_summands_norm(self, order):
        # an eigenvalue of -1e-9 fails at norm 1 (gate -2e-10) and would pass
        # next to a summand of norm 1e3 under one gate over the whole sum
        filt = make_filtration("trivial_full", dims=(2,))
        small = [filt.algebra.identity() * 0.5, diagonal_operator(filt.algebra, [[-1e-9, 1.0]])]
        big = [filt.algebra.identity() * 1e3] * 2
        with pytest.raises(DomainError, match="the u_n must be positive"):
            verify_positive_tangent(small, small, filt, (3.0,))
        rep, = verify_positive_tangent(big, big, filt, (3.0,))
        assert rep.passed
        u = _summed(*([small, big][i] for i in order))
        for relaxed in (False, True):
            with pytest.raises(DomainError, match="the u_n must be positive"):
                verify_positive_tangent(u, u, filt.direct_sum(2), (3.0,), relaxed=relaxed)

    @pytest.mark.parametrize("relaxed", (False, True))
    def test_reports_match_each_trial_alone(self, relaxed):
        # the seed-0 benchmark trials, trial 1's v doubled so it is not tangent:
        # each trial's reports, the hypothesis label among them, are its own
        pairs = [(u, [x * 2.0 for x in v] if t == 1 else v, filt)
                 for t, (u, v, filt) in enumerate(_positive_tangent_pairs())]
        grid = (1.5, 3.0, 4.0)
        alone = [verify_positive_tangent(u, v, filt, grid, relaxed=relaxed)
                 for u, v, filt in pairs]
        batch = verify_positive_tangent(_summed(*(p[0] for p in pairs)),
                                        _summed(*(p[1] for p in pairs)),
                                        pairs[0][2].direct_sum(len(pairs)), grid,
                                        relaxed=relaxed)
        assert batch == tuple(rep for reps in alone for rep in reps)
        labels = [reps[0].meta["hypothesis"] for reps in alone]
        assert labels == ["unverified" if t == 1 else
                          "relaxed-verified" if relaxed else "tangent" for t in range(12)]


def _composed_counterexample(N, p_grid):
    """tangent_counterexample's quantities along the path the values-only
    count replaced: |x_N| and |y_N| formed by functional calculus, the weak
    trace as the trace of a spectral cut of |y_N|, and the p-norms as traces
    of powers of them."""
    x, y, _ = _counterexample_finals(N)
    abs_x, abs_y = func_calculus(x, np.abs), func_calculus(y, np.abs)
    weak = trace(spectral_projection(abs_y, Interval.at_least(1.0)))
    p_norms = {p: (trace(psd_power(abs_x, p)) ** (1.0 / p),
                   trace(psd_power(abs_y, p)) ** (1.0 / p)) for p in p_grid}
    return weak, trace(abs_x), p_norms


class TestCounterexample:
    @pytest.mark.parametrize("N", [1, 3, 5, 7, 9, 11, 13])
    def test_matches_the_composed_path(self, N):
        weak, l1, p_norms = _composed_counterexample(N, (1.5, 3.0))
        for r, (p, (p_norm_x, p_norm_y)) in zip(tangent_counterexample(N, (1.5, 3.0)),
                                                p_norms.items()):
            assert r.p == p
            assert r.weak_y == weak
            assert r.l1_x == pytest.approx(l1, rel=1e-12, abs=0.0)
            assert r.p_norm_x == pytest.approx(p_norm_x, rel=1e-12, abs=0.0)
            assert r.p_norm_y == pytest.approx(p_norm_y, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("N", [1, 3, 5, 7, 9, 11, 13])
    def test_orbits_match_the_whole_operators(self, N):
        # the N + 1 orbit blocks against all 2^N blocks of the pair, solved
        # whole; the p-norm of y_N adds the same terms in another order
        grid = (1.5, 3.0, 100.0, 1100.0)
        x, y, _ = _counterexample_finals(N)
        for r, p in zip(tangent_counterexample(N, grid), grid):
            assert r.weak_y == abs_spectral_trace(y, Interval.at_least(1.0))
            assert r.l1_x == schatten_norm(x, 1)
            assert r.p_norm_x == schatten_norm(x, p)
            assert r.p_norm_y == pytest.approx(schatten_norm(y, p), rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("N", range(1, 102, 2))
    def test_closed_forms(self, N):
        # |x_N| has eigenvalues sqrt(N) twice per block, |y_N| has |S_N| and
        # N ones, S_N a sum of N Rademacher signs; a few ulps of rounding
        grid = (1.5, 3.0, 100.0)
        for r, p in zip(tangent_counterexample(N, grid), grid):
            moment = math.fsum(math.comb(N, k) * abs(2 * k - N) ** p
                               for k in range(N + 1)) / 2**N
            assert abs(r.weak_y - (N + 1)) <= 2 * math.ulp(N + 1)
            assert r.l1_x == pytest.approx(2.0 * math.sqrt(N), rel=1e-15, abs=0.0)
            assert r.p_norm_x == pytest.approx(2.0 ** (1.0 / p) * math.sqrt(N),
                                               rel=1e-15, abs=0.0)
            assert r.p_norm_y == pytest.approx((moment + N) ** (1.0 / p), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("N,limit", [(13, 2**20), (101, 64 * 2**20)])
    def test_peak_memory_is_the_orbits(self, N, limit):
        # x_13 and y_13 whole are 8,192 blocks of 14 x 14 each, 25 MiB apiece;
        # the orbits of x_101 and y_101 are 102 blocks of 102 x 102, 17 MiB
        tracemalloc.start()
        try:
            tangent_counterexample(N, (1.5,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_one_values_only_solve_per_operator(self, monkeypatch):
        import ncgl.opalgebra as oa

        solves, lapack = [], []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(oa, "_eigvalsh", lambda s: solves.append(s.shape) or _eigvalsh(s))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda s: lapack.append(1) or eigvalsh(s))
        for N in (1, 13, 101):
            solves.clear()
            lapack.clear()
            tangent_counterexample(N, (1.5, 3.0))
            # x_N goes to LAPACK once, exactly diagonal y_N never
            assert solves == [(N + 1, N + 1, N + 1)] * 2
            assert lapack == [1]

    @pytest.mark.parametrize("N,expected", [(3, 4.0), (9, 10.0)])
    def test_weak_trace(self, N, expected):
        (r,) = tangent_counterexample(N, (1.5,))
        assert r.weak_y == pytest.approx(expected, abs=1e-10)

    def test_l1_values(self):
        assert tangent_counterexample(3, (1.5,))[0].l1_x == pytest.approx(
            2 * math.sqrt(3), abs=1e-12)
        assert tangent_counterexample(9, (1.5,))[0].l1_x == pytest.approx(6.0, abs=1e-12)

    def test_ratio_increases(self):
        rs = [tangent_counterexample(N, (1.5,))[0] for N in (3, 5, 7, 9)]
        ratios = [r.ratio for r in rs]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_ratio_exceeds_any_constant_eventually(self):
        assert tangent_counterexample(13, (1.5,))[0].ratio > 1.8
        (r,) = tangent_counterexample(101, (1.5,))
        assert r.weak_y / r.l1_x > 5.0

    def test_p_norm_ratio_grows(self):
        p = 1.5
        vals = []
        for N in (3, 5, 7, 9, 11, 13):
            (r,) = tangent_counterexample(N, (p,))
            assert r.p_norm_y >= (N + 1) ** (1 / p) - 1e-9
            assert r.p_norm_x == pytest.approx(2 ** (1 / p) * math.sqrt(N))
            vals.append((N + 1) ** (1 / p) / (2 ** (1 / p) * math.sqrt(N)))
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_even_n_rejected(self):
        with pytest.raises(DomainError):
            tangent_counterexample(4, (2.0,))

    @pytest.mark.parametrize("N", [-1, 103])
    def test_n_outside_1_to_101_rejected(self, N):
        with pytest.raises(DomainError):
            tangent_counterexample(N, (2.0,))

    @pytest.mark.parametrize("N", [1, 3, 5])
    def test_pair_diffs_match_formula(self, N):
        # dx_0 = dy_0 = 0; dx_n = eps_n (e_{1,n+1} + e_{n+1,1}) and
        # dy_n = eps_n (e_{11} + e_{n+1,n+1}), exactly, from the signs
        x, y, filt = counterexample_pair(N)
        eps = filt.signs
        assert eps.shape == (2**N, N)
        assert x.N == y.N == N
        for n in range(N + 1):
            dx = np.zeros((2**N, N + 1, N + 1), dtype=complex)
            dy = np.zeros_like(dx)
            if n > 0:
                dx[:, 0, n] = dx[:, n, 0] = eps[:, n - 1]
                dy[:, 0, 0] = dy[:, n, n] = eps[:, n - 1]
            assert np.array_equal(x.diffs[n].stacks[0], dx), n
            assert np.array_equal(y.diffs[n].stacks[0], dy), n


def _flip(da, k, gamma):
    """diag(1,..,gamma,..,1) da diag(1,..,gamma,..,1), gamma in slot k (1-based)."""
    d = np.ones(da.shape[0])
    d[k - 1] = gamma
    return (d[:, None] * da) * d[None, :]


class TestHookFlipped:
    """hook_flipped against the two loops it replaced: the partner built in
    arrow_martingale_pair and the final operator b_N of verify_reversed_L."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_matches_the_arrow_pair_loop(self, dim):
        filt = make_filtration("corner", dim=dim)
        for seed in range(20):
            rng = stream(117, dim, seed)
            a = martingale_from_final(filt, gaussian_hermitian(filt.algebra, rng))
            gammas = tuple(int(g) for g in rng.choice((-1, 1), size=dim + 1))
            db = [a.diffs[0]]
            for k in range(1, dim + 1):
                if k >= 2 and gammas[k] == -1:
                    db.append(filt.algebra.operator([_flip(a.diffs[k].data[0], k, -1.0)]))
                else:
                    db.append(a.diffs[k])
            ref = martingale_from_diffs(filt, db, validate=False)
            b = hook_flipped(a, gammas)
            for got, want in zip(b.values + b.diffs, ref.values + ref.diffs):
                assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_matches_the_reversed_l_loop(self, dim):
        filt = make_filtration("corner", dim=dim)
        for seed in range(20):
            rng = stream(118, dim, seed)
            a = martingale_from_final(filt, gaussian_hermitian(filt.algebra, rng))
            gammas = rng.choice((-1.0, 1.0), size=dim - 1)  # the hooks m_2..m_N
            b_final = a.diffs[0].data[0].copy()
            for k in range(1, dim + 1):
                da = a.diffs[k].data[0]
                b_final = b_final + (_flip(da, k, gammas[k - 2]) if k >= 2 else da)
            got = hook_flipped(a, (1, 1, *gammas)).final.data[0]
            assert got.tobytes() == b_final.tobytes()


class TestDominated:
    def test_equal_martingales(self):
        filt = make_filtration("corner", dim=4)
        m = random_martingale(filt, stream(104))
        rep = verify_dominated(m, m, 4.0)
        assert rep.passed and rep.meta["hypothesis"] == "verified"

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_arrow_pairs(self, p):
        for seed in range(8):
            x, y, _ = arrow_martingale_pair(5, stream(105, seed))
            rep = verify_dominated(x, y, p)
            assert rep.passed and rep.meta["hypothesis"] == "verified"

    def test_counterexample_pair_at_p4(self):
        x, y, _ = counterexample_pair(5)
        rep = verify_dominated(x, y, 4.0, kappa=1.0)
        assert rep.passed and rep.meta["hypothesis"] == "verified"

    def test_p_below_two_rejected(self):
        x, y, _ = arrow_martingale_pair(4, stream(106))
        with pytest.raises(DomainError):
            verify_dominated(x, y, 1.5)

    @pytest.mark.parametrize("mu", [1e-13, 1e-12, 1e-9, 1.0, 1e6])
    def test_hypothesis_label_at_every_scale(self, mu):
        # the gates are -1e-8 ||dx_n||^2 and a 1e-8 relative norm comparison:
        # with -1e-8 (1 + ||dx_n||^2) and an absolute 1e-12, y doubled read
        # `verified` at 1e-13
        x, y, _ = arrow_martingale_pair(6, stream(0, 8, 0))
        assert verify_dominated(x.scale(mu), y.scale(mu), 3.0).meta["hypothesis"] == "verified"
        rep = verify_dominated(x.scale(mu), y.scale(2.0 * mu), 3.0)
        assert rep.meta["hypothesis"] == "unverified"


class TestPositiveTangent:
    def test_equal_sequences_constant_route(self):
        filt = make_filtration("corner", dim=3)
        u = adapted_psd_sequence(filt, stream(107))
        rep, = verify_positive_tangent(u, u, filt, [4.0])
        assert rep.passed and rep.meta["hypothesis"] == "tangent"

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_classical_pairs(self, p):
        for seed in range(6):
            u, v, filt = classical_tangent_positive_pair(4, 2, stream(108, seed))
            rep, = verify_positive_tangent(u, v, filt, [p])
            assert rep.passed and rep.meta["hypothesis"] == "tangent"

    def test_low_exponent_route(self):
        u, v, filt = classical_tangent_positive_pair(3, 2, stream(109))
        rep, = verify_positive_tangent(u, v, filt, [1.5])
        assert rep.passed

    def test_arrow_squared_pairs(self):
        from ncgl.instances import arrow_squared_positive_pair

        for seed in range(5):
            u, v, filt = arrow_squared_positive_pair(5, stream(1090, seed))
            rep, = verify_positive_tangent(u, v, filt, [3.0])
            assert rep.passed and rep.meta["hypothesis"] == "tangent"

    def test_relaxed_mode(self):
        # v_n = 2 E_{n-1}(u_n) - u_n satisfies the relaxed hypotheses with
        # kappa = 3 but is not positive
        filt = make_filtration("corner", dim=4)
        u = adapted_psd_sequence(filt, stream(110))
        v = [cond_exp(filt, n - 1, un) * 2.0 - un for n, un in enumerate(u)]
        rep, = verify_positive_tangent(u, v, filt, [4.0], kappa=3.0, relaxed=True)
        assert rep.passed and rep.meta["hypothesis"] == "relaxed-verified"

    @pytest.mark.parametrize("relaxed", (False, True))
    def test_needs_positive_u(self, relaxed):
        filt = make_filtration("corner", dim=3)
        h = gaussian_hermitian(filt.algebra, stream(111))
        with pytest.raises(DomainError, match="the u_n must be positive"):
            verify_positive_tangent([h], [h], filt, [3.0], relaxed=relaxed)

    @pytest.mark.parametrize("relaxed", (False, True))
    @pytest.mark.parametrize("mu", [1e-13, 1e-12, 1e-9, 1.0, 1e6])
    def test_positivity_gate_at_every_scale(self, mu, relaxed):
        # the gate is -1e-10 max ||u_n||: under -1e-10 (1 + max ||u_n||) -mu I
        # passed as positive at 1e-12 and 1e-11
        filt = make_filtration("trivial_full", dims=(2,))
        u = [filt.algebra.identity() * mu] * 2
        rep, = verify_positive_tangent(u, u, filt, (3.0,), relaxed=relaxed)
        assert rep.passed and rep.meta["hypothesis"] in ("tangent", "relaxed-verified")
        with pytest.raises(DomainError, match="the u_n must be positive"):
            verify_positive_tangent([-x for x in u], [-x for x in u], filt, (3.0,),
                                    relaxed=relaxed)

    @pytest.mark.parametrize("relaxed", (False, True))
    def test_needs_sequences_of_one_length(self, relaxed):
        # seed-0 trial 0 of positive-tangent with v cut to its first two terms
        u, v, filt = _positive_tangent_pairs()[0]
        with pytest.raises(DomainError, match="sequences must have the same length"):
            verify_positive_tangent(u, v[:2], filt, (3.0,), relaxed=relaxed)


_EMPTY_INPUT_CALLS = {
    "doob_embed": lambda filt: doob_embed([], filt),
    "verify_dual_doob": lambda filt: verify_dual_doob([], filt, 3.0),
    "verify_stein": lambda filt: verify_stein([], filt, 3.0),
    "refined_doob": lambda filt: refined_doob([], filt, 3.0),
    "verify_positive_tangent": lambda filt: verify_positive_tangent([], [], filt, (3.0,)),
    "verify_positive_tangent-relaxed":
        lambda filt: verify_positive_tangent([], [], filt, (3.0,), relaxed=True),
}


@pytest.mark.parametrize("entry", sorted(_EMPTY_INPUT_CALLS))
def test_empty_sequence_is_a_domain_error(entry):
    with pytest.raises(DomainError, match="need at least one operator"):
        _EMPTY_INPUT_CALLS[entry](make_filtration("corner", dim=3))


class TestRefinedDoob:
    def test_single_step_reduction(self):
        filt = make_filtration("trivial_full", dims=(3,))
        u0 = cond_exp(filt, 0, gaussian_psd(filt.algebra, stream(112)))
        rep = refined_doob([u0], filt, 4.0)
        assert rep.passed

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_random_adapted(self, p):
        filt = make_filtration("corner", dim=4)
        for seed in range(6):
            u = adapted_psd_sequence(filt, stream(113, seed))
            assert refined_doob(u, filt, p).passed

    def test_diagonal_classical_margin(self):
        filt = make_filtration("rademacher", depth=3)
        u = adapted_psd_sequence(filt, stream(114))
        rep = refined_doob(u, filt, 4.0)
        assert rep.passed
        # classical constant is p; our bound is far looser, so a wide margin
        assert rep.lhs * 4.0 <= rep.rhs

    def test_rejects_non_adapted(self):
        filt = make_filtration("corner", dim=3)
        rng = stream(115)
        u = [gaussian_psd(filt.algebra, rng) for _ in range(4)]
        with pytest.raises(DomainError):
            refined_doob(u, filt, 3.0)

    def test_p_domain(self):
        filt = make_filtration("corner", dim=3)
        u = adapted_psd_sequence(filt, stream(115))
        with pytest.raises(DomainError):
            refined_doob(u, filt, 0.5)


class TestUnitaryConjugationInvariance:
    def test_margins_invariant_under_diagonal_phase(self):
        # conjugating by a block unitary commuting with the filtration
        # structure leaves every margin unchanged to relative 1e-8
        filt = make_filtration("corner", dim=4)
        rng = stream(116)
        m = random_martingale(filt, rng)
        phases = np.exp(2j * np.pi * rng.random(4))
        u = np.diag(phases)

        def conj(op):
            return filt.algebra.operator([u @ op.data[0] @ u.conj().T])

        m2 = martingale_from_diffs(filt, [conj(d) for d in m.diffs],
                                   validate=True)
        r1 = verify_bg(m, 4.0)
        r2 = verify_bg(m2, 4.0)
        assert r2.norm_by_square.margin == pytest.approx(
            r1.norm_by_square.margin, rel=1e-8)
        assert r2.square_by_norm.margin == pytest.approx(
            r1.square_by_norm.margin, rel=1e-8)

        v = [(-1.0) ** n for n in range(m.N + 1)]
        t1 = verify_transform(m, v, 4.0)
        t2 = verify_transform(m2, v, 4.0)
        assert t2.margin == pytest.approx(t1.margin, rel=1e-8)

        us = [gaussian_psd(filt.algebra, rng) for _ in range(3)]
        us2 = [conj(w) for w in us]
        d1 = verify_dual_doob(us, filt, 4.0)
        d2 = verify_dual_doob(us2, filt, 4.0)
        assert d2.margin == pytest.approx(d1.margin, rel=1e-8)
