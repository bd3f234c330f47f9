import functools
import math

import numpy as np
import pytest

import ncgl.applications as apps
from ncgl.applications import (
    _counterexample_finals,
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
from ncgl.errors import DomainError
from ncgl.filtration import (
    cond_exp,
    make_filtration,
    martingale_from_diffs,
    martingale_from_final,
    square_function,
)
from ncgl.instances import (
    adapted_psd_sequence,
    arrow_martingale_pair,
    classical_tangent_positive_pair,
    gaussian_hermitian,
    gaussian_psd,
    random_martingale,
    stream,
)
from ncgl.opalgebra import (
    Interval,
    cluster_eigenvalues,
    operator_abs,
    operator_norm,
    psd_power,
    schatten_norm,
    spectral_projection,
    trace,
)

from helpers import (
    check_projection,
    diagonal_operator,
    recorded_cuts,
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
        assert rep.meta["mode"] == "duality-sampled"
        assert rep.passed

    def test_multiplier_validation(self):
        filt = make_filtration("corner", dim=3)
        m = random_martingale(filt, stream(92))
        with pytest.raises(DomainError):
            verify_transform(m, [2.0] * (m.N + 1), 4.0)


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
        eigs = np.concatenate([e.ravel() for e, _ in an.spectrum[0] + bn.spectrum[0]])
        for cluster in cluster_eigenvalues(eigs, float(np.abs(eigs).max())):
            window = Interval(float(cluster.min()), float(cluster.max()), True, True)
            worst = max(worst, operator_norm(
                cond_exp(filt, n - 1, spectral_projection(an, window))
                - cond_exp(filt, n - 1, spectral_projection(bn, window))))
    return bool(worst <= 1e-8), float(worst)


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

    def test_every_cut_passes_the_projection_oracle(self, monkeypatch):
        cuts = recorded_cuts(monkeypatch, apps)
        for u, v, filt in _positive_tangent_pairs():
            check_tangent(u, v, filt)
        assert cuts
        for e in cuts:
            check_projection(e)

    def test_detects_non_tangent(self):
        ok, dev = check_tangent(*_non_tangent_case())
        assert not ok

    def test_moment_deviation_clusters_like_check_tangent(self):
        # eigenvalues 0 and g are one cluster at 1e-8 (2 + ||a||) but two at
        # 1e-8 (1 + ||a||), the rule of check_tangent; E_0 of the first
        # moments then differs by g/2.
        g = 1.5e-8
        filt = make_filtration("trivial_full", dims=(2,))
        zero = filt.algebra.zero()
        a = [zero, diagonal_operator(filt.algebra, [[0.0, g]])]
        b = [zero, diagonal_operator(filt.algebra, [[g, g]])]
        assert check_tangent(a, b, filt)[1] == pytest.approx(0.5)
        assert tangent_moment_deviation(a, b, filt) == pytest.approx(0.5 * g / (1.0 + g))


def _composed_counterexample(N, p_grid):
    """tangent_counterexample's quantities along the path the values-only
    count replaced: |x_N| and |y_N| formed by functional calculus, the weak
    trace as the trace of a spectral cut of |y_N|, and the p-norms as traces
    of powers of them."""
    x, y, _ = _counterexample_finals(N)
    abs_x, abs_y = operator_abs(x), operator_abs(y)
    weak = trace(spectral_projection(abs_y, Interval.at_least(1.0)))
    p_norms = {p: (trace(psd_power(abs_x, p)) ** (1.0 / p),
                   trace(psd_power(abs_y, p)) ** (1.0 / p)) for p in p_grid}
    return weak, trace(abs_x), p_norms


class TestCounterexample:
    @pytest.mark.parametrize("N", [1, 3, 5, 7, 9, 11, 13])
    def test_matches_the_composed_path(self, N):
        weak, l1, p_norms = _composed_counterexample(N, (1.5, 3.0))
        for p, (p_norm_x, p_norm_y) in p_norms.items():
            r = tangent_counterexample(N, p)
            assert r.weak_y == weak
            assert r.l1_x == pytest.approx(l1, rel=1e-12, abs=0.0)
            assert r.p_norm_x == pytest.approx(p_norm_x, rel=1e-12, abs=0.0)
            assert r.p_norm_y == pytest.approx(p_norm_y, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("N,expected", [(3, 4.0), (9, 10.0)])
    def test_weak_trace(self, N, expected):
        r = tangent_counterexample(N, 1.5)
        assert r.weak_y == pytest.approx(expected, abs=1e-10)

    def test_l1_values(self):
        assert tangent_counterexample(3, 1.5).l1_x == pytest.approx(
            2 * math.sqrt(3), abs=1e-12)
        assert tangent_counterexample(9, 1.5).l1_x == pytest.approx(6.0, abs=1e-12)

    def test_ratio_increases(self):
        rs = [tangent_counterexample(N, 1.5) for N in (3, 5, 7, 9)]
        ratios = [r.ratio for r in rs]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_ratio_exceeds_any_constant_eventually(self):
        assert tangent_counterexample(13, 1.5).ratio > 1.8

    def test_p_norm_ratio_grows(self):
        p = 1.5
        vals = []
        for N in (3, 5, 7, 9, 11, 13):
            r = tangent_counterexample(N, p)
            assert r.p_norm_y >= (N + 1) ** (1 / p) - 1e-9
            assert r.p_norm_x == pytest.approx(2 ** (1 / p) * math.sqrt(N))
            vals.append((N + 1) ** (1 / p) / (2 ** (1 / p) * math.sqrt(N)))
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_even_n_rejected(self):
        with pytest.raises(DomainError):
            tangent_counterexample(4, 2.0)

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

    def test_needs_positive_u(self):
        filt = make_filtration("corner", dim=3)
        h = gaussian_hermitian(filt.algebra, stream(111))
        with pytest.raises(DomainError):
            verify_positive_tangent([h], [h], filt, [3.0])


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
