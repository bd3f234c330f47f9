"""Direct sums of independent trials: each summand of a batch must be decided
exactly as its trial alone.

A batch is the direct sum of T copies of one structured filtration, one copy
per trial; conditional expectations, spectral cuts and Cuculescu sequences
then act summand by summand, and every tolerance and reduction is taken per
summand.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgl.cuculescu import _check_level, cuculescu_r, fubini_identity_gap
from ncgl.errors import DomainError, NumericalInstabilityError, StructureError
from ncgl.filtration import (
    Martingale,
    cond_exp,
    make_filtration,
    martingale_direct_sum,
    martingale_from_final,
    square_function,
)
from ncgl.goodlambda import (
    Triple,
    check_strong_testing,
    check_testing,
    hypothesis_status,
    verify_core,
    verify_moment,
    verify_tail,
)
from ncgl.instances import (
    FAMILY_TEMPLATES,
    _gaussian_stacks,
    _psd_sum,
    classical_tangent_positive_pair,
    gaussian_hermitian,
    random_martingale,
    random_martingales,
    stream,
    strong_triple_parts,
    triple_family,
)
from ncgl.opalgebra import (
    Interval,
    TracialAlgebra,
    direct_sum,
    level_thresholds,
    min_eigenvalue,
    operator_norm,
    schatten_norm,
    spectral_projection,
    trace,
    trace_pair,
)

from helpers import ce_oracle, per_block_gaussian_psd, per_trial_martingale


def _same(a, b):
    """Bitwise equality of two operators' blocks."""
    return all(np.array_equal(x, y) for x, y in zip(a.stacks, b.stacks))


class TestDirectSumAlgebra:
    def test_summands_must_be_equal_copies(self):
        assert TracialAlgebra((2,) * 6, (0.5, 1.0) * 3, 3).summands == 3
        for dims, weights, copies in (((2, 3, 3, 2), (1.0,) * 4, 2),
                                      ((2, 2, 2), (1.0,) * 3, 2),
                                      ((2,) * 4, (0.5, 1.0, 1.0, 0.5), 2)):
            with pytest.raises(StructureError):
                TracialAlgebra(dims, weights, copies)

    def test_sums_and_parts_carry_the_solved_spectra(self, monkeypatch):
        # direct_sum joins the eigendecompositions its operators have solved
        # and `parts` splits a sum's, with nothing solved again; each is the
        # one the operator's own solve gives, bit for bit, and so are the
        # thresholds of every tie rule derived from it
        rng = stream(70)
        alg = TracialAlgebra((2, 2), (0.5, 0.5))
        ops = [gaussian_hermitian(alg, rng) * (i + 1.0) for i in range(3)]
        own = [op.spectrum for op in ops]
        total = direct_sum(ops)
        twice = direct_sum([total, total])
        monkeypatch.setattr(np.linalg, "eigh", None)
        carried = [total, twice, *total.parts(alg)]
        solved = [op.spectrum for op in carried]
        monkeypatch.undo()
        fresh = [op.algebra.operator(op.stacks[0]) for op in carried]
        for got, want in zip(solved, [f.spectrum for f in fresh[:2]] + own):
            ((got_e, got_v),), ((want_e, want_v),) = got, want
            assert np.array_equal(got_e, want_e) and np.array_equal(got_v, want_v)
        for op, new in zip(carried, fresh):
            assert all(np.array_equal(a, b)
                       for a, b in zip(level_thresholds(op), level_thresholds(new)))
        assert all(_same(p, op) for p, op in zip(carried[2:], ops))
        assert total.parts(alg.direct_sum(3)) == [total]

    def test_a_sum_carries_what_its_parts_solved(self, monkeypatch):
        # an exactly diagonal part, a full one and one with a diagonal block:
        # the sum reads the Hermitian flag, the eigenvalues and the
        # eigendecomposition its parts solved, with no LAPACK call, and each
        # is that of a fresh solve of the sum, bit for bit
        alg, rng = triple_family(2).algebra, stream(71)  # four 2x2 blocks
        diagonal = alg.operator(np.stack([np.diag(rng.standard_normal(2)) for _ in range(4)]))
        full = gaussian_hermitian(alg, rng)
        mixed = alg.operator(np.concatenate([diagonal.stacks[0][:1], full.stacks[0][1:]]) * 3.0)
        parts = [diagonal, full, mixed]
        for op in parts:
            op.hermitian, op.eigenvalues, op.spectrum
        calls = []
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *args, **kw: calls.append(args))
        total = direct_sum(parts)
        solved = (total.hermitian, total.eigenvalues, total.spectrum)
        norms = operator_norm(total, per_summand=True), min_eigenvalue(total, per_summand=True)
        assert calls == []
        monkeypatch.undo()
        fresh = alg.direct_sum(3).operator(total.stacks[0])
        assert solved[0] and fresh.hermitian
        assert solved[1][0].tobytes() == fresh.eigenvalues[0].tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(solved[2][0], fresh.spectrum[0]))
        assert norms == (operator_norm(fresh, per_summand=True),
                         min_eigenvalue(fresh, per_summand=True))
        # a part that solved nothing, or is not Hermitian, is carried as such
        unsolved = alg.operator(full.stacks[0].copy())
        assert "eigenvalues" not in direct_sum([full, unsolved]).__dict__
        skew = alg.operator(full.stacks[0] * 1j)
        assert skew.hermitian is False and direct_sum([full, skew]).__dict__["hermitian"] is False

    @settings(max_examples=30, derandomize=True)
    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 12]))
    def test_summand_views_invert_each_other(self, seed, copies):
        # one summand on several runs, or sums of 2 and 12 copies of one run:
        # summand_rows and summand_columns undo each other, and each row's
        # reduction is that of the part it holds
        rng = stream(72, seed)
        base = TracialAlgebra((3, 3, 2, 3, 1), (0.5, 1.0, 0.25, 2.0, 1.5)) if copies == 1 \
            else TracialAlgebra((3,) * 4, (0.5, 1.0, 0.25, 2.0))
        parts = [gaussian_hermitian(base, rng) * 10.0 ** rng.integers(-6, 7)
                 for _ in range(copies)]
        a = direct_sum(parts)
        alg = a.algebra
        eigs = [e for e, _ in a.spectrum]
        rows = alg.summand_rows(eigs)
        assert rows.shape == (copies, base.total_dim)
        back = alg.summand_columns(rows)
        assert all(x.shape == e.shape and np.array_equal(x, e) for x, e in zip(back, eigs))
        values = rng.standard_normal(copies)
        cols = alg.summand_columns(values)
        assert [c.shape for c in cols] == [(n, 1) for n, _ in alg.runs]
        assert np.array_equal(alg.summand_rows(cols), np.repeat(values[:, None], base.n_blocks, 1))
        cut = spectral_projection(a, Interval.below(0.0))
        for i, (part, cut_part) in enumerate(zip(a.parts(base), cut.parts(base))):
            assert np.array_equal(rows[i], np.concatenate([e.ravel() for e, _ in part.spectrum]))
            assert operator_norm(a, per_summand=True)[i] == operator_norm(part)
            assert min_eigenvalue(a, per_summand=True)[i] == min_eigenvalue(part)
            assert a.entry_max(per_summand=True)[i] == part.entry_max()
            assert schatten_norm(a, 3.0, per_summand=True)[i] == schatten_norm(part, 3.0)
            assert trace(a, per_summand=True)[i] == trace(part)
            assert cut.summand_ranks[i] == cut_part.rank()

    def test_reductions_are_per_summand(self):
        base = TracialAlgebra((3, 3, 3), (0.5, 1.0, 2.0))
        rng = stream(90)
        parts = [gaussian_hermitian(base, rng) * s for s in (1e-3, 1.0, 1e3)]
        whole = direct_sum(parts)
        assert whole.algebra.summands == 3
        other = direct_sum([gaussian_hermitian(base, rng) for _ in parts])
        for i, (p, w, o) in enumerate(zip(parts, whole.parts(base), other.parts(base))):
            assert _same(w, p)
            assert trace(whole, per_summand=True)[i] == trace(p)
            assert trace_pair(whole, other, per_summand=True)[i] == trace_pair(p, o)
            assert operator_norm(whole, per_summand=True)[i] == operator_norm(p)
            assert min_eigenvalue(whole, per_summand=True)[i] == min_eigenvalue(p)
            assert whole.entry_max(per_summand=True)[i] == p.entry_max()

    @pytest.mark.parametrize("p", [1.0, 3.0, 1e3, math.inf])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["eigenvalues", "svd"])
    def test_schatten_norms_are_per_summand(self, p, hermitian):
        # eight weighted blocks a summand, so the block sums pair up, at three
        # scales and with a zero summand: each norm is its part's own, bit
        # for bit, and the largest factored out is the summand's own
        base = TracialAlgebra((2,) * 8, tuple(np.linspace(0.1, 0.8, 8)))
        rng = stream(94)
        draw = gaussian_hermitian if hermitian else lambda alg, r: alg.operator(
            r.standard_normal((8, 2, 2)) + 1j * r.standard_normal((8, 2, 2)))
        parts = [draw(base, rng) * s for s in (1e-3, 1.0)] + [base.zero()] + \
            [draw(base, rng) * 1e3]
        whole = direct_sum(parts)
        assert whole.hermitian == hermitian
        got = schatten_norm(whole, p, per_summand=True)
        assert np.array(got).tobytes() == \
            np.array([schatten_norm(op, p) for op in parts]).tobytes()
        assert got[2] == 0.0


class TestGroupDraws:
    """The moment suite's group draw and the strong triples' PSD bumps, one
    call on a direct sum each, against the per-trial draws they replaced:
    the same numbers from each stream, to the bit."""

    @staticmethod
    def _bytes(m):
        return [s.tobytes() for op in (*m.values, *m.diffs) for s in op.stacks]

    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_a_group_draw_is_each_trial_alone(self, family):
        # the moment suite's draw of a family's seed-0 trials, sup norm first
        filt, trials = triple_family(family), range(family, 42, len(FAMILY_TEMPLATES))
        rngs = [stream(0, 3, i) for i in trials]
        sups = [float(rng.uniform(0.5, 4.0)) for rng in rngs]
        group = random_martingales(filt, rngs, sups)
        for i, y, rng in zip(trials, group, rngs):
            lone = stream(0, 3, i)
            want = per_trial_martingale(filt, lone, float(lone.uniform(0.5, 4.0)))
            assert y.filtration is filt and self._bytes(y) == self._bytes(want)
            assert rng.standard_normal() == lone.standard_normal()
        unscaled = random_martingales(filt, [stream(98, i) for i in trials])
        for i, y in zip(trials, unscaled):
            assert self._bytes(y) == self._bytes(per_trial_martingale(filt, stream(98, i)))

    @pytest.mark.parametrize("filt", [make_filtration("corner", dim=3),
                                      make_filtration("trivial_full", dims=(1, 2, 3))],
                             ids=["corner", "mixed dims"])
    @pytest.mark.parametrize("sup", [None, 2.5])
    def test_a_group_of_one_is_the_lone_draw(self, filt, sup):
        want = self._bytes(per_trial_martingale(filt, stream(99), sup))
        (one,) = random_martingales(filt, [stream(99)], None if sup is None else [sup])
        assert self._bytes(one) == want
        assert self._bytes(random_martingale(filt, stream(99), sup)) == want

    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_psd_bumps_are_one_product_of_the_lone_draws(self, family):
        alg, scales = triple_family(family).algebra, [0.0, 0.37, 1.0, 0.91]
        bumps = _psd_sum(alg, [_gaussian_stacks(alg, stream(96, family, i))
                               for i in range(len(scales))], scales)
        for i, (part, scale) in enumerate(zip(bumps.parts(alg), scales)):
            want = per_block_gaussian_psd(alg, stream(96, family, i), scale)
            assert [s.tobytes() for s in part.stacks] == [s.tobytes() for s in want.stacks]


class TestDirectSumFiltration:
    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_sums_are_built_once_per_copy_count(self, family):
        filt = triple_family(family)
        alg = filt.algebra
        for k in (2, 3, 17):
            assert alg.direct_sum(k) is alg.direct_sum(k)
            assert filt.direct_sum(k).algebra is alg.direct_sum(k)
        assert alg.direct_sum(2) is not alg.direct_sum(3)
        assert filt.direct_sum(1) is filt and alg.direct_sum(1) is alg

    @pytest.mark.parametrize("calls", [
        [dict(suite="moment", trials=42, p_grid=(3.0, 4.0, 8.0))],
        [dict(suite="goodlambda-core", trials=100), dict(suite="goodlambda-tail", trials=100)],
    ], ids=["moment-grid", "goodlambda-levels"])
    def test_a_second_pass_builds_no_algebra(self, monkeypatch, calls):
        # the seed-0 benchmark passes: every batch's algebra is a sum of a
        # family's algebra, or of such a sum, kept on it, so a second pass
        # builds none
        import ncgl.cli as cli

        configs = [cli.ExperimentConfig(seed=0, **call) for call in calls]
        for cfg in configs:
            cli.run(cfg)
        built, init = [], TracialAlgebra.__post_init__
        monkeypatch.setattr(TracialAlgebra, "__post_init__",
                            lambda alg: built.append(alg) or init(alg))
        for cfg in configs:
            cli.run(cfg)
        assert built == []

    def test_a_second_tangent_spectral_pass_builds_only_the_orbit_algebras(self, monkeypatch):
        # positive-tangent sums the trials on its filtration, built once per
        # process with the sums asked of it; the counterexample builds the
        # algebra of its N + 1 sign-row orbits once per trial
        import ncgl.cli as cli

        configs = [cli.ExperimentConfig(suite="positive-tangent", trials=12, seed=0,
                                        p_grid=(3.0, 4.0), dims={"depth": 4, "matrix_dim": 2}),
                   cli.ExperimentConfig(suite="tangent-counterexample", trials=6, seed=0,
                                        p_grid=(1.5,), dims={"N_list": (3, 5, 7, 9, 11, 13)})]
        for cfg in configs:
            cli.run(cfg)
        built, init = [], TracialAlgebra.__post_init__
        monkeypatch.setattr(TracialAlgebra, "__post_init__",
                            lambda alg: built.append(alg) or init(alg))
        cli.run(configs[0])
        assert built == []
        cli.run(configs[1])
        assert [alg.dims for alg in built] == [(N + 1,) * (N + 1) for N in (3, 5, 7, 9, 11, 13)]

    def test_tangent_pairs_drawn_together_are_each_trials_own(self):
        rngs = lambda: [stream(5, 9, t) for t in range(4)]
        u, v, filt = classical_tangent_positive_pair(3, 2, *rngs())
        alone = [classical_tangent_positive_pair(3, 2, rng) for rng in rngs()]
        base = alone[0][2]
        assert all(f is base for _, _, f in alone) and filt.algebra is base.algebra.direct_sum(4)
        for n in range(len(u)):
            for k, (ua, va, _) in enumerate(alone):
                assert _same(u[n].parts(base.algebra)[k], ua[n])
                assert _same(v[n].parts(base.algebra)[k], va[n])

    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_levels_act_per_summand_and_match_the_oracle(self, family):
        base = triple_family(family)
        big = base.direct_sum(3)
        assert big.algebra.dims == base.algebra.direct_sum(3).dims
        assert base.direct_sum(1) is base
        rng = stream(91, family)
        parts = [gaussian_hermitian(base.algebra, rng) for _ in range(3)]
        x = direct_sum(parts)
        for n in range(big.n_levels):
            got = cond_exp(big, n, x)
            for p, g in zip(parts, got.parts(base.algebra)):
                assert _same(g, cond_exp(base, n, p))
            assert (got - ce_oracle(big, n, x)).entry_max() < 1e-9

    def test_mixed_dimension_levels_do_not_sum(self):
        with pytest.raises(StructureError):
            make_filtration("trivial_full", dims=(2, 1)).direct_sum(2)

    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_batched_triples_are_the_trials_alone(self, family):
        filt = triple_family(family)
        rngs = [stream(92, family, t) for t in range(4)]
        x, y, z = strong_triple_parts(filt, *rngs)
        batch = Triple(x, y, z)
        passed, mx, mz = check_strong_testing(batch)
        level = 1.0
        seq = cuculescu_r(y, level)
        core = verify_core(batch)
        (tail,) = verify_tail(batch, [2.0])
        split = lambda op: op.parts(filt.algebra)
        values = list(zip(*map(split, y.values)))
        for t, (xt, zt) in enumerate(zip(split(x), split(z))):
            alone = Triple(*strong_triple_parts(filt, stream(92, family, t)))
            assert _same(xt, alone.x) and _same(zt, alone.z)
            assert all(_same(a, b) for a, b in zip(values[t], alone.y.values))
            ok, ax, az = check_strong_testing(alone)
            assert (passed[t], mx[t], mz[t]) == (ok[0], ax[0], az[0])
            assert core[t] == verify_core(alone)[0]
            assert tail[t] == verify_tail(alone, [2.0])[0][0]
            fresh = cuculescu_r(alone.y, level)
            for r, s in zip(seq.projections, fresh.projections):
                assert _same(split(r)[t], s)


@pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
def test_resumed_tail_batch_is_the_trials_alone(family):
    # six goodlambda-tail trials of one family as one batch, as `cli.run`
    # builds it: some level branches off the batch's tree after leading steps
    # that another level took on every summand, and each summand is still
    # decided as its trial alone (to the 1e-9 margin contract)
    filt = triple_family(family)
    trials = range(family, 36, len(FAMILY_TEMPLATES))
    batch = Triple(*strong_triple_parts(filt, *(stream(0, 2, i) for i in trials)))
    betas = (1.5, 2.0, 4.0)
    reports = verify_tail(batch, betas)
    leaves = [node.seq for path, node in batch.y.cuculescu_cache.items()
              if len(path) == batch.y.N + 1]
    assert any(s.projections[0] is t.projections[0]
               for i, s in enumerate(leaves) for t in leaves[:i])
    for k, i in enumerate(trials):
        alone = Triple(*strong_triple_parts(filt, stream(0, 2, i)))
        for beta, reps in zip(betas, reports):
            got, want = reps[k], verify_tail(alone, [beta])[0][0]
            assert got.passed == want.passed
            scale = max(1.0, abs(want.lhs), abs(want.rhs))
            for a, b in ((got.lhs, want.lhs), (got.rhs, want.rhs),
                         (got.margin, want.margin)):
                assert abs(a - b) <= 1e-9 * scale, (i, beta, got, want)


def _batch(*triples):
    filt = triples[0].filtration.direct_sum(len(triples))
    y = martingale_from_final(filt, direct_sum([t.y.final for t in triples]))
    return Triple(direct_sum([t.x for t in triples]), y, direct_sum([t.z for t in triples]))


def test_labels_fall_back_to_each_trial_alone():
    # the second trial fails the strong conditions; its label comes from
    # check_testing on its own triple, the first keeps its certificate
    good = Triple(*strong_triple_parts(triple_family(0), stream(79)))
    bad = Triple(good.x * 1e-3, good.y.scale(20.0), good.z * 1e-3)
    labels = hypothesis_status(good) + hypothesis_status(bad)
    assert labels == ("strong-pass", "unverified")
    assert _batch(good, bad).hypothesis == labels
    assert [r.meta["hypothesis"] for r in verify_core(_batch(bad, good))] == \
        ["unverified", "strong-pass"]
    whole = check_testing(_batch(good, bad))
    for i, trial in enumerate((good, bad)):
        assert [a[i] for a in whole] == [a[0] for a in check_testing(trial)]


@pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
def test_testing_conditions_of_a_batch_are_each_trials_own(family):
    # a strong batch with x rescaled in some summands, out of the certificate:
    # one check_testing on the whole batch gives each trial's own flag and
    # slacks, bit for bit, and the labels are each trial's own
    filt = triple_family(family)
    factors = (1.0, 0.9, 0.7, 0.5, 0.1, 0.0)
    x, y, z = strong_triple_parts(filt, *(stream(93, family, t) for t in range(6)))
    batch = Triple(x.summand_scaled(factors), y, z)
    whole = check_testing(batch)
    labels = ()
    for t, f in enumerate(factors):
        xt, yt, zt = strong_triple_parts(filt, stream(93, family, t))
        alone = Triple(xt * f, yt, zt)
        assert [a[t:t + 1].tobytes() for a in whole] == \
            [a.tobytes() for a in check_testing(alone)]
        labels += alone.hypothesis
    assert batch.hypothesis == labels
    assert "strong-pass" in labels and len(set(labels)) > 1


def _two_step(scale: float, top: float):
    """A two-level martingale on M_2 (normalised trace, then identity) with
    final value scale * U diag(top, -0.5) U*, and its triple with x = z
    large enough for the strong conditions."""
    filt = make_filtration("trivial_full", dims=(2,))
    u = np.linalg.qr(np.array([[1.0, 0.3 + 0.2j], [-0.4j, 1.0]]))[0]
    f = scale * (u * np.array([top, -0.5])) @ u.conj().T
    y = martingale_from_final(filt, filt.algebra.operator([f]))
    big = filt.algebra.identity() * (3.0 * scale)
    return Triple(big, y, big)


class TestPerSummandTolerances:
    """A trial of norm ~1e-3 batched with a trial of norm ~1e3, at the level
    1e-3.  The small trial's R_0 y_1 R_0 / level has the eigenvalue 1 - 1e-6:
    outside its own tie band 1e-10 (1 + 1), so it is kept, but inside the
    band 1e-10 (1 + 1e6) that the large trial's norm would give the whole
    sum, where it would be cut."""

    LEVEL = 1e-3

    def test_each_summand_is_its_trial_alone(self):
        small, large = _two_step(1e-3, 1.0 - 1e-6), _two_step(1e3, 0.3)
        batch = _batch(small, large)
        seq = cuculescu_r(batch.y, self.LEVEL)
        for i, trial in enumerate((small, large)):
            alone = cuculescu_r(trial.y, self.LEVEL)
            for r, s in zip(seq.projections, alone.projections):
                assert _same(r.parts(trial.algebra)[i], s)
            assert verify_core(batch, self.LEVEL)[i] == verify_core(trial, self.LEVEL)[0]
        # the small trial keeps its top eigenvector, the large one only the other
        assert seq.final().summand_ranks == (2, 1)

    def test_check_level_scale_is_per_summand(self):
        # an adaptedness defect of 1e-6 on the small summand's last step: its
        # own band 1e-9 (1 + ||y_1|| / level) ~ 2e-9 rejects it; the large
        # trial's scale 1 + 1e6 would accept it
        small, large = _two_step(1e-3, 1.0 - 1e-6), _two_step(1e3, 0.3)
        batch = _batch(small, large)
        seq = cuculescu_r(batch.y, self.LEVEL)
        alone = cuculescu_r(small.y, self.LEVEL)
        _check_level(seq, self.LEVEL)
        _check_level(alone, self.LEVEL)

        def defective(s, summand):
            step = s.steps[-1]
            adapted = list(step.adapted)
            adapted[summand] = 1e-6
            bad = dataclasses.replace(step, adapted=adapted)
            return dataclasses.replace(s, steps=s.steps[:-1] + (bad,))

        with pytest.raises(NumericalInstabilityError, match="summand 0"):
            _check_level(defective(seq, 0), self.LEVEL)
        with pytest.raises(NumericalInstabilityError):
            _check_level(defective(alone, 0), self.LEVEL)


def _moment_bytes(reps):
    """The four reports of a MomentReports and its a_N^+, as bytes."""
    sides = (reps.max_plus, reps.max_minus, reps.moment, reps.moment_simplified)
    return ([(np.array([r.lhs, r.rhs, r.constant, r.margin]).tobytes(), r.passed, r.meta)
             for r in sides], reps.weak_plus.operator.stacks[0].tobytes())


@pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES) - 1))
def test_moment_reports_of_a_batch_are_each_trials_own(family):
    # trials with x shrunk out of the strong certificate, to each label, and
    # a zero martingale, grown together as the moment suite grows them: one
    # verify_moment over the p grid and one fubini_identity_gap per p on the
    # whole batch give each trial's reports and gap as a batch of one on a
    # fresh tree, bit for bit
    filt = triple_family(family)
    trials = [Triple(x * f, y, z) for f, (x, y, z) in zip(
        (1.0, 0.9, 0.7, 0.5, 0.1, 0.0),
        (strong_triple_parts(filt, stream(93, family, t)) for t in range(6)))]
    zero = martingale_from_final(filt, filt.algebra.zero())
    trials.append(Triple(filt.algebra.zero(), zero, filt.algebra.zero()))
    ys = [t.y for t in trials]
    batch = Triple(direct_sum([t.x for t in trials]), martingale_direct_sum(ys),
                   direct_sum([t.z for t in trials]))
    assert set(batch.hypothesis) == {"strong-pass", "testing-pass", "unverified"}
    ps = (3.0, 8.0)
    for p, reps in zip(ps, verify_moment(batch, ys, ps)):
        gaps = fubini_identity_gap([r.weak_plus for r in reps], p)
        assert gaps[-1] == 0.0
        for i, t in enumerate(trials):
            y = Martingale(filt, t.y.values, t.y.diffs)  # a tree of its own
            ((alone,),) = verify_moment(Triple(t.x, y, t.z), [y], [p])
            assert _moment_bytes(reps[i]) == _moment_bytes(alone), (i, p)
            assert gaps[i:i + 1].tobytes() == \
                fubini_identity_gap([alone.weak_plus], p).tobytes(), (i, p)


def _moment_batch(ys):
    """The moment suite's triple of the trials `ys`, each on a fresh tree."""
    fresh = [Martingale(y.filtration, y.values, y.diffs) for y in ys]
    y = martingale_direct_sum(fresh)
    s = square_function(y)
    return Triple(s, y, s), fresh


def _report_bytes(rep):
    return np.array([rep.lhs, rep.rhs, rep.constant, rep.margin]).tobytes(), rep.passed, rep.meta


@pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
def test_grid_moment_is_one_call_per_p(family):
    # one verify_moment over the p grid, its trees grown and walked once for
    # every base, gives per p the reports of a call at that p alone on fresh
    # trees, bit for bit; with B given, every p shares the base
    filt = triple_family(family)
    rngs = [stream(97, family, i) for i in range(3)]
    ys = random_martingales(filt, rngs, [float(rng.uniform(0.5, 4.0)) for rng in rngs])
    ps = (3.0, 4.0, 8.0)
    for B in (None, 1.5):
        by_p = verify_moment(*_moment_batch(ys), ps, B)
        assert len(by_p) == len(ps)
        for p, reps in zip(ps, by_p):
            (alone,) = verify_moment(*_moment_batch(ys), [p], B)
            assert [_moment_bytes(r) for r in reps] == [_moment_bytes(r) for r in alone], (B, p)


@pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
def test_grid_tail_is_one_call_per_beta(family):
    # one verify_tail over the beta grid, its tree grown once to the level
    # and every beta times it, gives per beta the reports of a call at that
    # beta alone on a fresh tree, bit for bit
    filt = triple_family(family)
    x, y, z = strong_triple_parts(filt, *(stream(98, family, i) for i in range(3)))
    fresh = lambda: Triple(x, Martingale(y.filtration, y.values, y.diffs), z)
    betas = (1.5, 2.0, 4.0)
    for level in (1.0, 0.5):
        by_beta = verify_tail(fresh(), betas, level)
        assert len(by_beta) == len(betas)
        for beta, reps in zip(betas, by_beta):
            (alone,) = verify_tail(fresh(), [beta], level)
            assert list(map(_report_bytes, reps)) == list(map(_report_bytes, alone)), \
                (level, beta)


def test_a_failed_grid_raises_the_first_error_of_the_lone_queries(monkeypatch):
    # every meet of y_1 and of -y_0 fails, each with its own message: the
    # walk of the whole group is let go, and each (tree, base) pair is made
    # alone, p by p, the trees of every y before those of every -y, so the
    # group raises the error of y_1 at the first p, as the lone queries made
    # in that order do; trees taken y, -y in turn would meet -y_0 first
    import ncgl.cuculescu as cuculescu

    filt = triple_family(1)
    rngs = [stream(96, i) for i in range(3)]
    ys = random_martingales(filt, rngs, [2.0, 2.5, 3.0])
    t, ys = _moment_batch(ys)
    names = {id(ys[1]): "y_1", id(-ys[0]): "-y_0"}
    meet, batches = cuculescu._meet, []

    def failing(items):
        batches.append({id(m) for m, *_ in items})
        for m, *_ in items:
            if id(m) in names:
                raise np.linalg.LinAlgError(f"no meet on {names[id(m)]}")
        return meet(items)

    monkeypatch.setattr(cuculescu, "_meet", failing)
    with pytest.raises(np.linalg.LinAlgError, match="^no meet on y_1$"):
        verify_moment(t, ys, (3.0, 4.0))
    # the first batch held every tree of the group; the lone walks then ran
    # y_0 and y_1 at the first base alone
    trees = {id(m) for y in ys for m in (y, -y)}
    assert batches[0] == trees and batches[-1] == {id(ys[1])}
    assert {id(ys[0])} in batches and {id(-ys[0])} not in batches[1:]


def test_moment_batch_must_be_its_trials():
    filt = triple_family(0)
    ys = [random_martingale(filt, stream(95, t)) for t in range(2)]
    y = martingale_direct_sum(ys)
    s = square_function(y)
    with pytest.raises(DomainError, match="direct sum"):
        verify_moment(Triple(s, y, s), ys[::-1], [3.0])
    with pytest.raises(DomainError, match="direct sum"):
        verify_moment(Triple(s, y, s), ys[:1], [3.0])
