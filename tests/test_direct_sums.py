"""Direct sums of independent trials: each summand of a batch must be decided
exactly as its trial alone.

A batch is the direct sum of T copies of one structured filtration, one copy
per trial; conditional expectations, spectral cuts and Cuculescu sequences
then act summand by summand, and every tolerance and reduction is taken per
summand.
"""

import dataclasses

import numpy as np
import pytest

from ncgl.cuculescu import _check_level, cuculescu_r
from ncgl.errors import DomainError, NumericalInstabilityError, StructureError
from ncgl.filtration import ce_oracle, cond_exp, make_filtration, martingale_from_final
from ncgl.goodlambda import (
    Triple,
    check_strong_testing,
    check_testing,
    hypothesis_status,
    verify_core,
    verify_tail,
)
from ncgl.instances import (
    FAMILY_TEMPLATES,
    gaussian_hermitian,
    stream,
    strong_triple_parts,
    triple_family,
)
from ncgl.opalgebra import (
    TracialAlgebra,
    direct_sum,
    min_eigenvalue,
    operator_norm,
    trace,
    trace_pair,
)


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

    def test_reductions_are_per_summand(self):
        base = TracialAlgebra((3, 3, 3), (0.5, 1.0, 2.0))
        rng = stream(90)
        parts = [gaussian_hermitian(base, rng) * s for s in (1e-3, 1.0, 1e3)]
        whole = direct_sum(parts)
        assert whole.algebra.summands == 3
        other = direct_sum([gaussian_hermitian(base, rng) for _ in parts])
        for i, p in enumerate(parts):
            assert _same(whole.summand(i), p)
            assert trace(whole, per_summand=True)[i] == trace(p)
            assert trace_pair(whole, other, per_summand=True)[i] == \
                trace_pair(p, other.summand(i))
            assert operator_norm(whole, per_summand=True)[i] == operator_norm(p)
            assert min_eigenvalue(whole, per_summand=True)[i] == min_eigenvalue(p)
            assert whole.entry_max(per_summand=True)[i] == p.entry_max()


class TestDirectSumFiltration:
    @pytest.mark.parametrize("family", range(len(FAMILY_TEMPLATES)))
    def test_levels_act_per_summand_and_match_the_oracle(self, family):
        base = triple_family(family)
        big = base.direct_sum(3)
        assert big.base is base and base.direct_sum(1) is base
        rng = stream(91, family)
        parts = [gaussian_hermitian(base.algebra, rng) for _ in range(3)]
        x = direct_sum(parts)
        for n in range(big.n_levels):
            got = cond_exp(big, n, x)
            for i, p in enumerate(parts):
                assert _same(got.summand(i), cond_exp(base, n, p))
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
        tail = verify_tail(batch, 2.0)
        for t in range(4):
            alone = Triple(*strong_triple_parts(filt, stream(92, family, t)))
            one = batch.summand(t)
            assert _same(one.x, alone.x) and _same(one.z, alone.z)
            assert all(_same(a, b) for a, b in zip(one.y.values, alone.y.values))
            ok, ax, az = check_strong_testing(alone)
            assert (passed[t], mx[t], mz[t]) == (ok[0], ax[0], az[0])
            assert core[t] == verify_core(alone)[0]
            assert tail[t] == verify_tail(alone, 2.0)[0]
            fresh = cuculescu_r(alone.y, level)
            for r, s in zip(seq.projections, fresh.projections):
                assert _same(r.summand(t), s)


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
    with pytest.raises(DomainError):
        check_testing(_batch(good, bad))


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
                assert _same(r.summand(i), s)
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
