"""Helpers that only the tests use: diagonal operators, reading a JSON report
back into rows, the conditional-expectation axioms of a filtration, sampled,
and a cross-check of tangency through conditional moments."""

import json

import numpy as np

from ncgl.cli import ReportRow
from ncgl.filtration import Filtration, cond_exp
from ncgl.instances import gaussian_hermitian
from ncgl.opalgebra import cluster_eigenvalues, min_eigenvalue, operator_norm, trace


def diagonal_operator(alg, diagonals):
    return alg.operator([np.diag(np.asarray(v, dtype=complex)) for v in diagonals])


def rows_from_json(path: str) -> list[ReportRow]:
    """Parse a JSON report back into rows (suite name set from the file)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return [
        ReportRow(d["suite"], d["instance"], d["seed"], d["lhs"], d["rhs"],
                  d["constant"], d["margin"], d["pass"], d["ms"])
        for d in payload
    ]


def validate_filtration(filtration, rng: np.random.Generator, samples: int = 6) -> dict:
    """Run the conditional-expectation axioms on random samples.

    Returns the worst deviation observed for each axiom; the caller
    decides on tolerances.
    """
    alg = filtration.algebra
    ident = alg.identity()
    dev = {k: 0.0 for k in
           ("unital", "trace", "idempotent", "commute", "positive",
            "hermitian", "bimodule")}

    def _upd(key, val):
        dev[key] = max(dev[key], float(val))

    for n, lvl in enumerate(filtration.levels):
        en_i = lvl.apply(ident)
        _upd("unital", (en_i - ident).entry_max())
        for _ in range(samples):
            x = gaussian_hermitian(alg, rng)
            ex = lvl.apply(x)
            _upd("trace", abs(trace(ex) - trace(x)))
            _upd("idempotent", (lvl.apply(ex) - ex).entry_max())
            _upd("hermitian", (ex - ex.adjoint()).entry_max())
            psd = x @ x
            _upd("positive", max(0.0, -min_eigenvalue(lvl.apply(psd))))
            a = lvl.apply(gaussian_hermitian(alg, rng))
            b = lvl.apply(gaussian_hermitian(alg, rng))
            _upd("bimodule", (lvl.apply(a @ x @ b) - a @ ex @ b).entry_max())
        for m in range(filtration.n_levels):
            if m == n:
                continue
            lo = filtration.levels[min(m, n)]
            x = gaussian_hermitian(alg, rng)
            _upd("commute",
                 (filtration.levels[m].apply(lvl.apply(x)) - lo.apply(x)).entry_max())
    return dev


def tangent_moment_deviation(a, b, filtration: Filtration) -> float:
    """Cross-validation of tangency through conditional moments.

    Compares E_{n-1}(a_n^m) and E_{n-1}(b_n^m) for m up to the number of
    spectral clusters minus one, normalized by the m-th power of the scale.
    """
    worst = 0.0
    for n, (an, bn) in enumerate(zip(a, b)):
        eigs = np.concatenate([e.ravel() for e, _ in an.spectrum[0] + bn.spectrum[0]])
        norm = float(np.abs(eigs).max())
        scale = 1.0 + norm
        n_clusters = len(cluster_eigenvalues(eigs, norm))
        pa = an.algebra.identity()
        pb = bn.algebra.identity()
        for m in range(1, n_clusters):
            pa = pa @ an
            pb = pb @ bn
            dev = operator_norm(cond_exp(filtration, n - 1, pa)
                                - cond_exp(filtration, n - 1, pb))
            worst = max(worst, dev / scale ** m)
    return float(worst)
