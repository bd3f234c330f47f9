"""Seeded random instance generation.

Every randomized verification in the package draws its inputs here, from
complex-Gaussian Hermitian ensembles over a named, stable generator, so a
(seed, trial) pair pins the instance exactly.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .filtration import (
    Filtration,
    Martingale,
    cond_exp,
    make_filtration,
    martingale_from_diffs,
    martingale_from_final,
    rademacher_operator,
)
from .opalgebra import Operator, TracialAlgebra, direct_sum, operator_norm, psd_sqrt

__all__ = [
    "stream",
    "gaussian_hermitian",
    "gaussian_psd",
    "random_martingale",
    "random_martingales",
    "strong_triple_parts",
    "triple_family",
    "FAMILY_TEMPLATES",
    "hook_flipped",
    "arrow_martingale_pair",
    "classical_tangent_positive_pair",
    "adapted_psd_sequence",
    "arrow_squared_positive_pair",
]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...) built on Philox counters."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _gaussian_stacks(alg: TracialAlgebra, rng: np.random.Generator) -> list[np.ndarray]:
    """A complex Gaussian (count, d, d) stack per run of the algebra, one draw
    per run: block by block, the real part and then the imaginary part, the
    order in which one draw per block would take them from the stream."""
    stacks = []
    for count, d in alg.runs:
        g = rng.standard_normal((count, 2, d, d))
        stacks.append(g[:, 0] + 1j * g[:, 1])
    return stacks


def gaussian_hermitian(alg: TracialAlgebra, rng: np.random.Generator) -> Operator:
    return Operator(alg, tuple((g + g.conj().swapaxes(-1, -2)) / 2.0
                               for g in _gaussian_stacks(alg, rng)))


def _psd_sum(alg: TracialAlgebra, draws: list, scales: list) -> Operator:
    """scales[i] G G* / (2d) of the stacks G of each of `draws` (one summand's
    `_gaussian_stacks` each), side by side on the direct sum: one product per run."""
    runs = (np.concatenate(run) / np.sqrt(2.0 * run[0].shape[-1]) for run in zip(*draws))
    return Operator(alg.direct_sum(len(draws)), tuple(g @ g.conj().swapaxes(-1, -2) for g in runs)
                    ).summand_scaled(np.repeat(scales, alg.summands))


def gaussian_psd(alg: TracialAlgebra, rng: np.random.Generator, scale: float = 1.0) -> Operator:
    return _psd_sum(alg, [_gaussian_stacks(alg, rng)], [scale])


def _gaussian_martingale(filtration: Filtration, rngs: list, sup_norms=None) -> Martingale:
    """The martingale of a Gaussian Hermitian draw per generator, one summand
    each on ``filtration.direct_sum(len(rngs))``, summand i optionally
    rescaled to operator norm sup_norms[i]."""
    f = direct_sum([gaussian_hermitian(filtration.algebra, rng) for rng in rngs])
    if sup_norms is not None:
        norms = operator_norm(f, per_summand=True)
        f = f.summand_scaled(np.asarray(sup_norms) / np.maximum(norms, 1e-12))
    return martingale_from_final(filtration.direct_sum(len(rngs)), f)


def random_martingales(filtration: Filtration, rngs: list,
                       sup_norms: list | None = None) -> list[Martingale]:
    """Each generator's martingale, its part of one `_gaussian_martingale`:
    drawn, rescaled and conditioned as one direct sum, whose values and their
    negations are each solved once, and shared out by `Martingale.parts`."""
    y = _gaussian_martingale(filtration, rngs, sup_norms)
    for v in (*y.values, *(-y).values):
        v.hermitian, v.eigenvalues
    return y.parts(filtration)


def random_martingale(filtration: Filtration, rng: np.random.Generator,
                      sup_norm: float | None = None) -> Martingale:
    """The martingale of one generator, drawn as `random_martingales` draws
    each, with nothing solved ahead."""
    return _gaussian_martingale(filtration, [rng], None if sup_norm is None else [sup_norm])


def strong_triple_parts(
    filtration: Filtration, *rngs: np.random.Generator
) -> tuple[Operator, Martingale, Operator]:
    """(x_N, y, z_N) built to satisfy the strong testing conditions, one
    summand per generator on ``filtration.direct_sum(len(rngs))``.

    y is a Gaussian martingale with sup norm drawn in [0.5, 4] so that the
    level-1 projection machinery is exercised nontrivially; x and z are square
    roots of sum(dy_k^2) plus independent PSD bumps, which dominate the
    required conditional sums termwise.  Each generator draws its summand's
    parts in the order of a lone trial; the algebra then runs once, and the
    x bumps, then the z bumps, are each one stack product.
    """
    alg = filtration.algebra
    y = _gaussian_martingale(filtration, rngs, [float(rng.uniform(0.5, 4.0)) for rng in rngs])
    sizes = [(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))) for rng in rngs]
    draws = [(_gaussian_stacks(alg, rng), _gaussian_stacks(alg, rng)) for rng in rngs]
    sq = sum((d @ d for d in y.diffs), y.algebra.zero()).symmetrized()
    x, z = (psd_sqrt((sq + _psd_sum(alg, [d[i] for d in draws], [s[i] for s in sizes]))
                     .symmetrized()) for i in (0, 1))
    return x, y, z


# Rotating population of small filtration families for the bulk criteria:
# total dimension <= 16 and at most 6 levels each.
FAMILY_TEMPLATES: tuple[tuple[str, dict], ...] = (
    ("corner", {"dim": 4}),
    ("rademacher", {"depth": 3}),
    ("rademacher", {"depth": 2, "matrix_dim": 2}),
    ("matrix_corner", {"outer_dim": 2, "dim": 3}),
    ("rademacher_corner", {"depth": 2, "matrix_dim": 2}),
    ("trivial_full", {"dims": (3,)}),
)


@cache
def _family(index: int) -> Filtration:
    kind, params = FAMILY_TEMPLATES[index]
    return make_filtration(kind, **params)


def triple_family(index: int) -> Filtration:
    """Deterministic rotation through the small family templates, each
    filtration built once."""
    return _family(index % len(FAMILY_TEMPLATES))


def hook_flipped(a: Martingale, signs) -> Martingale:
    """The tangent partner of a corner-filtration martingale: each step-k
    difference (k >= 2) conjugated by diag(1,..,signs[k],..,1), the sign in
    slot k (1-based), which multiplies the hook of that arrow matrix by it."""
    db = list(a.diffs[:2])
    for k in range(2, a.N + 1):
        s = np.ones(a.algebra.dims[0])
        s[k - 1] = signs[k]
        db.append(a.algebra.operator((s[:, None] * a.diffs[k].data) * s[None, :]))
    return martingale_from_diffs(a.filtration, db, validate=False)


def arrow_martingale_pair(
    dim: int, rng: np.random.Generator
) -> tuple[Martingale, Martingale, tuple[int, ...]]:
    """A corner-filtration martingale and its hook-sign-flipped tangent twin.

    The differences of any corner-filtration martingale are arrow matrices
    (one off-diagonal hook plus a trace-balanced diagonal); flipping the hook
    of step k by a sign gamma_k is a diagonal unitary conjugation, so the two
    martingales have conditionally identical spectral data step by step.
    """
    filt = make_filtration("corner", dim=dim)
    a = martingale_from_final(filt, gaussian_hermitian(filt.algebra, rng))
    gammas = tuple(int(g) for g in rng.choice((-1, 1), size=dim + 1))
    return a, hook_flipped(a, gammas), gammas


@cache
def _rademacher(depth: int, matrix_dim: int) -> Filtration:
    """The filtration of classical_tangent_positive_pair, built once per
    process, as are the sums asked of its algebra (TracialAlgebra._sums)."""
    return make_filtration("rademacher", depth=depth, matrix_dim=matrix_dim)


def classical_tangent_positive_pair(
    depth: int, matrix_dim: int, *rngs: np.random.Generator
) -> tuple[list[Operator], list[Operator], Filtration]:
    """Tangent positive sequences (1 ± eps_n) w_n with predictable PSD w_n
    (u_0 = v_0 = w_0) on the returned direct sum of ``len(rngs)`` copies of the
    rademacher filtration, one summand per generator.  Each generator draws its
    depth + 1 PSD stacks in one `gaussian_psd` call, in the order of a lone
    trial's draw per step; the algebra then runs once."""
    base = _rademacher(depth, matrix_dim)
    # (step, trial, block, d, d): step n of every trial is one stack
    draws = np.stack([gaussian_psd(base.algebra.direct_sum(depth + 1), rng).stacks[0]
                      .reshape(depth + 1, -1, matrix_dim, matrix_dim) for rng in rngs], axis=1)
    filt = base.direct_sum(len(rngs))
    ident = filt.algebra.identity()
    ws = [cond_exp(filt, n - 1, filt.algebra.operator(w.reshape(-1, matrix_dim, matrix_dim)))
          for n, w in enumerate(draws)]
    us, vs = [ws[0]], [ws[0]]
    for n in range(1, depth + 1):
        eps = rademacher_operator(filt, n - 1)
        us.append(((ident + eps) @ ws[n]).symmetrized())
        vs.append(((ident - eps) @ ws[n]).symmetrized())
    return us, vs, filt


def adapted_psd_sequence(
    filtration: Filtration, rng: np.random.Generator
) -> list[Operator]:
    """Adapted positive operators u_n = E_n(PSD draw), one per level."""
    return [
        cond_exp(filtration, n, gaussian_psd(filtration.algebra, rng))
        for n in range(filtration.n_levels)
    ]


def arrow_squared_positive_pair(
    dim: int, rng: np.random.Generator
) -> tuple[list[Operator], list[Operator], Filtration]:
    """Tangent positive sequences from squared arrow differences.

    With (da_k) the differences of a corner martingale and (db_k) their
    hook-sign conjugates, the squares da_k^2 and db_k^2 = S_k da_k^2 S_k are
    adapted, positive and tangent.
    """
    a, b, _ = arrow_martingale_pair(dim, rng)
    u = [(d @ d).symmetrized() for d in a.diffs]
    v = [(d @ d).symmetrized() for d in b.diffs]
    return u, v, a.filtration
