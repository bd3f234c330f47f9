"""Helpers that only the tests use: diagonal operators, the projection
oracle and the cuts to feed it, the per-operator weak trace tau(I(|x|)), the
tie rule as it was first written, the eigensolves of the Hermitian part that
the exact solve paths replaced, reading a JSON report back into rows, the
Gram-projection oracle for conditional expectations (and the error it raises
on a singular Gram system) and the conditional-expectation axioms of a
filtration, sampled, a cross-check of tangency through conditional moments,
the tangency check as it was, one spectral cluster at a time, the cluster
rule on one list of eigenvalues, the spectral cuts composed densely, every
block of every cut, the sampled forms of testing condition (ii) and of the
transform norm below 2 that the exact checks replaced, the homogenised tail bound on the corrected
projections, the Schur ascent as it was when every candidate's quotient
was formed with its ratio, the Cuculescu recursion at one level, as it
ran before the steps of all levels were grown as one tree, the Gaussian
draws as they were made one block at a time, a random martingale as it was
drawn one trial at a time, and the staircase sums of weak_max and
fubini_identity_gap as they were reduced one tree at a time."""

import itertools
import json
import weakref
from functools import reduce

import numpy as np

from ncgl.cli import ReportRow
from ncgl.cuculescu import (
    CuculescuSeq,
    _band_sum,
    _snap_projection,
    _Step,
    corrected_p,
    cuculescu_r,
)
from ncgl.errors import DomainError, NCGLError
from ncgl.filtration import (
    Filtration,
    _checked_level,
    _FullLevel,
    _TrivialLevel,
    cond_exp,
    martingale_from_diffs,
    martingale_from_final,
)
from ncgl.instances import gaussian_hermitian, stream
from ncgl.opalgebra import (
    Interval,
    Operator,
    min_eigenvalue,
    operator_norm,
    schatten_norm,
    spectral_cuts,
    spectral_projection,
    trace,
    trace_pair,
)
from ncgl.reports import VerifyReport, report_tolerance
from ncgl.schur import Pattern


def diagonal_operator(alg, diagonals):
    return alg.operator([np.diag(np.asarray(v, dtype=complex)) for v in diagonals])


def check_projection(op):
    """`op` itself once it is Hermitian with every eigenvalue within 1e-10
    of {0, 1}, from its own eigensolve; DomainError otherwise."""
    if not op.hermitian:
        raise DomainError("projections must be Hermitian")
    for eigs in op.eigenvalues:
        if (np.abs(eigs - np.round(eigs)).max() > 1e-10
                or eigs.min() < -1e-10 or eigs.max() > 1.0 + 1e-10):
            raise DomainError("eigenvalues are not within 1e-10 of {0, 1}")
    return op


def _tie_compare(eigs: np.ndarray, c: float, tol) -> np.ndarray:
    """-1 / 0 / +1 comparison of eigenvalues against an endpoint with snapping."""
    side = np.sign(eigs - c).astype(int)
    side[np.abs(eigs - c) <= tol] = 0
    return side


def tie_rule_contains(interval, eigs, tol) -> np.ndarray:
    """The membership mask of Interval.contains as it was first written, the
    reference for the tie rule: at each finite end, eigenvalues within `tol`
    are snapped onto it, then compared by sign."""
    eigs = np.asarray(eigs, dtype=float)
    mask = np.ones(eigs.shape, dtype=bool)
    if np.isfinite(interval.lower):
        side = _tie_compare(eigs, interval.lower, tol)
        mask &= (side >= 0) if interval.lower_closed else (side > 0)
    if np.isfinite(interval.upper):
        side = _tie_compare(eigs, interval.upper, tol)
        mask &= (side <= 0) if interval.upper_closed else (side < 0)
    return mask


def _hermitian_part(s: np.ndarray) -> np.ndarray:
    return 0.5 * (s + s.conj().swapaxes(-1, -2))


def reference_eigenvalues(op) -> list[np.ndarray]:
    """Per-run eigenvalues as Operator.eigenvalues solved them before it read
    exactness: np.linalg.eigvalsh of the Hermitian part 0.5 (s + s*)."""
    return [np.linalg.eigvalsh(_hermitian_part(s)) for s in op.stacks]


def reference_spectrum(op) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-run (eigenvalues, eigenvectors) as Operator.spectrum solved them,
    on blocks that are not exactly diagonal: np.linalg.eigh of the Hermitian
    part."""
    return [tuple(np.linalg.eigh(_hermitian_part(s))) for s in op.stacks]


def recorded_cuts(monkeypatch, module) -> list:
    """The list that every cut `module`'s spectral_projection returns, and
    every batch of cuts its spectral_cuts returns, is appended to, from this
    call on; a batch is one operator, one summand per cut."""
    cuts = []

    def recording(kernel):
        def record(*args):
            cuts.append(kernel(*args))
            return cuts[-1]
        return record

    for name in ("spectral_projection", "spectral_cuts"):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
    return cuts


def level_recursion(y, level) -> CuculescuSeq:
    """The level-`level` Cuculescu sequence from R_{-1} = I, the reference for
    the tree of steps: at each step the cut of C/level = R_{n-1} (y_n/level)
    R_{n-1} below 1 under the tie rule of Interval.contains, snapped, with
    the five measurements of `_Step`.  A step from R_{n-1} = 0 keeps it.  The
    record's window is the level alone."""
    projections, steps = [], []
    r_prev = y.algebra.identity()
    for n, y_n in enumerate(y.values):
        compressed = (r_prev @ (y_n / level) @ r_prev).symmetrized()
        r_n = r_prev if r_prev.rank() == 0 else \
            _snap_projection(r_prev @ spectral_projection(compressed, Interval.below(1.0)))
        steps.append(_Step(
            norm=operator_norm(y_n, per_summand=True),
            adapted=(cond_exp(y.filtration, n, r_n) - r_n).entry_max(per_summand=True),
            monotone=min_eigenvalue(r_prev - r_n, per_summand=True),
            commutator=[c * level for c in (r_n @ compressed - compressed @ r_n)
                        .entry_max(per_summand=True)],
            top=[-t for t in min_eigenvalue(-(r_n @ y_n @ r_n).symmetrized(),
                                            per_summand=True)],
        ))
        projections.append(r_n)
        r_prev = r_n
    return CuculescuSeq(level, level, tuple(projections), tuple(steps))


def per_block_gaussian_hermitian(alg, rng):
    """gaussian_hermitian as it drew, one block at a time: the reference for
    the draw of one stack per run."""
    blocks = []
    for d in alg.dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append((g + g.conj().T) / 2.0)
    return alg.operator(blocks)


def per_block_gaussian_psd(alg, rng, scale=1.0):
    """gaussian_psd as it drew, one block at a time."""
    blocks = []
    for d in alg.dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = g / np.sqrt(2.0 * d)
        blocks.append(scale * (g @ g.conj().T))
    return alg.operator(blocks)


def cluster_eigenvalues(values: np.ndarray, scale: float) -> list[np.ndarray]:
    """The clusters of one list of eigenvalues, sorted and split where
    neighbours lie more than 1e-8 scale apart: the rule that
    opalgebra.cluster_tops applies to every row at once."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        return []
    return np.split(vals, np.flatnonzero(np.diff(vals) > 1e-8 * scale) + 1)


def dense_cuts(a, masks):
    """spectral_cuts as it composed every (cut, block) pair: V diag(mask) V*
    per mask and block, each exactly diagonal block's diagonal rounded."""
    stacks = []
    for (_, vecs), keep in zip(a.spectrum, masks):
        s = ((vecs * keep.astype(float)[..., None, :]) @ vecs.conj().swapaxes(-1, -2))
        s = s.reshape(-1, *vecs.shape[1:])
        for blk in s:
            if not (blk - np.diag(np.diag(blk))).any():
                np.fill_diagonal(blk, np.round(np.diag(blk).real))
        stacks.append(s)
    return stacks


def per_cluster_tangent(a, b, filtration) -> tuple[bool, float]:
    """check_tangent as it was before it took a step as one batch: per step,
    per cluster of the union spectrum, the two cuts onto the eigenvalues from
    its least to its largest value (compared exactly, with no tie band, so a
    cut holds its cluster alone at every scale), their difference
    conditioned by E_{n-1} and its operator norm."""
    worst = 0.0
    for n, (an, bn) in enumerate(zip(a, b)):
        eigs = np.concatenate([e.ravel() for e, _ in an.spectrum + bn.spectrum])
        for cluster in cluster_eigenvalues(eigs, float(np.abs(eigs).max())):
            lo, hi = cluster.min(), cluster.max()
            cut = [spectral_cuts(x, [((lo <= e) & (e <= hi))[None] for e, _ in x.spectrum])
                   for x in (an, bn)]
            worst = max(worst, operator_norm(cond_exp(filtration, n - 1, cut[0] - cut[1])))
    return bool(worst <= 1e-8), float(worst)


def rows_from_json(path: str) -> list[ReportRow]:
    """Parse a JSON report back into rows (suite name set from the file)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return [
        ReportRow(d["suite"], d["instance"], d["seed"], d["lhs"], d["rhs"],
                  d["constant"], d["margin"], d["pass"], d["ms"])
        for d in payload
    ]


def _matrix_units(d: int) -> list[np.ndarray]:
    """E_ij for i, j < d, in row-major order."""
    return list(np.eye(d * d, dtype=complex).reshape(d * d, d, d))


def _factor_range_basis(d: int, k: int) -> list[np.ndarray]:
    """Spanning set of the corner range at index k on M_d: the k x k matrix
    units, then the identity on the trailing diagonal (if any)."""
    basis = [np.pad(e, (0, d - k)) for e in _matrix_units(k)]
    if k < d:
        basis.append(np.diag((np.arange(d) >= k).astype(complex)))
    return basis


def _supported_on(alg, blocks, m: np.ndarray):
    """The operator equal to m on the given blocks and zero on the others."""
    return alg.operator([m if b in blocks else np.zeros((d, d))
                         for b, d in enumerate(alg.dims)])


def range_basis(level, alg) -> list:
    """Spanning set of the range of a filtration level, read off its data, not
    its map: on each of its ``groups`` runs of blocks, the tensor products of
    the corner matrix units and trailing identities at its indices ``ks`` on
    ``factor_dims``; the identity, or every block's matrix units, for the two
    levels of trivial_full on mixed dimensions."""
    if isinstance(level, _TrivialLevel):
        return [alg.identity()]
    if isinstance(level, _FullLevel):
        return [_supported_on(alg, (b,), m)
                for b, d in enumerate(alg.dims) for m in _matrix_units(d)]
    factor_bases = [_factor_range_basis(d, k) for d, k in zip(level.factor_dims, level.ks)]
    mat_basis = [reduce(np.kron, combo) for combo in itertools.product(*factor_bases)]
    size = alg.n_blocks // level.groups
    return [_supported_on(alg, range(g * size, (g + 1) * size), m)
            for g in range(level.groups) for m in mat_basis]


class NumericalRankError(NCGLError, ArithmeticError):
    """The Gram system of the oracle's range basis is numerically rank
    deficient."""


# per filtration, the (basis, V, G) of each level the oracle has solved
_GRAM_SYSTEMS = weakref.WeakKeyDictionary()


def ce_oracle(filtration, n: int, x):
    """Trace-orthogonal projection of x onto the range of E_n, the reference
    for cond_exp.

    Independent of it: builds the Gram system of :func:`range_basis` in the
    inner product <a, b> = tau(a* b) and solves it directly;
    NumericalRankError when the Gram matrix is singular.  The system of each
    level is built once per filtration.
    """
    n = _checked_level(filtration, n, x)
    alg = filtration.algebra
    sqw = [np.sqrt(w) for w in alg.weights]

    def vec(op) -> np.ndarray:
        return np.concatenate([s * b.ravel() for s, b in zip(sqw, op.data)])

    systems = _GRAM_SYSTEMS.setdefault(filtration, {})
    if n not in systems:
        basis = range_basis(filtration.levels[n], alg)
        V = np.column_stack([vec(op) for op in basis])
        G = V.conj().T @ V
        eigs = np.linalg.eigvalsh(G)
        if eigs.min() <= 1e-12 * max(eigs.max(), 1.0):
            raise NumericalRankError("Gram matrix of the range basis is singular")
        systems[n] = basis, V, G
    basis, V, G = systems[n]
    coeff = np.linalg.solve(G, V.conj().T @ vec(x))
    return sum((op * complex(c) for c, op in zip(coeff, basis)), alg.zero())


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
        for _ in range(20):
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
        eigs = np.concatenate([e.ravel() for e, _ in an.spectrum + bn.spectrum])
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


def sampled_condition_ii(t, seed: int = 0, n_random: int = 50) -> tuple[bool, float]:
    """Testing condition (ii), tau(dy_k^2 p) <= tau(z_N^2 p), sampled over
    the identity, the R_j and the level-2 Q_j for j <= k, and `n_random`
    seeded spectral projections in the range of E_k per level k.  Returns
    (passed, worst tau((z_N^2 - dy_k^2) p) seen).  A pass is no certificate:
    it can miss the negative spectral projection of E_k(z_N^2) - dy_k^2."""
    y = t.y
    seq = cuculescu_r(y, 1.0)
    qseq = cuculescu_r(y, 2.0)
    ident = t.algebra.identity()
    _, z_sq, dy_sq = t.squares
    rng = stream(seed, 7701)
    slack = np.inf
    passed = True
    for k in range(y.N + 1):
        w = z_sq - dy_sq[k]
        candidates = [ident]
        candidates += [seq.R(j) for j in range(k + 1)]
        candidates += [qseq.R(j) for j in range(k + 1)]
        for _ in range(n_random):
            h = cond_exp(t.filtration, k, gaussian_hermitian(t.algebra, rng))
            hi = operator_norm(h)
            cut = float(rng.uniform(-hi, hi)) if hi > 0.0 else 0.0
            candidates.append(spectral_projection(h, Interval.at_least(cut)))
        for p in candidates:
            gain = float(trace_pair(w, p).real)
            ref = float(trace_pair(z_sq, p).real)
            slack = min(slack, gain)
            if gain < -report_tolerance(ref - gain, ref):
                passed = False
    return passed, float(slack)


def sampled_transform_lhs(x, v, p: float, seed: int = 0) -> float:
    """The duality lower bound max_w |tau(y_N w)| / ||w||_{p'} for
    ||y_N||_p, dy_n = v_n dx_n, over 20 seeded Gaussian w."""
    y = martingale_from_diffs(x.filtration, [d * float(c) for d, c in zip(x.diffs, v)],
                              validate=False)
    p_dual = p / (p - 1.0)
    rng = stream(seed, 4242)
    lhs = 0.0
    for _ in range(20):
        w = gaussian_hermitian(x.algebra, rng)
        lhs = max(lhs, abs(float(trace_pair(y.final, w).real))
                  / max(schatten_norm(w, p_dual), 1e-300))
    return lhs


def verify_good_hom(t, B: float, k: int) -> VerifyReport:
    """Homogenized tail bound on the corrected projections at scale B^k, for
    a triple of one trial:

    tau(P_N^{B^{k+2}} - P_N^{B^{k+1}})
        <= 4 B^{-2k} (B-1)^{-2} tau((I - P_N^{B^k})(x_N^2 + z_N^2)).
    """
    if t.algebra.summands > 1:
        raise DomainError("verify_good_hom takes one trial: split a batch with Operator.parts")
    cp = corrected_p(t.y, B, final_only=True)
    N = t.y.N
    x_sq, z_sq, _ = t.squares
    lhs = trace(cp.P(N, k + 2) - cp.P(N, k + 1))
    const = 4.0 * B ** (-2.0 * k) / (B - 1.0) ** 2
    rhs = const * float(trace_pair(x_sq + z_sq, t.algebra.identity() - cp.P(N, k)).real)
    meta = {"B": B, "k": k, "hypothesis": t.hypothesis[0]}
    return VerifyReport.compare(lhs, rhs, const, meta)


def per_band_sums(wm, p: float):
    """a_N^+ and the left side of fubini_identity_gap (divided by B^{h(p-2)})
    of the weak maximal operator `wm`, summed as before the stacked
    reduction: one Operator subtract, scale and add per band from 0, the
    lowest band first, P_N^{B^{k+1}} read through CorrectedSeq.P."""
    cp = wm.corrected
    B, N, alg, q = cp.base, cp.martingale.N, cp.martingale.algebra, p - 2.0
    a = sum(((cp.P(N, high + 1) - col[N]) * (B ** high)
             for high, _, col in reversed(cp.bands)), alg.zero()).symmetrized()
    ident = alg.identity()
    bands = [(hi, lo, col) for hi, lo, col in cp.bands if col[N].rank() < alg.total_dim]
    h = bands[0][0] if bands else 0
    tail = (ident - wm.residual) * (B ** ((cp.k_min - h) * q) / (1.0 - B ** (-q)))
    lhs = sum(((ident - col[N]) * _band_sum(B, q, high - h, high - low + 1)
               for high, low, col in reversed(bands)), alg.zero()) + tail
    return a, lhs


def per_trial_martingale(filtration, rng, sup_norm=None):
    """random_martingale as it drew before the group draw: one trial's final,
    rescaled and conditioned on its own algebra."""
    f = gaussian_hermitian(filtration.algebra, rng)
    if sup_norm is not None:
        norms = operator_norm(f, per_summand=True)
        f = f.summand_scaled(np.asarray([sup_norm]) / np.maximum(norms, 1e-12))
    return martingale_from_final(filtration, f)


def weighted_sum(w, a, b):
    """sum_i w[i] (a[i] - b[i]) over operators of one algebra, one tree's
    staircase as it was reduced before a group's were padded and reduced
    together: its stacked terms added from 0 in order."""
    w = np.array(w, dtype=complex)[:, None, None, None]
    runs = lambda ops: map(np.stack, zip(*(op.stacks for op in ops)))
    terms = [(x - z) * w for x, z in zip(runs(a), runs(b))]
    return Operator(a[0].algebra, tuple(
        np.add.accumulate(np.concatenate([np.zeros_like(t[:1]), t]))[-1] for t in terms))


def per_tree_staircases(wm, p: float):
    """a_N^+ and the left side of fubini_identity_gap (divided by
    B^{h(p-2)}) of the weak maximal operator `wm`, each one `weighted_sum`
    of its own tree, as weak_max and fubini_identity_gap formed them."""
    cp = wm.corrected
    B, N, alg, q = cp.base, cp.martingale.N, cp.martingale.algebra, p - 2.0
    cols = [col[N] for _, _, col in reversed(cp.bands)]
    a = weighted_sum([B ** high for high, _, _ in reversed(cp.bands)],
                     cols[1:] + [alg.identity()], cols).symmetrized()
    bands = [(hi, lo, col) for hi, lo, col in cp.bands if col[N].rank() < alg.total_dim]
    h = bands[0][0] if bands else 0
    w = [_band_sum(B, q, high - h, high - low + 1) for high, low, _ in reversed(bands)]
    w.append(B ** ((cp.k_min - h) * q) / (1.0 - B ** (-q)))
    lhs = weighted_sum(w, [alg.identity()] * len(w),
                       [col[N] for *_, col in reversed(bands)] + [wm.residual])
    return a, lhs


def _eager_norm_quotient(x, p, h):
    """||x||_p and its closed-form forward-difference quotient at step h,
    both formed from one SVD as soon as the norm is asked for."""
    u, s, vh = np.linalg.svd(x)
    if not s.any():
        return 0.0, np.zeros_like(x)
    top = s[0]
    s, h = s / top, h / top
    F = np.sum(s**p)
    w = (u * s ** (p - 1.0)) @ vh
    keep = s > s[0] * x.shape[0] * np.finfo(float).eps
    us, vbar, lam = u[:, keep] * s[keep], vh[keep].T, s[keep] ** 2
    d1 = 0.5 * p * lam ** (0.5 * p - 1.0)
    d2 = 0.5 * p * (0.5 * p - 1.0) * lam ** (0.5 * p - 2.0)
    gap = lam[:, None] - lam[None, :]
    close = np.abs(gap) <= 1e-8 * np.maximum(lam[:, None], lam[None, :])
    psi = np.where(close, 0.5 * (d2[:, None] + d2[None, :]),
                   (d1[:, None] - d1[None, :]) / np.where(close, 1.0, gap))
    v2 = np.abs(vbar) ** 2
    both = 2.0 * (v2 @ d1)[None, :] + 2.0 * (np.abs(us) ** 2 @ psi @ v2.T)
    q = us[:, None, :] * vbar[None, :, :]
    cross = 2.0 * np.sum((q @ psi) * q, axis=-1).real
    second = ((1 + 1j) * both + (1 - 1j) * cross
              + p * (1.0 - p) * (w.real**2 + 1j * w.imag**2) / F)
    return float(top * F ** (1.0 / p)), F ** (1.0 / p - 1.0) * (w + h / (2 * p) * second)


def _eager_ratio_quotient(m, a, p):
    h = 1e-6 * np.linalg.norm(a)
    num, g_num = _eager_norm_quotient(m * a, p, h)
    den, g_den = _eager_norm_quotient(a, p, h)
    if den < 1e-300:
        return 0.0, np.zeros_like(a)
    return num / den, (m * g_num * den - num * g_den) / den**2


def eager_schur_norm_lower(m, p, budget=40, restarts=3, seed=0, starts=None):
    """(value, argmax) of schur_norm_lower as it was when every candidate's
    quotient was formed with its ratio, accepted or not: the reference for
    the ascent that forms a quotient only where it takes a step."""
    mm = (m.entries if isinstance(m, Pattern) else np.asarray(m)).astype(float)
    n = mm.shape[0]
    rng = stream(seed, 3301)
    i, j = np.arange(n)[:, None], np.arange(n)[None, :]
    start_list = [(1.0 / (i - j + 0.5)).astype(complex)]
    for _ in range(max(restarts, 0)):
        start_list.append(rng.standard_normal((n, n))
                          + 1j * rng.standard_normal((n, n)))
    if starts is not None:
        start_list.extend(np.asarray(s, dtype=complex) for s in starts)
    best_val, best_arg = 0.0, start_list[0]
    for a0 in start_list:
        a = a0 / max(np.linalg.norm(a0), 1e-300)
        val, g = _eager_ratio_quotient(mm, a, p)
        lr = 0.5
        for _ in range(budget):
            gn = np.linalg.norm(g)
            if gn < 1e-14:
                break
            cand = a + lr * np.linalg.norm(a) * g / gn
            cand_val, cand_g = _eager_ratio_quotient(mm, cand, p)
            if cand_val > val:
                a, val, g = cand, cand_val, cand_g
                lr = min(lr * 1.3, 1.0)
            else:
                lr *= 0.5
                if lr < 1e-6:
                    break
        if val > best_val:
            best_val, best_arg = val, a
    return float(best_val), best_arg
