"""Experiment runner: configure an instance family, run a verification suite,
emit a deterministic report.

Usage:
    ncgl --suite goodlambda-core --trials 100 --seed 7 --out core.csv
    ncgl config.json --p 3 --p 4 --format json --out report.json

A configuration JSON may carry any of the fields of ExperimentConfig; command
line flags override it.  Exit code 0 means every emitted row passed, 1 means
at least one verification row failed, 2 signals a configuration error.
Reports are byte-identical across runs for a fixed config and seed; wall
times only enter the emitted rows with --timing.

Every suite maps a config and a group of trials to each trial's rows, and
`run` forms the groups from the suite's stride: one per filtration family in
the good-lambda and moment suites, consecutive runs of at most _GROUP_TRIALS
trials in positive-tangent, each group verified as one direct sum, and one per
trial elsewhere.  With --timing each trial reads its group's time split evenly.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import applications as apps
from . import goodlambda as gl
from .cuculescu import fubini_identity_gap, grow_grids
from .errors import NCGLError
from .filtration import make_filtration, martingale_direct_sum, square_function
from .instances import (
    FAMILY_TEMPLATES,
    adapted_psd_sequence,
    arrow_martingale_pair,
    classical_tangent_positive_pair,
    gaussian_psd,
    random_martingale,
    random_martingales,
    stream,
    strong_triple_parts,
    triple_family,
)
from .reports import VerifyReport
from .schur import (
    reversed_l_bound,
    reversed_l_pattern,
    schur_norm_lower,
    triangular_pattern,
    verify_reversed_L,
)

__all__ = ["ExperimentConfig", "ReportRow", "run", "emit", "main", "SUITES"]

# The smallest value of each ``dims`` key (every entry, for N_list); a key
# means the same thing in every suite that reads it.
_DIMS_MIN = {"dim": 1, "steps": 1, "depth": 0, "matrix_dim": 1, "budget": 1,
             "N_list": 1}

_DEFAULT_BETA = (1.5, 2.0, 4.0)  # every suite accepts it; goodlambda-tail reads it

# The most trials a suite of stride 1 verifies as one direct sum: its memory
# grows with the group (a 1,000-trial run as one group peaked at 28 MiB), and a
# 12-trial run stays one group.
_GROUP_TRIALS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    suite: str
    p_grid: tuple[float, ...] = ()
    dims: dict = field(default_factory=dict)
    trials: int = 10
    seed: int = 0
    B: float | None = None
    beta_grid: tuple[float, ...] = _DEFAULT_BETA
    timing: bool = False

    def __post_init__(self):
        if self.suite not in SUITES:
            raise NCGLError(f"unknown suite {self.suite!r}")
        integer = lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)
        number = lambda v: (isinstance(v, numbers.Real) and not isinstance(v, bool)
                            and math.isfinite(v))
        grid = lambda v: isinstance(v, (list, tuple)) and all(map(number, v))
        for name, ok, expected in (
            ("trials", integer(self.trials), "an integer"),
            ("seed", integer(self.seed), "an integer"),
            ("dims", isinstance(self.dims, dict) and all(
                isinstance(v, (list, tuple)) and len(v) > 0 and all(map(integer, v))
                if k == "N_list" else integer(v) for k, v in self.dims.items()),
             "an object of integers (N_list a non-empty list of them)"),
            ("B", self.B is None or number(self.B), "a finite number"),
            ("p_grid", grid(self.p_grid), "a list of finite numbers"),
            ("beta_grid", grid(self.beta_grid), "a list of finite numbers"),
            ("timing", isinstance(self.timing, bool), "true or false"),
        ):
            if not ok:
                raise NCGLError(f"{name} must be {expected}, got {getattr(self, name)!r}")
        if self.trials < 1:
            raise NCGLError("trials must be at least 1")
        info = _REGISTRY[self.suite]
        for name, given, read in (
                ("p_grid", self.p_grid, info.default_p),
                ("B", self.B is not None, "B" in info.reads),
                ("beta_grid", tuple(self.beta_grid) != _DEFAULT_BETA, "beta_grid" in info.reads)):
            if given and not read:
                raise NCGLError(f"suite {self.suite} reads no {name}")
        if self.B is not None and self.B <= 1:
            raise NCGLError(f"B must exceed 1, got {self.B!r}")
        if any(beta <= 1 for beta in self.beta_grid):
            raise NCGLError(f"every beta must exceed 1, got {list(self.beta_grid)!r}")
        for beta in self.beta_grid:  # goodlambda-tail verifies at level 1
            gl.tail_constant(beta)
        unknown = sorted(set(self.dims) - set(info.dims))
        if unknown:
            raise NCGLError(f"suite {self.suite} reads no dims {unknown}"
                            f" (it reads {sorted(info.dims) or 'none'})")
        object.__setattr__(self, "dims", {**info.dims, **self.dims})
        for key, value in self.dims.items():
            low = _DIMS_MIN[key]
            if value is not None and min(value if key == "N_list" else (value,)) < low:
                raise NCGLError(f"dims {key} must be at least {low}, got {value!r}")
        steps, dim = self.dims.get("steps"), self.dims.get("dim")
        if steps is not None and steps > dim + 1:  # one step per corner level
            raise NCGLError(f"dims steps must be at most dim + 1 = {dim + 1}, got {steps}")
        object.__setattr__(self, "beta_grid", tuple(self.beta_grid))
        ps = tuple(float(p) for p in self.p_grid) or info.default_p
        object.__setattr__(self, "p_grid", ps)
        for p in ps:
            if p < info.p_min or (info.strict and p == info.p_min):
                relation = ">" if info.strict else ">="
                raise NCGLError(f"suite {self.suite} needs p {relation} {info.p_min}")
            if self.B is None and "B" in info.reads and 1.0 + 1.0 / p == 1.0:
                raise NCGLError(f"the default base B = 1 + 1/p rounds to 1 at p = {p!r};"
                                " give B")
            if "B" in info.reads:  # C_{p,B} in the float range, before any trial runs
                gl.moment_constant(p, self.B or 1.0 + 1.0 / p)


@dataclass(frozen=True, slots=True)
class ReportRow:
    suite: str
    instance: str
    seed: int
    lhs: float
    rhs: float
    constant: float
    margin: float
    passed: bool
    ms: int = 0


# The gates of the rows a suite judges itself.  The first two: a <= b within
# rtol max(|a|, |b|), relative to the larger side as in reports, so no pass flag
# depends on scale; the others bound a distance from a closed form.
_LP_ROW_RTOL = 1e-9     # tangent-counterexample: ||y_N||_p >= (N+1)^{1/p}
_SCHUR_ROW_RTOL = 1e-9  # schur-norms: a bound found <= (1 + C_p)/2, and >= the last p's
_FUBINI_TOL = 1e-6      # moment: the relative gap of the Fubini identity
_WEAK_TOL = 1e-8        # tangent-counterexample: tau(I_[1,inf)(|y_N|)) against N + 1
_L1_TOL = 1e-9          # tangent-counterexample: tau(|x_N|) against 2 sqrt(N)


def _at_most(a: float, b: float, rtol: float) -> bool:
    return a - b <= rtol * max(abs(a), abs(b))


def _row(cfg: ExperimentConfig, instance: str, rep: VerifyReport) -> ReportRow:
    return ReportRow(cfg.suite, instance, cfg.seed, rep.lhs, rep.rhs,
                     rep.constant, rep.margin, rep.passed)


# ---------------------------------------------------------------------------
# suite implementations (each maps one trial, or a group of trials, to rows)
# ---------------------------------------------------------------------------


def _family_batched(key, build, rows_of):
    """Suite verifying a group of one filtration family's trials (equal
    trial % 6) as one batch: `build(filt, rngs)` draws every trial's parts,
    each from its own stream in the order of a lone trial, and
    `rows_of(cfg, trials, filt, batch)` gives each trial's rows."""
    def group_rows(cfg, trials):
        filt = triple_family(trials[0])
        batch = build(filt, [stream(cfg.seed, key, i) for i in trials])
        return rows_of(cfg, trials, filt, batch)
    return group_rows

def _strong_triples(filt, rngs):
    """The strong triples of a family's trials as one direct sum."""
    return gl.Triple(*strong_triple_parts(filt, *rngs))

def _goodlambda_core(cfg, trials, filt, t):
    return [[_row(cfg, f"t{i}:{filt.label}", r)] for i, r in zip(trials, gl.verify_core(t))]

def _goodlambda_tail(cfg, trials, filt, t):
    # one breadth-first growth of t.y's tree to level 1 and every beta, where
    # each query would grow its own level from the root
    grow_grids([t.y], (), levels=(1.0, *cfg.beta_grid))
    by_beta = [gl.verify_tail(t, beta) for beta in cfg.beta_grid]
    return [[_row(cfg, f"t{i}:beta={beta}", reps[k])
             for beta, reps in zip(cfg.beta_grid, by_beta)] for k, i in enumerate(trials)]

def _moment_martingales(filt, rngs):
    """Each trial's martingale y, its sup norm drawn first; one group draw."""
    return random_martingales(filt, rngs, [float(rng.uniform(0.5, 4.0)) for rng in rngs])

def _suite_moment(cfg, trials, filt, ys):
    # the Cuculescu trees of every y and -y, grown together to every grid;
    # then the family as one direct sum, each trial keeping its own tree
    grow_grids([m for y in ys for m in (y, -y)],
               [cfg.B or 1.0 + 1.0 / p for p in cfg.p_grid])
    y = martingale_direct_sum(ys)
    s = square_function(y)
    t = gl.Triple(s, y, s)
    rows = [[] for _ in trials]
    for p in cfg.p_grid:
        reps = gl.verify_moment(t, ys, p, cfg.B)
        gaps = fubini_identity_gap([r.weak_plus for r in reps], p)
        for trial, out, r, gap in zip(trials, rows, reps, gaps.tolist()):
            tag = f"t{trial}:p={p}"
            out += [
                _row(cfg, f"{tag}:max+", r.max_plus),
                _row(cfg, f"{tag}:max-", r.max_minus),
                _row(cfg, f"{tag}:moment", r.moment),
                _row(cfg, f"{tag}:moment12p", r.moment_simplified),
                ReportRow(cfg.suite, f"{tag}:fubini", cfg.seed, gap, _FUBINI_TOL, 0.0,
                          _FUBINI_TOL - gap, gap <= _FUBINI_TOL),
            ]
    return rows

def _suite_bg(cfg, trial):
    filt = make_filtration("corner", dim=cfg.dims["dim"])
    m = random_martingale(filt, stream(cfg.seed, 4, trial))
    rows = []
    for p in cfg.p_grid:
        reps = apps.verify_bg(m, p)
        tag = f"t{trial}:p={p}"
        rows += [
            _row(cfg, f"{tag}:norm<=C*S", reps.norm_by_square),
            _row(cfg, f"{tag}:S<=C*norm", reps.square_by_norm),
            _row(cfg, f"{tag}:interp", reps.interpolation),
        ]
    return rows

def _suite_transform(cfg, trial):
    filt = make_filtration("corner", dim=cfg.dims["dim"])
    rng = stream(cfg.seed, 5, trial)
    m = random_martingale(filt, rng)
    kind = trial % 3
    if kind == 0:
        v = [(-1.0) ** n for n in range(m.N + 1)]
    elif kind == 1:
        v = [float(c) for c in rng.uniform(-1.0, 1.0, size=m.N + 1)]
    else:
        v = [float(c) for c in rng.choice((-1.0, 1.0), size=m.N + 1)]
    return [
        _row(cfg, f"t{trial}:p={p}", apps.verify_transform(m, v, p))
        for p in cfg.p_grid
    ]

def _suite_doob(cfg, trial, stein=False):
    dim = cfg.dims["dim"]
    steps = cfg.dims["steps"] or dim + 1
    filt = make_filtration("corner", dim=dim)
    rng = stream(cfg.seed, 6 if not stein else 7, trial)
    u = [gaussian_psd(filt.algebra, rng) for _ in range(steps)]
    rows = []
    for p in cfg.p_grid:
        if stein:
            rep = apps.verify_stein(u, filt, p)
        else:
            rep = apps.verify_dual_doob(u, filt, p)
        rows.append(_row(cfg, f"t{trial}:p={p}", rep))
    return rows

def _suite_counterexample(cfg, trial):
    n_list = cfg.dims["N_list"]
    N = n_list[trial % len(n_list)]
    rows = []
    for p, r in zip(cfg.p_grid, apps.tangent_counterexample(N, cfg.p_grid)):
        ok = (abs(r.weak_y - r.expected_weak) <= _WEAK_TOL
              and abs(r.l1_x - r.expected_l1) <= _L1_TOL)
        rows.append(ReportRow(cfg.suite, f"N={N}:tau", cfg.seed, r.weak_y,
                              r.l1_x, r.ratio, r.l1_x - r.weak_y, ok))
        bound = (N + 1) ** (1.0 / p)
        rows.append(ReportRow(cfg.suite, f"N={N}:p={p}:lp", cfg.seed, bound, r.p_norm_y,
                              0.0, r.p_norm_y - bound,
                              _at_most(bound, r.p_norm_y, _LP_ROW_RTOL)))
    return rows

def _suite_dominated(cfg, trial):
    x, y, _ = arrow_martingale_pair(cfg.dims["dim"], stream(cfg.seed, 8, trial))
    return [
        _row(cfg, f"t{trial}:p={p}", apps.verify_dominated(x, y, p))
        for p in cfg.p_grid
    ]

def _suite_positive_tangent(cfg, trials):
    u, v, filt = classical_tangent_positive_pair(
        cfg.dims["depth"], cfg.dims["matrix_dim"], *(stream(cfg.seed, 9, i) for i in trials))
    reps, ps = apps.verify_positive_tangent(u, v, filt, cfg.p_grid), cfg.p_grid
    return [[_row(cfg, f"t{i}:p={p}", rep) for p, rep in zip(ps, reps[k * len(ps):])]
            for k, i in enumerate(trials)]

def _suite_refined_doob(cfg, trial):
    filt = make_filtration("corner", dim=cfg.dims["dim"])
    u = adapted_psd_sequence(filt, stream(cfg.seed, 10, trial))
    return [
        _row(cfg, f"t{trial}:p={p}", apps.refined_doob(u, filt, p))
        for p in cfg.p_grid
    ]

def _suite_schur_reversed_l(cfg, trial):
    dim = cfg.dims["dim"]
    rng = stream(cfg.seed, 11, trial)
    pat = reversed_l_pattern(rng.integers(0, 2, size=dim - 1),
                             rng.integers(0, 2, size=dim))
    return [
        _row(cfg, f"t{trial}:p={p}",
             verify_reversed_L(pat, p, trials=1, seed=cfg.seed + trial))
        for p in cfg.p_grid
    ]

def _suite_schur_norms(cfg, trial):
    # one trial covers the whole warm-started p sweep
    if trial > 0:
        return []
    dim = cfg.dims["dim"]
    pat = triangular_pattern(dim)
    rows = []
    prev = None
    prev_val = 0.0
    for p in sorted(cfg.p_grid):
        starts = [prev] if prev is not None else None
        val, arg = schur_norm_lower(pat, p, budget=cfg.dims["budget"], restarts=2,
                                    seed=cfg.seed, starts=starts)
        ub = reversed_l_bound(p)
        ok = _at_most(val, ub, _SCHUR_ROW_RTOL) and _at_most(prev_val, val, _SCHUR_ROW_RTOL)
        rows.append(ReportRow(cfg.suite, f"triangular-{dim}:p={p}", cfg.seed,
                              val, ub, ub, ub - val, ok))
        prev, prev_val = arg, val
    return rows


def _each(fn):
    """The suite of a group of trials made of `fn`, the suite of one trial."""
    return lambda cfg, trials: [fn(cfg, trial) for trial in trials]


@dataclass(frozen=True)
class _Suite:
    """One registry record: group callable (config and trials to each trial's
    rows), default p grid (empty: the suite reads no p), p domain, constants
    string of the summary, the ``dims`` keys the suite reads with their
    defaults, and how `run` groups its trials (``stride``)."""

    rows: Callable
    default_p: tuple[float, ...]
    constants: str
    p_min: float = -math.inf
    strict: bool = False    # p > p_min instead of p >= p_min
    dims: dict = field(default_factory=dict)
    reads: tuple[str, ...] = ()  # which of the fields B and beta_grid it reads
    stride: int = 0  # groups range(first, trials, stride): 6 by family, 1 all, 0 one each


_REGISTRY = {
    "goodlambda-core": _Suite(_family_batched(1, _strong_triples, _goodlambda_core), (), "2",
                              stride=len(FAMILY_TEMPLATES)),
    "goodlambda-tail": _Suite(_family_batched(2, _strong_triples, _goodlambda_tail), (),
                              "4/(beta-1)^2", reads=("beta_grid",), stride=len(FAMILY_TEMPLATES)),
    "moment": _Suite(
        _family_batched(3, _moment_martingales, _suite_moment), (3.0, 4.0, 8.0),
        "C_{p,B} = (2p B^{p-1}(B-1)/(1-B^-p))^{1/p} "
        "* 2 B^{p/2}/((B-1) sqrt(1-B^{2-p})); simplified "
        "12p/sqrt(1-(1+1/p)^{2-p})", 2.0, strict=True,
        reads=("B",), stride=len(FAMILY_TEMPLATES)),
    "bg": _Suite(
        _each(_suite_bg), (3.0, 4.0, 8.0),
        "sqrt(2)*12p/sqrt(1-(1+1/p)^{2-p}) and "
        "12p sqrt(1+2^{2-4/p}) (1+2^{p-2})^{1/p} / sqrt(1-(1+1/p)^{2-p})", 2.0,
        dims={"dim": 5}),
    "transform": _Suite(
        _each(_suite_transform), (3.0, 4.0),
        "12q sqrt(1+2^{2-4/q}) / sqrt(1-(1+1/q)^{2-q}), q = max(p, p/(p-1))", 1.0, strict=True,
        dims={"dim": 5}),
    # steps None: one step per corner level, dim + 1
    "doob": _Suite(
        _each(lambda cfg, t: _suite_doob(cfg, t, stein=False)), (3.0, 4.0),
        "(sqrt(2) * 24p/sqrt(1-(1+1/(2p))^{2-2p}) * 2^{1/(2p)})^2", 1.0,
        dims={"dim": 3, "steps": None}),
    "stein": _Suite(_each(lambda cfg, t: _suite_doob(cfg, t, stein=True)), (3.0, 4.0),
                    "sqrt(dual-Doob constant at p/2)", 2.0,
                    dims={"dim": 3, "steps": None}),
    "tangent-counterexample": _Suite(
        _each(_suite_counterexample), (1.5,), "(N+1)/(2 sqrt(N))", 1.0,
        dims={"N_list": (3, 5, 7, 9, 11, 13)}),
    "dominated": _Suite(
        _each(_suite_dominated), (3.0, 4.0),
        "kappa * 12p sqrt(1+2^{2-4/p}) / sqrt(1-(1+1/p)^{2-p})", 2.0,
        dims={"dim": 6}),
    "positive-tangent": _Suite(
        _suite_positive_tangent, (3.0, 4.0),
        "1 + (1+kappa) C_p (p>2); BG-squared route (p<=2)", 1.0,
        dims={"depth": 4, "matrix_dim": 2}, stride=1),
    "refined-doob": _Suite(_each(_suite_refined_doob), (3.0, 4.0),
                           "(1 + 3(1 + 2 C_p))/2", 1.0, dims={"dim": 4}),
    "schur-reversed-l": _Suite(_each(_suite_schur_reversed_l), (4.0,), "(1 + C_p)/2", 2.0,
                               dims={"dim": 8}),
    "schur-norms": _Suite(_each(_suite_schur_norms), (4.0, 8.0, 16.0),
                          "(1 + C_p)/2 as upper reference", 2.0,
                          dims={"dim": 32, "budget": 20}),
}

# run() looks its group callable up here on every call, so callers may swap
# entries; suite metadata is read from _REGISTRY.
SUITES = {name: suite.rows for name, suite in _REGISTRY.items()}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run(config: ExperimentConfig) -> tuple[list[ReportRow], dict]:
    """Execute a suite group by group, `range(first, trials, stride)` for its
    registry stride: a filtration family's trials (equal trial % 6), one, or
    all trials, these in consecutive groups of at most _GROUP_TRIALS; returns
    rows in trial order and a summary.  With config.timing each trial's ms is
    its group's time split evenly."""
    suite = SUITES[config.suite]
    stride, n = _REGISTRY[config.suite].stride or config.trials, config.trials
    groups = ([range(i, min(i + _GROUP_TRIALS, n)) for i in range(0, n, _GROUP_TRIALS)]
              if stride == 1 else [range(first, n, stride) for first in range(min(stride, n))])
    t_start = time.perf_counter()
    by_trial = {}
    for group in map(list, groups):
        t0 = time.perf_counter()
        got = suite(config, group)
        ms = int(round((time.perf_counter() - t0) * 1000.0 / len(group)))
        for trial, got_rows in zip(group, got, strict=True):
            by_trial[trial] = [replace(r, ms=ms) if config.timing else r for r in got_rows]
    rows = [r for trial in range(config.trials) for r in by_trial[trial]]
    failures = sum(not r.passed for r in rows)
    summary = {
        "suite": config.suite,
        "rows": len(rows),
        "failures": failures,
        "min_margin": min((r.margin for r in rows), default=0.0),
        "seed": config.seed,
        "p_grid": list(config.p_grid),
        "elapsed_s": round(time.perf_counter() - t_start, 3),
        "constants": _REGISTRY[config.suite].constants,
    }
    return rows, summary


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

_CSV_HEADER = "suite,instance,seed,lhs,rhs,constant,margin,pass,ms"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit(rows: list[ReportRow], format: str, path: str) -> None:
    """Write rows to a CSV or JSON file, one cell per field; floats carry 17 significant digits."""
    if format == "csv":
        lines = [",".join(_fmt(v) if f.type == "float" else str(v)
                          for f, v in zip(fields(ReportRow), astuple(r))) for r in rows]
        text = "\n".join([_CSV_HEADER, *lines]) + "\n"
    elif format == "json":
        # json writes a float's repr, the same double as the CSV's 17 digits
        payload = [dict(zip(_CSV_HEADER.split(","), astuple(r))) for r in rows]
        text = json.dumps(payload, indent=1) + "\n"
    else:
        raise NCGLError(f"unknown format {format!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_config(flags: dict) -> ExperimentConfig:
    """The config file's fields, overridden by each flag given (its dest is the
    field it sets; --dim sets dims["dim"])."""
    base: dict = {}
    if "config" in flags:
        with open(flags.pop("config"), encoding="utf-8") as fh:
            base = {**json.load(fh)}  # TypeError unless a JSON object
    if "dim" in flags:
        base["dims"] = dict(base.get("dims", {}), dim=flags.pop("dim"))
    base.update(flags)
    if "suite" not in base:
        raise NCGLError("a suite must be given (config file or --suite)")
    extra = set(base) - set(ExperimentConfig.__dataclass_fields__)
    if extra:
        raise NCGLError(f"unknown config fields: {sorted(extra)}")
    return ExperimentConfig(**base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncgl", argument_default=argparse.SUPPRESS,
        description="Run a martingale-inequality verification suite.")
    parser.add_argument("config", nargs="?", help="JSON config file")
    parser.add_argument("--suite", choices=sorted(SUITES))
    parser.add_argument("--p", dest="p_grid", metavar="P", action="append", type=float,
                        help="exponent (repeatable)")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dim", type=int)
    parser.add_argument("--B", type=float)
    parser.add_argument("--beta", dest="beta_grid", metavar="BETA", action="append", type=float)
    parser.add_argument("--out", default=None, help="report file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--timing", action="store_true",
                        help="record wall time per trial, its group's time split "
                             "evenly over the group's trials (breaks byte-level "
                             "reproducibility of the report)")
    flags = vars(parser.parse_args(argv))
    out, fmt = flags.pop("out"), flags.pop("format")

    try:
        config = _build_config(flags)
    except (NCGLError, OSError, json.JSONDecodeError, TypeError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        with np.errstate(over="ignore"):  # an overflowed report side raises
            rows, summary = run(config)
    except (NCGLError, ArithmeticError, np.linalg.LinAlgError, MemoryError) as e:
        print(f"run error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2

    if out:
        try:
            emit(rows, fmt, out)
        except (OSError, NCGLError) as e:
            print(f"output error: {e}", file=sys.stderr)
            return 2

    print(f"suite {summary['suite']}: {summary['rows']} rows, "
          f"{summary['failures']} failures, min margin "
          f"{summary['min_margin']:.6g}, elapsed {summary['elapsed_s']}s")
    print(f"constants: {summary['constants']}")
    return 0 if summary["failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
