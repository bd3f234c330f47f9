"""Workload definitions for the ncgl benchmark.

A workload is a fixed list of ``ncgl.cli.run`` calls (one "pass").  Each call
names a suite, its parameters and the number of report rows it must produce,
so a lost or truncated run shows up as missing rows.  The seed is not part of
the definition: it comes from the command line.

The reasons each workload exists are in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json

# Every moment / good-lambda trial draws its filtration from
# ncgl.instances.FAMILY_TEMPLATES by trial index; the set-up phase builds
# these six once, as ncgl.instances.triple_family caches them.
N_FAMILIES = 6

WORKLOADS: dict[str, dict] = {
    "moment-grid": {
        "why": "moment suite at p in {3,4,8}, B = 1+1/p: the Cuculescu level "
               "grid inside weak_max, with per-level validation",
        "families": True,
        "calls": [
            # 42 trials = each family template seven times; 15 rows per trial
            # (max+, max-, moment, moment12p, fubini at each of three p)
            {"suite": "moment", "trials": 42, "p_grid": [3.0, 4.0, 8.0],
             "rows": 42 * 15},
        ],
    },
    "goodlambda-levels": {
        "why": "core and tail good-lambda checks: Cuculescu sequences at a "
               "few fixed levels, no grid; short trials expose per-call cost",
        "families": True,
        "calls": [
            {"suite": "goodlambda-core", "trials": 100, "rows": 100},
            {"suite": "goodlambda-tail", "trials": 100,
             "beta_grid": [1.5, 2.0, 4.0], "rows": 300},
        ],
    },
    "tangent-spectral": {
        "why": "positive-tangent and the weak-type counterexample: spectral "
               "calculus and per-block loops, no Cuculescu work",
        "families": False,
        "calls": [
            {"suite": "positive-tangent", "trials": 12, "p_grid": [3.0, 4.0],
             "dims": {"depth": 4, "matrix_dim": 2}, "rows": 24},
            # the counterexample is defined for odd N only
            {"suite": "tangent-counterexample", "trials": 6, "p_grid": [1.5],
             "dims": {"N_list": [3, 5, 7, 9, 11, 13]}, "rows": 12},
        ],
    },
    "schur-ascent": {
        "why": "schur-norms gradient ascent on the triangular pattern at dim "
               "16: the only workload whose work is SVDs",
        "families": False,
        "calls": [
            {"suite": "schur-norms", "trials": 1, "p_grid": [4.0, 8.0, 16.0],
             "dims": {"dim": 16, "budget": 20}, "rows": 3},
        ],
    },
}


def definitions_hash() -> str:
    """sha256 of the canonical JSON of every workload definition."""
    text = json.dumps(WORKLOADS, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def configs(cli, workload: str, seed: int) -> list:
    """The workload's ExperimentConfig objects at `seed`, in call order."""
    out = []
    for call in WORKLOADS[workload]["calls"]:
        out.append(cli.ExperimentConfig(
            suite=call["suite"],
            trials=call["trials"],
            seed=seed,
            p_grid=tuple(call.get("p_grid", ())),
            beta_grid=tuple(call.get("beta_grid", (1.5, 2.0, 4.0))),
            dims=dict(call.get("dims", {})),
        ))
    return out


def expected_rows(workload: str) -> list[int]:
    return [call["rows"] for call in WORKLOADS[workload]["calls"]]


def set_up(ncgl_instances, workload: str) -> None:
    """Build what the first trial needs and a later trial reuses."""
    if WORKLOADS[workload]["families"]:
        for index in range(N_FAMILIES):
            ncgl_instances.triple_family(index)
