"""Seed-0 report gate for the CLI suites that the benchmark reference gate
(tests/test_reference_gate.py) does not run, and for schur-norms at its
default dims (the reference gate runs it at dim 16).

Each suite runs through ``ncgl.cli.run`` at seed 0 with 6 trials and its
default grids and dims, and must give the rows in seeded_reports.json: the
same (instance, pass) rows in order, and lhs, rhs and margin each within
1e-9 max(1, |lhs|, |rhs|) of the stored values, the margin contract of the
README.  To retake the stored rows after a deliberate change, run
``python tests/test_seeded_reports.py`` with ``src`` on PYTHONPATH.
"""

import json
from pathlib import Path

import pytest

from ncgl.cli import ExperimentConfig, run

SUITES = ("bg", "transform", "doob", "stein", "dominated", "refined-doob",
          "schur-reversed-l", "schur-norms")
EXPECTED = Path(__file__).with_name("seeded_reports.json")


def _rows(suite):
    rows, _ = run(ExperimentConfig(suite=suite, trials=6, seed=0))
    return [[r.instance, r.lhs, r.rhs, r.margin, r.passed] for r in rows]


@pytest.mark.parametrize("suite", SUITES)
def test_seed_zero_rows_match(suite):
    expected = json.loads(EXPECTED.read_text())[suite]
    got = _rows(suite)
    assert [(r[0], r[4]) for r in got] == [(r[0], r[4]) for r in expected]
    for (name, *values, _), (_, *stored, _) in zip(got, expected):
        scale = max(1.0, abs(stored[0]), abs(stored[1]))
        for value, ref in zip(values, stored):
            assert abs(value - ref) <= 1e-9 * scale, (name, value, ref)


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps({s: _rows(s) for s in SUITES}, indent=1) + "\n")
