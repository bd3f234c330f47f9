"""The benchmark's correctness gate, run with the test suite.

perfbench/run.py checks every pass at seed 0 against perfbench/reference.json:
the same (suite, instance) rows and pass flags, margins within 1e-9 relative.
This test runs one seed-0 pass of each workload through that same check, so a
margin drift beyond the bound fails here, not only in a benchmark run.  The
four passes take about 15 s together.
"""

import os
import sys
from pathlib import Path

import pytest

import ncgl.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
_ENV = {k: os.environ.get(k) for k in ("NCGL_THREADS", "OPENBLAS_NUM_THREADS")}
import run  # noqa: E402  (sets both variables on import)
import workloads  # noqa: E402

for _key, _value in _ENV.items():
    if _value is None:
        os.environ.pop(_key, None)
    else:
        os.environ[_key] = _value


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_pass_matches_reference(workload):
    rows = [ncgl.cli.run(cfg)[0] for cfg in workloads.configs(ncgl.cli, workload, 0)]
    _, failed, problems = run.check_pass(rows, workloads.expected_rows(workload),
                                         run.load_reference(workload, 0))
    assert problems == []
    assert failed == 0
