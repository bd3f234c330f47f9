"""The benchmark tracer's wrap targets still exist in the package.

perfbench/tracer.py wraps ncgl functions and methods by name from outside;
a refactor that renames or moves one of them breaks ``--trace 1`` runs only.
This test resolves every target the way the tracer does, without running it.
"""

import sys
from pathlib import Path

import pytest

import ncgl
import ncgl.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


@pytest.mark.parametrize("path,attr", [(p, a) for _, p, a in tracer.LAYERS],
                         ids=[f"{p}.{a}" for _, p, a in tracer.LAYERS])
def test_layer_target_resolves(path, attr):
    owner = tracer._resolve(path)
    assert callable(getattr(owner, attr))


def test_suites_is_plain_dict_of_callables():
    assert type(ncgl.cli.SUITES) is dict
    assert len(ncgl.cli.SUITES) == 13
    assert all(callable(fn) for fn in ncgl.cli.SUITES.values())
