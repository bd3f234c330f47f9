"""Tests for the benchmark harness: python3 -m pytest perfbench"""

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed as hs  # noqa: E402
import run  # noqa: E402  (pins NCGL_THREADS / OPENBLAS_NUM_THREADS)
import tracer as tr  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans_and_checks():
    clock = FakeClock()
    tracer = tr.Tracer(clock)

    def tick(dt):
        clock.now += dt

    leaf = tracer.wrap("leaf", lambda: tick(2.0))
    # the outcome check (5 s) must land in CHECK_SPAN, not in "outer"
    mid = tracer.wrap("mid", lambda: (tick(1.0), leaf()),
                      after=lambda result, args, kwargs: tick(5.0))

    def body():
        tick(1.0)
        leaf()
        tick(3.0)
        mid()

    tracer.wrap("outer", body)()
    totals = tracer.totals()
    assert totals["leaf"] == {"calls": 2, "self_s": 4.0}
    assert totals["mid"] == {"calls": 1, "self_s": 1.0}
    assert totals[tr.CHECK_SPAN] == {"calls": 1, "self_s": 5.0}
    assert totals["outer"] == {"calls": 1, "self_s": 4.0}
    assert clock.now == 14.0


def _bindings():
    """Every attribute that a wrapper could replace, by identity."""
    owners = {id(m): m for m in tr._ncgl_modules()}
    for _, path, _ in tr.LAYERS:
        owner = tr._resolve(path)
        owners[id(owner)] = owner
    return {(id(o), k): v for o in owners.values() for k, v in vars(o).items()}


def test_wrappers_are_removed_after_a_traced_run():
    cli, _ = run.import_ncgl()
    import ncgl.goodlambda

    configs = [cli.ExperimentConfig("moment", trials=1, seed=3),
               cli.ExperimentConfig("goodlambda-core", trials=2, seed=3)]
    before = _bindings()
    _, plain = run.run_pass(cli, configs, [])

    tracer = tr.Tracer()
    with tr.Instrumentation(tracer):
        # rebound where imported by name, not only in the defining module
        assert hasattr(ncgl.goodlambda.cuculescu_r, tr._MARK)
        assert hasattr(cli.schur_norm_lower, tr._MARK)
        _, traced = run.run_pass(cli, configs, [])

    assert traced == plain
    assert tr.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    metrics = tr.layer_metrics(tracer.totals())
    for name in ("linalg.eigvalsh", "opalgebra.matmul", "opalgebra.proj_meet",
                 "cuculescu.cuculescu_r", "goodlambda.verify_moment"):
        assert metrics[f"{name}.calls"] > 0
    assert 0.0 < metrics["cuculescu.cuculescu_r.new_frac"] <= 1.0


def test_trial_p90_is_left_out_below_100_samples():
    assert "trial_ms_p90" not in run.trial_summary([0.001] * 99)
    summary = run.trial_summary([i / 1000.0 for i in range(100)])
    assert summary["trial_samples"] == 100
    assert sum(i > summary["trial_ms_p90"] for i in range(100)) >= 10


def test_reference_gate_tolerance():
    ref = [["moment", "t0:p=3.0:max+", True, 10.0, 20.0, 10.0]]
    assert run.compare_reference([["moment", "t0:p=3.0:max+", True, 10.0,
                                   20.0, 10.0 + 1e-8]], ref) == []
    assert run.compare_reference([["moment", "t0:p=3.0:max+", True, 10.0,
                                   20.0, 10.0 + 1e-7]], ref)
    assert run.compare_reference([["moment", "t0:p=3.0:max+", False, 10.0,
                                   20.0, 10.0]], ref)
    assert run.compare_reference([["moment", "t1:p=3.0:max+", True, 10.0,
                                   20.0, 10.0]], ref)


def test_per_layer_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = list(tr.layer_metrics({})) + ["trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == names


def test_host_speed_samples_only_inside_the_block():
    speed = hs.HostSpeed()
    handler = signal.getsignal(signal.SIGALRM)
    with speed.interleaved():
        end = time.perf_counter() + 4 * hs.PERIOD
        while time.perf_counter() < end:
            pass
    assert speed.units > 0 and 0.0 < speed.seconds < 2 * hs.PERIOD
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert speed.scale() > 0.0
