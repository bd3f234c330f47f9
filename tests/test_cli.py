import json
import math
import subprocess
import sys
import types

import numpy as np
import pytest

from ncgl.cli import (
    _REGISTRY,
    SUITES,
    ExperimentConfig,
    ReportRow,
    emit,
    main,
    run,
)
from ncgl.errors import NCGLError

from helpers import rows_from_json


# the suites that read p are those with a default p grid
_READS_P = [name for name, info in _REGISTRY.items() if info.default_p]


def small(suite, **kw):
    defaults = dict(trials=4, seed=11)
    defaults.update(kw)
    return ExperimentConfig(suite=suite, **defaults)


class TestConfig:
    def test_unknown_suite(self):
        with pytest.raises(NCGLError):
            ExperimentConfig(suite="nope")

    def test_zero_trials(self):
        with pytest.raises(NCGLError):
            ExperimentConfig(suite="bg", trials=0)

    def test_out_of_domain_p(self):
        with pytest.raises(NCGLError):
            ExperimentConfig(suite="moment", p_grid=(1.5,))
        with pytest.raises(NCGLError):
            ExperimentConfig(suite="bg", p_grid=(1.0,))

    def test_default_p_grid(self):
        cfg = ExperimentConfig(suite="bg", trials=1)
        assert cfg.p_grid == (3.0, 4.0, 8.0)

    def test_suite_defaults_fill_dims(self):
        cfg = ExperimentConfig(suite="tangent-counterexample", dims={"N_list": (9,)})
        assert cfg.dims == {"N_list": (9,)}
        assert ExperimentConfig(suite="doob").dims == {"dim": 3, "steps": None}

    @pytest.mark.parametrize("suite", sorted(s for s, v in _REGISTRY.items() if v.dims))
    def test_dims_minimum_of_every_key(self, suite):
        # depth may be 0, every other dims key (each N_list entry) must be >= 1
        for key in _REGISTRY[suite].dims:
            low = 0 if key == "depth" else 1
            value = (lambda v: [v]) if key == "N_list" else (lambda v: v)
            cfg = ExperimentConfig(suite=suite, dims={key: value(low)})
            assert cfg.dims[key] == value(low)
            with pytest.raises(NCGLError, match=f"dims {key} must be at least {low}"):
                ExperimentConfig(suite=suite, dims={key: value(low - 1)})


class TestRun:
    def test_core_suite_passes(self):
        rows, summary = run(small("goodlambda-core", trials=6))
        assert summary["failures"] == 0
        assert len(rows) == 6
        assert all(r.passed for r in rows)

    def test_tail_suite_beta_grid(self):
        rows, _ = run(small("goodlambda-tail", trials=2,
                            beta_grid=(1.5, 2.0)))
        assert len(rows) == 4

    def test_counterexample_row_values(self):
        cfg = ExperimentConfig(suite="tangent-counterexample", trials=1,
                               seed=0, p_grid=(1.5,),
                               dims={"N_list": (9,)})
        rows, _ = run(cfg)
        tau_row = [r for r in rows if r.instance == "N=9:tau"][0]
        assert tau_row.lhs == pytest.approx(10.0)
        assert tau_row.rhs == pytest.approx(6.0)
        assert tau_row.passed

    def test_moment_suite_has_fubini_rows(self):
        cfg = small("moment", trials=2, p_grid=(3.0,))
        rows, summary = run(cfg)
        assert any("fubini" in r.instance for r in rows)
        assert summary["failures"] == 0

    def test_positive_tangent_checks_tangency_once_per_group(self, monkeypatch):
        # all trials are one group, verified as one direct sum: one call,
        # each summand decided on its own
        import ncgl.applications as apps

        calls = []
        original = apps.check_tangent

        def counted(a, b, filtration, **kwargs):
            calls.append((filtration.algebra.summands, kwargs))
            return original(a, b, filtration, **kwargs)

        monkeypatch.setattr(apps, "check_tangent", counted)
        rows, summary = run(small("positive-tangent", trials=12, seed=0))
        assert calls == [(12, {"per_summand": True})]
        assert len(rows) == 24 and summary["failures"] == 0

    def test_counterexample_builds_the_pair_once_per_trial(self, monkeypatch):
        import ncgl.applications as apps

        calls = []
        original = apps._counterexample_orbits

        def counted(N):
            calls.append(N)
            return original(N)

        grid = (1.5, 3.0, 4.0)
        monkeypatch.setattr(apps, "_counterexample_orbits", counted)
        rows, summary = run(small("tangent-counterexample", trials=3, seed=0,
                                  p_grid=grid))
        assert calls == [3, 5, 7] and summary["failures"] == 0
        # the rows are those of one evaluation per p, interleaved per trial
        per_p = [run(small("tangent-counterexample", trials=3, seed=0,
                           p_grid=(p,)))[0] for p in grid]
        assert rows == [row for trial in range(3) for rows_p in per_p
                        for row in rows_p[2 * trial:2 * trial + 2]]

    def test_run_looks_up_swapped_suite(self, monkeypatch):
        # callers may wrap SUITES entries; run and the p-grid defaults must
        # both keep working with the swapped callable
        calls = []
        original = SUITES["bg"]

        def wrapped(cfg, trials):
            calls.append(trials)
            return original(cfg, trials)

        monkeypatch.setitem(SUITES, "bg", wrapped)
        rows, summary = run(small("bg", trials=2))
        assert calls == [[0], [1]]
        assert summary["p_grid"] == [3.0, 4.0, 8.0]
        assert summary["constants"].startswith("sqrt(2)*12p")


class TestFamilyBatches:
    """The good-lambda and moment suites verify each filtration family's trials
    as one direct sum, the moment suite with their Cuculescu trees grown
    together, and positive-tangent consecutive groups of its trials as one
    direct sum each; every trial must still get the rows it gets alone."""

    @pytest.mark.parametrize("suite, trials, seed", [
        pytest.param("goodlambda-core", 100, 0, id="goodlambda-core-100"),
        pytest.param("goodlambda-tail", 100, 0, id="goodlambda-tail-100"),
        pytest.param("moment", 42, 0, id="moment-42"),
        pytest.param("moment", 42, 3, id="moment-42-seed3"),
        pytest.param("positive-tangent", 12, 0, id="positive-tangent-12"),
        pytest.param("positive-tangent", 12, 3, id="positive-tangent-12-seed3"),
        # 200 trials are groups of 64, 64, 64 and 8, each cutting its clusters
        # in batches of a few at a time
        pytest.param("positive-tangent", 200, 5, id="positive-tangent-200-seed5")])
    def test_rows_match_each_trial_alone(self, suite, trials, seed):
        cfg = ExperimentConfig(suite=suite, trials=trials, seed=seed)
        rows, _ = run(cfg)
        alone = [r for trial in range(trials) for r in SUITES[suite](cfg, [trial])[0]]
        assert [(r.instance, r.passed) for r in rows] == \
            [(r.instance, r.passed) for r in alone]
        if suite != "goodlambda-tail":
            assert rows == alone
        if suite == "positive-tangent":
            # the hypothesis labels, which the rows leave out, are each trial's own
            from ncgl.applications import verify_positive_tangent
            from ncgl.instances import classical_tangent_positive_pair, stream

            reports = lambda ts: verify_positive_tangent(*classical_tangent_positive_pair(
                4, 2, *(stream(seed, 9, t) for t in ts)), cfg.p_grid)
            assert [r.meta for r in reports(range(trials))] == \
                [r.meta for t in range(trials) for r in reports([t])]
        # a tail batch's steps may round unlike the trial alone's: values
        # agree to the 1e-9 margin contract
        for got, want in zip(rows, alone):
            scale = max(1.0, abs(want.lhs), abs(want.rhs))
            for a, b in ((got.lhs, want.lhs), (got.rhs, want.rhs),
                         (got.margin, want.margin)):
                assert abs(a - b) <= 1e-9 * scale, (got, want)

    def test_run_calls_each_family_once_in_order(self, monkeypatch):
        calls = []
        original = SUITES["goodlambda-core"]

        def wrapped(cfg, trials):
            calls.append(trials)
            return original(cfg, trials)

        monkeypatch.setitem(SUITES, "goodlambda-core", wrapped)
        rows, _ = run(small("goodlambda-core", trials=15))
        assert calls == [[0, 6, 12], [1, 7, 13], [2, 8, 14], [3, 9], [4, 10], [5, 11]]
        assert [r.instance.split(":")[0] for r in rows] == [f"t{i}" for i in range(15)]

    def test_run_calls_positive_tangent_once_with_every_trial(self, monkeypatch):
        calls = []
        original = SUITES["positive-tangent"]

        def wrapped(cfg, trials):
            calls.append(trials)
            return original(cfg, trials)

        monkeypatch.setitem(SUITES, "positive-tangent", wrapped)
        rows, _ = run(small("positive-tangent", trials=5, timing=True))
        assert calls == [[0, 1, 2, 3, 4]]
        assert [r.instance for r in rows] == [f"t{i}:p={p}" for i in range(5)
                                              for p in (3.0, 4.0)]
        # one group: every trial reads the same share of its time
        assert len({r.ms for r in rows}) == 1

    def test_run_splits_positive_tangent_into_consecutive_groups(self, monkeypatch):
        # at most _GROUP_TRIALS trials a group bounds a run's memory; each
        # trial's rows are its own, so the rows are those of one group
        import ncgl.cli as cli

        calls = []
        original = SUITES["positive-tangent"]

        def wrapped(cfg, trials):
            calls.append(trials)
            return original(cfg, trials)

        monkeypatch.setitem(SUITES, "positive-tangent", wrapped)
        assert cli._GROUP_TRIALS >= 12  # the benchmark's call stays one group
        whole, _ = run(small("positive-tangent", trials=11))
        monkeypatch.setattr(cli, "_GROUP_TRIALS", 4)
        calls.clear()
        rows, _ = run(small("positive-tangent", trials=11))
        assert calls == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]]
        assert rows == whole

    @pytest.mark.parametrize("suite, patched, flags, group_ms", [
        # one second per family batch: 333 ms per trial of three, 500 of two
        pytest.param("goodlambda-tail", "strong_triple_parts", {"beta_grid": (2.0,)},
                     [1000] * 6, id="goodlambda-tail"),
        # one second per family's group draw: 333 ms per trial of three, 500 of two
        pytest.param("moment", "random_martingales", {"p_grid": (3.0,)},
                     [1000] * 6, id="moment")])
    def test_timing_splits_each_group_evenly(self, monkeypatch, suite, patched, flags,
                                             group_ms):
        import ncgl.cli as cli

        clock = [0.0]
        original = getattr(cli, patched)

        def slow(*args, **kwargs):
            clock[0] += 1.0
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, patched, slow)
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        rows, _ = run(small(suite, trials=14, timing=True, **flags))
        ms = {}
        for r in rows:
            ms.setdefault(int(r.instance.split(":")[0][1:]), set()).add(r.ms)
        # families 0 and 1 hold trials 0, 6, 12 and 1, 7, 13; the others two each
        for family, family_ms in enumerate(group_ms):
            group = range(family, 14, 6)
            # no trial reads 0 ms unless its whole group does
            assert all(0 not in ms[trial] for trial in group) or \
                all(ms[trial] == {0} for trial in group)
            assert all(ms[trial] == {round(family_ms / len(group))} for trial in group)


class TestRowGates:
    """The rows a suite judges itself are gated relative to the larger side,
    so no pass flag depends on the scale of the instance."""

    @pytest.mark.parametrize("mu", (1e-12, 1e-6, 1.0, 1e6))
    def test_gates_do_not_depend_on_scale(self, mu):
        from ncgl.cli import _LP_ROW_RTOL, _SCHUR_ROW_RTOL, _at_most

        for rtol in (_LP_ROW_RTOL, _SCHUR_ROW_RTOL):
            assert _at_most(mu, mu, rtol) and _at_most(mu * (1 + 0.5 * rtol), mu, rtol)
            assert not _at_most(mu * (1 + 2 * rtol), mu, rtol)
            assert _at_most(0.0, 0.0, rtol) and not _at_most(2 * mu, mu, rtol)


class TestEmit:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", str(path))
        assert path.read_text() == \
            "suite,instance,seed,lhs,rhs,constant,margin,pass,ms\n"

    def test_single_row_two_lines(self, tmp_path):
        row = ReportRow("bg", "t0", 1, 1.0, 2.0, 3.0, 1.0, True, 0)
        path = tmp_path / "one.csv"
        emit([row], "csv", str(path))
        assert len(path.read_text().strip().splitlines()) == 2

    def test_json_round_trip(self, tmp_path):
        rows, _ = run(small("goodlambda-core", trials=3))
        path = tmp_path / "r.json"
        emit(rows, "json", str(path))
        back = rows_from_json(str(path))
        assert back == rows

    def test_seventeen_digit_floats(self, tmp_path):
        row = ReportRow("bg", "t0", 1, 1.0 / 3.0, 2.0, 3.0, 1.0, True, 0)
        path = tmp_path / "d.csv"
        emit([row], "csv", str(path))
        assert "0.33333333333333331" in path.read_text()

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            emit([], "csv", "/nonexistent-dir/x.csv")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = small("goodlambda-core", trials=5, seed=21)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run(cfg)[0], "csv", str(a))
        emit(run(cfg)[0], "csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_output(self, tmp_path):
        rows1, _ = run(small("goodlambda-core", trials=3, seed=1))
        rows2, _ = run(small("goodlambda-core", trials=3, seed=2))
        assert rows1 != rows2


class TestMainEntry:
    def test_exit_zero_on_pass(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["--suite", "goodlambda-core", "--trials", "3",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_exit_two_on_bad_config(self):
        assert main(["--suite", "moment", "--p", "1.5"]) == 2

    def test_exit_two_on_missing_suite(self):
        assert main([]) == 2

    def test_exit_two_on_bad_out(self):
        code = main(["--suite", "goodlambda-core", "--trials", "1",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == 2

    def test_exit_one_on_failed_rows(self, tmp_path, monkeypatch):
        # an unreachable Fubini gate forces a failing verification row
        import ncgl.cli as cli

        monkeypatch.setattr(cli, "_FUBINI_TOL", 1e-30)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"suite": "moment", "trials": 1, "seed": 4, "p_grid": [3.0]}))
        assert main([str(cfg_path)]) == 1

    def test_tolerances_is_an_unknown_field(self, tmp_path, capsys):
        # the row gates are module constants, not config keys
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suite": "moment", "tolerances": {"fubini": 1e-6}}))
        assert main([str(cfg_path)]) == 2
        assert "unknown config fields: ['tolerances']" in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"suite": "bg", "trials": 2, "seed": 3, "p_grid": [3.0]}))
        out = tmp_path / "out.csv"
        code = main([str(cfg_path), "--trials", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # three rows per (trial, p)

    @pytest.mark.parametrize("fields", [
        {"suite": "bg", "dims": 5},
        {"suite": "moment", "tolerances": 5},
        {"suite": "bg", "seed": "abc"},
        {"suite": "bg", "trials": 2.5},
        {"suite": "moment", "B": "x"},
        {"suite": "goodlambda-tail", "beta_grid": ["a"]},
        {"suite": "bg", "dims": {"dim": "abc"}},
        {"suite": "moment", "tolerances": {"fubini": "x"}},
        {"suite": "tangent-counterexample", "dims": {"N_list": []}},
        {"suite": "bg", "dims": {"dimm": 7}},
        {"suite": "moment", "tolerances": {"fubbini": 1e-30}},
        {"suite": "doob", "trials": 1, "dims": {"steps": 0}},
        {"suite": "stein", "trials": 1, "dims": {"steps": -2}},
        {"suite": "positive-tangent", "trials": 1, "dims": {"depth": -1}},
        {"suite": "schur-norms", "trials": 1, "dims": {"dim": 0}},
        {"suite": "bg", "trials": 1, "p_grid": "34"},
        {"suite": "bg", "trials": 1, "timing": "yes"},
        {"suite": "doob", "trials": 1, "dims": {"dim": 2, "steps": 9}},
        {"suite": "bg", "trials": 1, "p_grid": [float("nan")]},
        {"suite": "moment", "trials": 1, "B": float("nan")},
        {"suite": "goodlambda-tail", "trials": 1, "beta_grid": [float("nan")]},
        {"suite": "bg", "trials": 1, "B": 2.0},
        {"suite": "moment", "trials": 1, "beta_grid": [3.0]},
        {"suite": "goodlambda-core", "trials": 1, "p_grid": [3.0]},
        {"suite": "schur-norms", "trials": 1, "p_grid": [1.5]},
    ] + [{"suite": s, "trials": 1, "p_grid": [float("inf")]} for s in _READS_P],
        ids=["dims", "tolerances", "seed", "trials", "B", "beta_grid", "dims_value",
             "tolerances_value", "empty_N_list", "dims_key_not_read",
             "tolerances_key_not_read", "steps_zero", "steps_negative",
             "depth_negative", "dim_zero", "p_grid_string", "timing_string",
             "steps_beyond_levels", "p_nan", "B_nan", "beta_nan", "B_not_read",
             "beta_grid_not_read", "p_grid_not_read", "p_below_domain"]
        + [f"p_inf-{s}" for s in _READS_P])
    def test_exit_two_on_mistyped_field(self, tmp_path, capsys, fields):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fields))
        assert main([str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_default_beta_grid_accepted_by_every_suite(self):
        for suite in _REGISTRY:
            assert ExperimentConfig(suite=suite, beta_grid=[1.5, 2, 4]).beta_grid == \
                (1.5, 2, 4)

    @pytest.mark.parametrize("error", [OverflowError, np.linalg.LinAlgError])
    def test_arithmetic_failure_is_a_run_error(self, monkeypatch, capsys, error):
        def failing(cfg, trial):
            raise error("raised by the trial")

        monkeypatch.setitem(SUITES, "bg", failing)
        assert main(["--suite=bg", "--trials=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"run error: {error.__name__}:") and err.count("\n") == 1

    def test_memory_error_is_a_run_error(self, monkeypatch, capsys):
        # an oversized config (doob at --dim 400000) fails its first allocation
        import ncgl.cli as cli

        def failing(cfg):
            raise MemoryError("Unable to allocate the trial's operators")

        monkeypatch.setattr(cli, "run", failing)
        assert main(["--suite=doob", "--trials=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run error: MemoryError:") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", ("100", "1100", "1e4"))
    @pytest.mark.parametrize("suite", _READS_P)
    def test_norms_stay_finite_at_large_p(self, tmp_path, suite, p):
        path = tmp_path / "r.json"
        dim = ["--dim=8"] if suite == "schur-norms" else []
        assert main([f"--suite={suite}", f"--p={p}", "--trials=1", "--format=json",
                     f"--out={path}", *dim]) == 0
        rows = rows_from_json(str(path))
        assert rows and all(math.isfinite(r.lhs) and math.isfinite(r.rhs) for r in rows)
        # a tau row's margin is 2 sqrt(N) - (N + 1) < 0 by construction
        assert all(r.margin > 0 for r in rows if not r.instance.endswith(":tau"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", (["--suite=bg", "--p=1e16"],
                                       ["--suite=moment", "--p=600", "--B=4"]))
    def test_constants_stay_finite_at_large_p(self, tmp_path, flags):
        # 1 + 1/p rounds to 1 at p = 1e16, and B^{p-1} overflows at p = 600,
        # B = 4; both constants are finite, and so is every row
        path = tmp_path / "r.json"
        assert main([*flags, "--trials=1", "--format=json", f"--out={path}"]) == 0
        rows = rows_from_json(str(path))
        assert rows and all(r.passed and math.isfinite(r.constant) for r in rows)

    def test_exit_two_where_the_moment_constant_overflows(self, monkeypatch, capsys):
        # C_{p,B} is about 2^1050 at p = 2100, B = 2: past the float range, a
        # config error raised before any Cuculescu step is grown
        import ncgl.cuculescu as cuculescu

        steps = []
        step = cuculescu._step
        monkeypatch.setattr(cuculescu, "_step", lambda items: steps.append(items) or step(items))
        assert main(["--suite", "moment", "--trials", "1", "--p", "2100", "--B", "2"]) == 2
        assert capsys.readouterr().err == ("config error: C_{p,B} passes the"
                                           " float range at p = 2100.0, B = 2.0\n")
        assert steps == []

    @pytest.mark.parametrize("suite,flag", [("moment", "--B=1"),
                                            ("moment", "--p=1e308"),  # 1 + 1/p == 1
                                            ("goodlambda-tail", "--beta=1")])
    def test_exit_two_on_base_or_beta_at_most_one(self, monkeypatch, capsys, suite, flag):
        # a config error, raised before any trial runs
        trials = []
        monkeypatch.setitem(SUITES, suite, lambda cfg, trial: trials.append(trial) or [])
        assert main([f"--suite={suite}", flag, "--trials=1"]) == 2
        assert capsys.readouterr().err.startswith("config error:") and trials == []

    @pytest.mark.parametrize("beta", ("1e308", "1e155"))
    def test_exit_two_where_the_tail_constant_leaves_the_float_range(self, monkeypatch,
                                                                      capsys, beta):
        # 4/(beta-1)^2 at level 1: a config error naming beta, raised before
        # any trial runs, where it once ended the run with an OverflowError
        trials = []
        monkeypatch.setitem(SUITES, "goodlambda-tail",
                            lambda cfg, trial: trials.append(trial) or [])
        assert main(["--suite=goodlambda-tail", f"--beta={beta}", "--trials=1"]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: the tail constant 4/((beta-1) level)^2 leaves the float"
                       f" range at beta = {float(beta)!r}, level = 1.0\n") and trials == []

    def test_exit_two_on_dim_flag_for_suite_without_dim(self, capsys):
        assert main(["--suite", "goodlambda-core", "--dim", "9"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_unknown_config_field(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suite": "bg", "bogus": 1}))
        assert main([str(cfg_path)]) == 2

    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ncgl.cli", "--suite", "transform",
             "--trials", "2", "--seed", "9", "--p", "3", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "suite transform" in proc.stdout
        assert out.exists()
