import json
import math
import subprocess
import sys
import types

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

    def test_suite_defaults_fill_dims_and_tolerances(self):
        cfg = ExperimentConfig(suite="tangent-counterexample",
                               dims={"N_list": (9,)}, tolerances={"l1": 1e-6})
        assert cfg.dims == {"N_list": (9,)}
        assert cfg.tolerances == {"weak": 1e-8, "l1": 1e-6}
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

    def test_positive_tangent_checks_tangency_once_per_trial(self, monkeypatch):
        import ncgl.applications as apps

        calls = []
        original = apps.check_tangent

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(apps, "check_tangent", counted)
        rows, summary = run(small("positive-tangent", trials=12, seed=0))
        assert len(calls) == 12
        assert len(rows) == 24 and summary["failures"] == 0

    def test_run_looks_up_swapped_suite(self, monkeypatch):
        # callers may wrap SUITES entries; run and the p-grid defaults must
        # both keep working with the swapped callable
        calls = []
        original = SUITES["bg"]

        def wrapped(cfg, trial):
            calls.append(trial)
            return original(cfg, trial)

        monkeypatch.setitem(SUITES, "bg", wrapped)
        rows, summary = run(small("bg", trials=2))
        assert calls == [0, 1]
        assert summary["p_grid"] == [3.0, 4.0, 8.0]
        assert summary["constants"].startswith("sqrt(2)*12p")


class TestFamilyBatches:
    """The good-lambda suites verify each filtration family's trials as one
    direct sum; every trial must still get the rows it gets alone."""

    @pytest.mark.parametrize("suite", ["goodlambda-core", "goodlambda-tail"])
    def test_rows_match_each_trial_alone(self, suite):
        cfg = ExperimentConfig(suite=suite, trials=100, seed=0)
        rows, _ = run(cfg)
        # outside run, a trial is a batch of one
        alone = [r for trial in range(100) for r in SUITES[suite](cfg, trial)]
        assert [(r.instance, r.passed) for r in rows] == \
            [(r.instance, r.passed) for r in alone]
        if suite == "goodlambda-core":
            assert rows == alone
        # a tail batch may serve a level from another cached sequence than
        # the trial alone does: values agree to the 1e-9 margin contract
        for got, want in zip(rows, alone):
            scale = max(1.0, abs(want.lhs), abs(want.rhs))
            for a, b in ((got.lhs, want.lhs), (got.rhs, want.rhs),
                         (got.margin, want.margin)):
                assert abs(a - b) <= 1e-9 * scale, (got, want)

    def test_run_calls_every_trial_in_order(self, monkeypatch):
        calls = []
        original = SUITES["goodlambda-core"]

        def wrapped(cfg, trial):
            calls.append(trial)
            return original(cfg, trial)

        monkeypatch.setitem(SUITES, "goodlambda-core", wrapped)
        rows, _ = run(small("goodlambda-core", trials=15))
        assert calls == list(range(15))
        assert [r.instance.split(":")[0] for r in rows] == [f"t{i}" for i in range(15)]

    def test_timing_charges_the_batch_to_its_first_trial(self, monkeypatch):
        import ncgl.cli as cli

        clock = [0.0]
        build = cli.strong_triple_parts

        def slow_build(*args):
            clock[0] += 1.0  # one second per family batch
            return build(*args)

        monkeypatch.setattr(cli, "strong_triple_parts", slow_build)
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        rows, _ = run(small("goodlambda-tail", trials=14, timing=True,
                            beta_grid=(2.0,)))
        assert [r.ms for r in rows] == [1000] * 6 + [0] * 8

    def test_nothing_outlives_a_run(self):
        import ncgl.cli as cli

        run(small("goodlambda-core", trials=8))
        assert cli._pending.get() is None


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

    def test_exit_one_on_failed_rows(self, tmp_path):
        # an unreachable tolerance forces a failing verification row
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"suite": "moment", "trials": 1, "seed": 4, "p_grid": [3.0],
             "tolerances": {"fubini": 1e-30}}))
        assert main([str(cfg_path)]) == 1

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
    ] + [{"suite": s, "trials": 1, "p_grid": [float("inf")]} for s in _READS_P],
        ids=["dims", "tolerances", "seed", "trials", "B", "beta_grid", "dims_value",
             "tolerances_value", "empty_N_list", "dims_key_not_read",
             "tolerances_key_not_read", "steps_zero", "steps_negative",
             "depth_negative", "dim_zero", "p_grid_string", "timing_string",
             "steps_beyond_levels", "p_nan", "B_nan", "beta_nan", "B_not_read",
             "beta_grid_not_read", "p_grid_not_read"]
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["--suite=bg", "--p=1100"],
                                      ["--suite=moment", "--p=1e4"]],
                             ids=lambda a: a[0].split("=")[1])
    def test_overflow_is_a_run_error(self, capsys, argv):
        # the suite's constant overflows, not a norm
        assert main(argv + ["--trials=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run error:") and err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_eigensolve_is_a_run_error(self, capsys):
        # at p = 1100 the Schur ascent's quotient underflows, its step turns
        # NaN and the next SVD does not converge: numpy's LinAlgError
        assert main(["--suite=schur-norms", "--p=1100", "--trials=1", "--dim=8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run error: LinAlgError") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("suite", ("transform", "doob", "stein", "dominated",
                                       "positive-tangent", "refined-doob"))
    def test_norms_stay_finite_at_large_p(self, tmp_path, suite):
        path = tmp_path / "r.json"
        assert main([f"--suite={suite}", "--p=1100", "--trials=1", "--format=json",
                     f"--out={path}"]) == 0
        rows = rows_from_json(str(path))
        assert rows and all(
            math.isfinite(r.lhs) and math.isfinite(r.rhs) and r.margin > 0 for r in rows)

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
