"""ncgl benchmark: drives ncgl.cli.run on a named workload.

    python3 perfbench/run.py --workload moment-grid --seed 0 --seconds 7 --trace 0

Run from the root of a checkout; ncgl is imported from its ``src``
directory.  All load comes from this one process with one worker: the
environment pins NCGL_THREADS=1 and OPENBLAS_NUM_THREADS=1 before NumPy is
imported.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh processes) and the median wall time of a pass over the workload's
``cli.run`` calls, both scaled to a reference host speed (see hostspeed.py),
and peak RSS.  --trace 1 alternates untraced passes with passes where every
layer is wrapped (see tracer.py), and reports the per-layer metrics with the
tracing overhead.  The metric names and units come from BENCHMARK.json.

Every pass is checked: at the reference seed the rows must match
reference.json (same instances, same pass flags, margins within 1e-9
relative); at any seed every row must pass and the row counts must match
the workload definition; every pass must give the same rows.  The last line
of standard output is the result JSON; the line before it holds the details
(manifest, samples, span table).

    python3 perfbench/run.py --write-reference

rewrites reference.json from the current program at the reference seed.
"""

import os

os.environ["NCGL_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed as hs  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_PROBES = 7
MARGIN_RTOL = 1e-9


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad set-up)."""


def import_ncgl():
    """Import ncgl from the checkout's src directory, never from elsewhere."""
    if not (SRC / "ncgl" / "__init__.py").is_file():
        raise BenchError(f"no ncgl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncgl
    import ncgl.cli
    import ncgl.instances

    if Path(ncgl.__file__).resolve().parent != (SRC / "ncgl").resolve():
        raise BenchError(f"imported ncgl from {ncgl.__file__}, not {SRC}")
    return ncgl.cli, ncgl.instances


# ---------------------------------------------------------------------------
# one pass over a workload
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def trial_timer(cli, samples: list, speed):
    """Time every trial by wrapping the ncgl.cli.SUITES callables, leaving
    out the time `speed` (if given) spent sampling the host."""
    originals = dict(cli.SUITES)

    def timed(fn):
        def trial(cfg, index):
            kernel = speed.seconds if speed is not None else 0.0
            start = time.perf_counter()
            rows = fn(cfg, index)
            took = time.perf_counter() - start
            if speed is not None:
                took -= speed.seconds - kernel
            samples.append(took)
            return rows
        return trial

    cli.SUITES.update({name: timed(fn) for name, fn in originals.items()})
    try:
        yield
    finally:
        cli.SUITES.update(originals)


def run_pass(cli, configs, samples: list, speed=None) -> tuple[float, list]:
    """Wall time of every cli.run call of the workload, and their rows.

    The time spent sampling `speed` is left out.  A trial that raises
    aborts its cli.run; that call's rows are None.
    """
    rows = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(trial_timer(cli, samples, speed))
        if speed is not None:
            speed.reset()
            stack.enter_context(speed.interleaved())
        start = time.perf_counter()
        for cfg in configs:
            try:
                rows.append(cli.run(cfg)[0])
            except Exception:  # a failed call becomes failed rows
                traceback.print_exc(file=sys.stderr)
                rows.append(None)
        wall = time.perf_counter() - start
    if speed is not None:
        wall -= speed.seconds
        if not speed.units:
            speed.sample(hs.SHARE * hs.PERIOD)
    return wall, rows


def repeat_for(seconds: float, step) -> None:
    """Call `step` until `seconds` have elapsed (at least once)."""
    start = time.perf_counter()
    step()
    while time.perf_counter() - start < seconds:
        step()


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def row_record(r) -> list:
    return [r.suite, r.instance, bool(r.passed), r.lhs, r.rhs, r.margin]


def check_pass(rows: list, expected: list[int], reference: list | None):
    """(attempted, failed, problems) for one pass.

    Rows of a call that raised, or missing from it, count as failed.
    """
    attempted = sum(expected)
    failed = 0
    problems = []
    for got, want in zip(rows, expected):
        if got is None:
            failed += want
            problems.append(f"a cli.run call raised; {want} rows lost")
            continue
        failed += sum(not r.passed for r in got) + max(want - len(got), 0)
        if len(got) != want:
            problems.append(f"{got[0].suite if got else '?'}: "
                            f"{len(got)} rows, expected {want}")
    if reference is not None and all(got is not None for got in rows):
        problems += compare_reference(
            [row_record(r) for got in rows for r in got], reference)
    if failed:
        problems.append(f"{failed} of {attempted} rows failed or were lost")
    return attempted, failed, problems


def compare_reference(records: list, reference: list) -> list[str]:
    """Same (suite, instance) list, same pass flags, margins within 1e-9
    relative to max(1, |lhs|, |rhs|) of the reference row."""
    if [r[:2] for r in records] != [r[:2] for r in reference]:
        return ["the (suite, instance) list differs from the reference"]
    problems = []
    for got, ref in zip(records, reference):
        suite, instance, passed, lhs, rhs, margin = ref
        scale = max(1.0, abs(lhs), abs(rhs))
        if got[2] != passed:
            problems.append(f"{suite} {instance}: pass flag {got[2]}")
        elif abs(got[5] - margin) > MARGIN_RTOL * scale:
            problems.append(f"{suite} {instance}: margin {got[5]!r}, "
                            f"reference {margin!r}")
    return problems


def load_reference(workload: str, seed: int):
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["seed"] != REFERENCE_SEED:
        raise BenchError("reference.json was taken at another seed")
    return data["rows"][workload]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def trial_summary(samples_s: list[float]) -> dict:
    """Median trial time and sample count; the 90th percentile only when at
    least ten samples lie beyond it (100 or more samples)."""
    ms = [1000.0 * s for s in samples_s]
    out = {"trial_samples": len(ms), "trial_ms_p50": statistics.median(ms)}
    if len(ms) >= 100:
        out["trial_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    return out


def measure_setup(workload: str, speed) -> list[tuple[float, float]]:
    """(seconds, host scale) per fresh process: from spawning it to the
    point where its first trial could start, that is, after importing ncgl
    and building the workload's filtrations."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed (exit {proc.returncode})")
        speed.reset()
        speed.sample(ready - start)
        times.append((ready - start, speed.scale()))
    return times


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "NCGL_THREADS": os.environ["NCGL_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "git_commit": git_commit(),
        "workloads_sha256": wl.definitions_hash(),
    }


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def per_layer(untraced_walls, traced) -> tuple[dict, dict]:
    """Per-layer metric medians over the traced passes, and the overhead."""
    layers = [tr.layer_metrics(totals) for _, _, totals in traced]
    values = {name: statistics.median_low(m[name] for m in layers)
              for name in layers[0]}
    untraced = statistics.median(untraced_walls)
    traced_wall = statistics.median(wall for wall, _, _ in traced)
    values["trace.overhead_s"] = traced_wall - untraced
    return values, {"untraced_wall_s": untraced, "traced_wall_s": traced_wall}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def benchmark(cli, instances, workload: str, seed: int, seconds: float,
              trace: bool) -> tuple[dict, dict]:
    configs = wl.configs(cli, workload, seed)
    wl.set_up(instances, workload)
    expected = wl.expected_rows(workload)
    reference = load_reference(workload, seed)
    detail = {"manifest": manifest(seed), "workload": workload}

    samples: list[float] = []
    untraced: list[tuple] = []
    traced: list[tuple] = []
    scales: list[float] = []
    # the host-speed kernel would show in the per-layer counts
    speed = None if trace else hs.HostSpeed()
    setup = [] if trace else measure_setup(workload, speed)

    def plain():
        untraced.append(run_pass(cli, configs, samples, speed))
        if speed is not None:
            scales.append(speed.scale())

    if trace:
        tracer = tr.Tracer()
        inst = tr.Instrumentation(tracer)

        def pair():
            # alternate, so that drift of the host shifts both sides alike
            plain()
            tracer.reset()
            with inst:
                wall, rows = run_pass(cli, configs, [])
            traced.append((wall, rows, tracer.totals()))

        repeat_for(seconds, pair)
    else:
        repeat_for(seconds, plain)
    passes = [p[1] for p in untraced + traced]

    attempted = failed = 0
    problems = []
    for rows in passes:
        a, f, p = check_pass(rows, expected, reference)
        attempted, failed = attempted + a, failed + f
        problems += p
    if any(rows != passes[0] for rows in passes):
        problems.append("passes at one seed gave different rows")
    leftover = tr.leftover_wrappers()
    if leftover:
        problems.append(f"wrappers left installed: {leftover}")

    walls = [wall for wall, _ in untraced]
    detail.update(passes=len(passes), untraced_pass_wall_s=walls,
                  **trial_summary(samples), fail_frac=failed / attempted,
                  problems=problems[:20])
    if trace:
        values, extra = per_layer(walls, traced)
        detail.update(extra, spans=traced[-1][2])
    else:
        values = {
            "ref_wall_s": statistics.median(
                w * scale for w, scale in zip(walls, scales)),
            "setup_s": statistics.median(t * scale for t, scale in setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail.update(host_scale=scales, setup_samples_s=setup)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": values}
    return result, detail


def write_reference(cli, instances) -> int:
    rows = {}
    for workload in wl.WORKLOADS:
        configs = wl.configs(cli, workload, REFERENCE_SEED)
        wl.set_up(instances, workload)
        _, got = run_pass(cli, configs, [])
        _, _, problems = check_pass(got, wl.expected_rows(workload), None)
        if problems:
            print(f"{workload}: {problems}", file=sys.stderr)
            return 1
        rows[workload] = [row_record(r) for call in got for r in call]
    data = {"seed": REFERENCE_SEED, "manifest": manifest(REFERENCE_SEED),
            "rows": rows}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=7.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        specs = metric_specs()
        cli, instances = import_ncgl()
        if args.setup_probe:
            wl.configs(cli, args.workload, args.seed)
            wl.set_up(instances, args.workload)
            print("ready", flush=True)
            return 0
        if args.write_reference:
            return write_reference(cli, instances)
        result, detail = benchmark(cli, instances, args.workload, args.seed,
                                   args.seconds, bool(args.trace))
    except (BenchError, OSError, ImportError, KeyError,
            json.JSONDecodeError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2

    units = specs["per_layer" if args.trace else "end_to_end"]
    if set(units) != set(result["metrics"]):
        print(f"benchmark error: metrics {sorted(result['metrics'])} do not "
              f"match BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
