"""Outside-in per-layer tracing for the ncgl benchmark.

The tracer wraps public functions of the ncgl modules, NumPy's eigensolvers
and ``Operator.__matmul__`` from outside the package.  Each wrapped call is a
span.  Spans keep their parent on a per-thread stack; a span's self time is
its duration minus the durations of its child spans.  Totals are aggregated
in memory per thread and merged when the run ends, so nothing is written
while the workload runs.

Two layers also count useful outcomes: the share of ``proj_meet`` calls whose
result equals one of its inputs, and the share of ``cuculescu_r`` calls whose
sequence differs from the previous call's for the same martingale.  These
checks run after their span has closed and their time is taken out of the
enclosing span, so they add to the tracing overhead only.
"""

from __future__ import annotations

import sys
import threading
import time
import types

# (span name, module path, attribute).  A module path naming a class
# ("ncgl.opalgebra.Operator") wraps a method on that class.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("linalg.svd", "numpy.linalg", "svd"),
    ("opalgebra.matmul", "ncgl.opalgebra.Operator", "__matmul__"),
    ("opalgebra.spectral_projection", "ncgl.opalgebra", "spectral_projection"),
    ("opalgebra.operator_norm", "ncgl.opalgebra", "operator_norm"),
    ("opalgebra.min_eigenvalue", "ncgl.opalgebra", "min_eigenvalue"),
    ("opalgebra.func_calculus", "ncgl.opalgebra", "func_calculus"),
    ("opalgebra.schatten_norm", "ncgl.opalgebra", "schatten_norm"),
    ("opalgebra.proj_meet", "ncgl.opalgebra", "proj_meet"),
    ("filtration.cond_exp", "ncgl.filtration", "cond_exp"),
    ("filtration.make_filtration", "ncgl.filtration", "make_filtration"),
    ("cuculescu.cuculescu_r", "ncgl.cuculescu", "cuculescu_r"),
    ("cuculescu.corrected_p", "ncgl.cuculescu", "corrected_p"),
    ("cuculescu.weak_max", "ncgl.cuculescu", "weak_max"),
    ("goodlambda.verify_core", "ncgl.goodlambda", "verify_core"),
    ("goodlambda.verify_tail", "ncgl.goodlambda", "verify_tail"),
    ("goodlambda.verify_moment", "ncgl.goodlambda", "verify_moment"),
    ("goodlambda.hypothesis_status", "ncgl.goodlambda", "hypothesis_status"),
    ("applications.check_tangent", "ncgl.applications", "check_tangent"),
    ("applications.tangent_counterexample", "ncgl.applications",
     "tangent_counterexample"),
    ("schur.schur_norm_lower", "ncgl.schur", "schur_norm_lower"),
    ("schur.matrix_p_norm", "ncgl.schur", "matrix_p_norm"),
    # the instance generators share one span name
    ("instances.generate", "ncgl.instances", "gaussian_hermitian"),
    ("instances.generate", "ncgl.instances", "gaussian_psd"),
    ("instances.generate", "ncgl.instances", "random_martingale"),
    ("instances.generate", "ncgl.instances", "strong_triple_parts"),
    ("instances.generate", "ncgl.instances", "arrow_martingale_pair"),
    ("instances.generate", "ncgl.instances", "classical_tangent_positive_pair"),
    ("instances.generate", "ncgl.instances", "adapted_psd_sequence"),
    ("instances.generate", "ncgl.instances", "arrow_squared_positive_pair"),
)

# the span that absorbs the outcome checks; never reported as a layer
CHECK_SPAN = "trace.check"

_MARK = "_perfbench_span"


class Tracer:
    """Span aggregation with a per-thread parent stack.

    ``clock`` is injectable so tests can drive the self-time arithmetic with
    a synthetic clock.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
            return state

    def _add(self, table: dict, name: str, calls: int, self_s: float) -> None:
        entry = table.get(name)
        if entry is None:
            entry = table[name] = [0, 0.0]
        entry[0] += calls
        entry[1] += self_s

    def count(self, name: str, n: int = 1) -> None:
        """Add to a plain counter kept beside the spans."""
        self._add(self._state()[1], name, n, 0.0)

    def wrap(self, name: str, fn, after=None):
        """Return `fn` wrapped in a span called `name`.

        ``after(result, args, kwargs)`` runs once the span has closed; its
        time is charged to CHECK_SPAN and removed from the parent span.
        """
        clock = self._clock
        state = self._state
        add = self._add

        def wrapper(*args, **kwargs):
            frames, table = state()
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                add(table, name, 1, dur - frames.pop())
                if frames:
                    frames[-1] += dur
            if after is not None:
                start = clock()
                after(result, args, kwargs)
                dur = clock() - start
                add(table, CHECK_SPAN, 1, dur)
                if frames:
                    frames[-1] += dur
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, _MARK, name)
        return wrapper

    def totals(self) -> dict[str, dict]:
        """Merged {name: {"calls", "self_s"}} over every thread."""
        out: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s) in table.items():
                self._add(out, name, calls, self_s)
        return {name: {"calls": c, "self_s": s} for name, (c, s) in out.items()}

    def reset(self) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()


def _resolve(path: str):
    """Module or class named by a dotted path of an imported module."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise LookupError(f"{path} is not imported")


def _ncgl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ncgl" or name.startswith("ncgl."))]


class Instrumentation:
    """Installs the LAYERS wrappers for one tracer and removes them again.

    A function imported by name into other ncgl modules is rebound in each
    of them, so calls made through any of those names are traced.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patched: list[tuple[object, str, object]] = []
        self._last_seq: dict[int, tuple] = {}

    def _after(self, name: str):
        if name == "opalgebra.proj_meet":
            return self._meet_outcome
        if name == "cuculescu.cuculescu_r":
            return self._sequence_outcome
        return None

    def _meet_outcome(self, result, args, kwargs) -> None:
        e, f = args[0], args[1]
        if result.allclose(e) or result.allclose(f):
            self.tracer.count("opalgebra.proj_meet.trivial")

    def _sequence_outcome(self, result, args, kwargs) -> None:
        y = args[0] if args else kwargs["y"]
        prev = self._last_seq.get(id(y))
        self._last_seq[id(y)] = (y, result)
        if prev is not None:
            old = prev[1].projections
            new = result.projections
            if len(old) == len(new) and all(
                    a.allclose(b) for a, b in zip(old, new)):
                return
        self.tracer.count("cuculescu.cuculescu_r.new")

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("instrumentation is already installed")
        modules = _ncgl_modules()
        for name, path, attr in LAYERS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            wrapper = self.tracer.wrap(name, original, self._after(name))
            targets = [owner]
            if path.startswith("ncgl.") and isinstance(owner, types.ModuleType):
                targets = modules  # the owner is one of them
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, key, original))
                        setattr(target, key, wrapper)

    def remove(self) -> None:
        while self._patched:
            target, key, original = self._patched.pop()
            setattr(target, key, original)
        self._last_seq.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def leftover_wrappers() -> list[str]:
    """Names of every wrapper still reachable from ncgl, NumPy or Operator."""
    owners = {id(m): m for m in _ncgl_modules()}
    for _, path, _ in LAYERS:
        owner = _resolve(path)
        owners[id(owner)] = owner
    return [f"{owner.__name__}.{key}" for owner in owners.values()
            for key, value in vars(owner).items() if hasattr(value, _MARK)]


def layer_metrics(totals: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics: calls and self_s per span, plus two ratios."""
    out: dict[str, float] = {}
    for name in dict.fromkeys(n for n, _, _ in LAYERS):
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        if name != "instances.generate":
            out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    for name, kind in (("opalgebra.proj_meet", "trivial"),
                       ("cuculescu.cuculescu_r", "new")):
        calls = totals.get(name, {"calls": 0})["calls"]
        hits = totals.get(f"{name}.{kind}", {"calls": 0})["calls"]
        out[f"{name}.{kind}_frac"] = hits / calls if calls else 0.0
    return out
