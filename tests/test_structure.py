"""Module boundaries of the package: no module imports another's private names,
apart from the listed opalgebra internals, and only the listed modules draw
random instances."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ncgl"

# cuculescu builds its cuts and tie bands on the same kernels as opalgebra's
# spectral calculus, so it shares them instead of keeping a second copy
ALLOWED = {
    ("cuculescu", "opalgebra", "_TIE_TOL"): "the tie tolerance of every spectral cut",
    ("cuculescu", "opalgebra", "_by_summand"): "per-summand reduction of direct sums",
    ("cuculescu", "opalgebra", "_projection"): "unchecked spectral cut of a snapped step",
}


def _private_imports():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                source = node.module or ""
                for alias in node.names:
                    if alias.name.startswith("_"):
                        yield path.stem, source, alias.name


def test_no_private_names_across_modules():
    found = set(_private_imports())
    assert found - ALLOWED.keys() == set()


def test_allowed_list_is_current():
    # an exception that is no longer used goes from the list
    assert ALLOWED.keys() <= set(_private_imports())


# every verifier computes what it checks, so it draws no random numbers
INSTANCE_IMPORTERS = {
    "cli": "draws the random instance of each trial",
    "schur": "a multiplier norm is a supremum that cannot be computed, only sampled",
}


def _modules_importing(target: str):
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["ncgl" if node.level else "", node.module]))
                names = {base} | {f"{base}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            else:
                continue
            if target in names:
                yield path.stem


def test_only_listed_modules_draw_instances():
    assert set(_modules_importing("ncgl.instances")) == INSTANCE_IMPORTERS.keys()
