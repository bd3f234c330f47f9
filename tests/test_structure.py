"""Module boundaries of the package: no module imports another's private names,
apart from any listed, Hermitian eigensolves run only in the listed kernels, no
opalgebra function steps through a stack in slices, a direct sum is split one
way and laid out by its algebra alone, failed batch work is let go in one
place and no exception is kept, a Cuculescu leaf is checked once per span of
the band walk, Cuculescu trees are grown for a grid only by the verifiers
that read them, only the listed modules draw random instances, no module
keeps context-variable state, every suite maps a group of trials to each
trial's rows, and every public name is used in the package or a demo, or
listed."""

import ast
import pathlib

import pytest

from ncgl.cli import SUITES, ExperimentConfig, run

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ncgl"

# (importer, source, name): reason; each spectral rule is public where it lives
ALLOWED = {}


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


# every Hermitian eigensolve of an operator runs in the kernels that apply the
# exactness rules (exactly diagonal blocks read off their diagonal)
EIGENSOLVE_SITES = {("opalgebra", "_eigh"), ("opalgebra", "_eigvalsh")}


def _sites(test):
    """(module, innermost enclosing function) of every node that passes `test`."""
    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if test(node):
            yield module, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, module, where)

    for path in sorted(SRC.glob("*.py")):
        yield from visit(ast.parse(path.read_text(), str(path)), path.stem, None)


def _reference_sites(names):
    """(module, innermost enclosing function) of every reference to one of
    `names`, as a name read, an attribute (np.linalg.eigh) or an import."""
    return _sites(lambda node: (
        isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name.split(".")[-1] in names))


def test_hermitian_solves_go_through_the_kernels():
    # and a listed site that no longer solves goes from the list
    assert set(_reference_sites({"eigh", "eigvalsh"})) == EIGENSOLVE_SITES


def _stepped_ranges(path):
    """(function, line) of every range(start, stop, step) call in `path`."""
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range" \
                        and len(node.args) == 3:
                    yield func.name, node.lineno


def test_no_kernel_slices_a_stack():
    # every kernel runs once on a whole stack: stacked eigensolves, products
    # and reductions treat each block on its own, so slicing them changes no
    # bit and only adds a loop
    assert list(_stepped_ranges(SRC / "opalgebra.py")) == []


def _defines_summand(node):
    """A class with a `summand` method."""
    return isinstance(node, ast.ClassDef) and any(
        isinstance(n, ast.FunctionDef) and n.name == "summand" for n in node.body)


def test_a_direct_sum_is_split_one_way():
    # Operator.parts is the one splitter: no class grows a second `summand`
    assert list(_sites(_defines_summand)) == []


def _reshapes_by_summand(node):
    """A reshape call (a method or np.reshape) that reads `.summands`."""
    return isinstance(node, ast.Call) and "reshape" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None)) and any(
        isinstance(n, ast.Attribute) and n.attr == "summands" for n in ast.walk(node))


def _reads_tie_tolerances(node):
    """x.spectrum[1], where a spectrum once carried its tie tolerances."""
    return isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "spectrum" \
        and isinstance(node.slice, ast.Constant) and node.slice.value == 1


def test_only_the_algebra_lays_out_summands():
    # TracialAlgebra.summand_rows and summand_columns know where a summand's
    # blocks sit; a spectrum is the eigendecomposition alone, and each cut
    # derives its tie tolerances from it
    assert [site for site in _sites(_reshapes_by_summand) if site[0] != "opalgebra"] == []
    tests = [ast.parse(path.read_text(), str(path))
             for path in sorted(pathlib.Path(__file__).parent.glob("*.py"))]
    assert list(_sites(_reads_tie_tolerances)) == []
    assert not any(_reads_tie_tolerances(n) for tree in tests for n in ast.walk(tree))


def _catches_failures(node):
    """An except clause that names `_FAILURES`."""
    return isinstance(node, ast.ExceptHandler) and node.type is not None and any(
        isinstance(n, ast.Name) and n.id == "_FAILURES" for n in ast.walk(node.type))


def _keeps_an_exception(node):
    """isinstance(..., Exception) or a with_traceback call: an exception held
    as a value, to be raised later."""
    return isinstance(node, ast.Attribute) and node.attr == "with_traceback" \
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
        and any(getattr(n, "id", None) in ("Exception", "BaseException")
                for n in ast.walk(node.args[-1]))


def test_only_grow_grids_lets_failed_work_go():
    # work made in a batch ahead of its queries that raises is let go whole,
    # and each query that needs it makes it again alone and raises its error
    assert set(_sites(_catches_failures)) == {("cuculescu", "grow_grids")}
    assert list(_sites(_keeps_an_exception)) == []


def _names(tree):
    """Every name `tree` reads, takes as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_the_verifiers_grow_trees_for_a_grid():
    # the good-lambda verifiers grow the trees of the levels they read, so
    # no runner grows them ahead of a verifier
    naming = {path.stem for path in sorted(SRC.glob("*.py"))
              if "grow_grids" in set(_names(ast.parse(path.read_text(), str(path))))}
    assert naming == {"cuculescu", "goodlambda"}


def _checks_a_level(node):
    """A call of `_check_level`."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_level"


def _loops_around_checks(func):
    """The number of loops around each `_check_level` call in `func`."""
    def visit(node, depth):
        if _checks_a_level(node):
            yield depth
        inner = depth + isinstance(node, (ast.For, ast.While, ast.comprehension))
        for child in ast.iter_child_nodes(node):
            yield from visit(child, inner)
    return list(visit(func, 0))


def test_a_leaf_is_checked_once_per_span():
    # a query checks the level it returns, and the band walk a leaf it serves
    # at its highest band top and lowest band end, for every base at once:
    # no loop over the bases checks a leaf again
    assert set(_sites(_checks_a_level)) == {("cuculescu", "_bands"), ("cuculescu", "cuculescu_r")}
    tree = ast.parse((SRC / "cuculescu.py").read_text())
    (bands,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_bands")
    assert _loops_around_checks(bands) == [1, 1]


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


def test_no_module_keeps_context_variable_state():
    # `run` forms the groups a suite is called on, so no suite hands rows
    # from one call to the next
    assert list(_modules_importing("contextvars")) == []


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_suite_maps_a_group_to_each_trials_rows(suite):
    cfg = ExperimentConfig(suite=suite, trials=1)
    assert SUITES[suite](cfg, [0]) == [run(cfg)[0]]


DEMOS = SRC.parents[1] / "demos"

# public names that no other module, no demo and nothing else in their own
# module uses, each with the reason it stays
UNREACHED = {
    "instances.arrow_squared_positive_pair":
        "a wrap target of perfbench/tracer.py, resolved by tests/test_trace_targets.py",
}


def _names_used(tree, skip=None):
    """The names `tree` reads or takes as attributes, outside the top-level
    function or class named `skip`; an import alone is no use."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == skip:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


def _unreached():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    used = {module: set(_names_used(tree)) for module, tree in trees.items()}
    for path in DEMOS.glob("*.py"):
        used[path.name] = set(_names_used(ast.parse(path.read_text(), str(path))))
    for module, tree in trees.items():
        public = next((stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                       and getattr(stmt.targets[0], "id", None) == "__all__"), None)
        for name in ast.literal_eval(public) if public else ():
            if not (name in set(_names_used(tree, skip=name))
                    or any(name in names for m, names in used.items() if m != module)):
                yield f"{module}.{name}"


def test_every_public_name_is_reached():
    # and a listed name that is reached now goes from the list
    assert set(_unreached()) == UNREACHED.keys()
