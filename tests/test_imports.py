"""The core is stdlib-only: every import a module runs when it is loaded
names a standard-library module or beamforge itself.  Imports inside a
function body run only when it is called, which is how optional
dependencies are loaded, so they are not checked.  Every name a load-time
import binds is read in its module, so a deletion leaves no stale import.
Every beamforge name the benchmark in `perfbench/` patches or reads exists.
Every error type but the base class is raised somewhere in the package."""

import ast
import dataclasses
import importlib
import pathlib
import sys

import pytest

import beamforge
from beamforge.ga import GaResult

MODULES = sorted(pathlib.Path(beamforge.__file__).parent.glob("*.py"))


def import_nodes(tree):
    """Every import statement outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        else:
            stack.extend(ast.iter_child_nodes(node))


def load_time_imports(tree):
    """(line, top-level module name) of every import outside a function body;
    a relative import is beamforge's own."""
    for node in import_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        else:
            yield node.lineno, "beamforge" if node.level else node.module.split(".")[0]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_is_checked():
    assert {"cli", "ga", "evaluation", "patterns", "instance"} <= {m.stem for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_stdlib_or_beamforge(path):
    tree = parse(path)
    outside = [
        (line, name)
        for line, name in load_time_imports(tree)
        if name != "beamforge" and name not in sys.stdlib_module_names
    ]
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_load_time_import_is_read(path):
    tree = parse(path)
    bound = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in import_nodes(tree)
        if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert [(line, name) for line, name in bound if name not in read] == []


def test_every_error_type_is_raised():
    errors = next(m for m in MODULES if m.stem == "errors")
    defined = {
        node.name for node in parse(errors).body if isinstance(node, ast.ClassDef)
    } - {"BeamforgeError"}
    raised = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert "InfeasibleInstanceError" in defined
    assert sorted(defined - raised) == []


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_reads():
    """(module, name) of every beamforge name `perfbench/workloads.py` reads:
    the names it imports from a beamforge module, and the attributes it reads
    of the beamforge modules it imports."""
    tree = parse(PERFBENCH / "workloads.py")
    modules, reads = {}, set()
    for node in import_nodes(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("beamforge"):
            for alias in node.names:
                if node.module == "beamforge":  # a module of the package
                    modules[alias.asname or alias.name] = f"beamforge.{alias.name}"
                else:
                    reads.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_perfbench_names_exist():
    # perfbench patches its layer hooks (`Tracer.install` runs getattr on
    # each) and reads the program from outside, so a rename would break the
    # benchmark run rather than a test.
    tree = parse(PERFBENCH / "spans.py")
    hooks = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "LAYER_FUNCTIONS"
    )
    reads = perfbench_reads()
    # The parse found the names: a few that perfbench is known to use.
    assert ("beamforge.evaluation", "classify_infeasibility") in hooks
    assert {("beamforge.ga", "random_solution"), ("beamforge.harness", "TrialDesign"),
            ("beamforge.ilp", "induced_assignment")} <= reads
    missing = [(m, n) for m, n in hooks.keys() | reads
               if not hasattr(importlib.import_module(m), n)]
    assert missing == []
    assert all(callable(getattr(importlib.import_module(m), n)) for m, n in hooks)
    assert "rejected_constructions" in {f.name for f in dataclasses.fields(GaResult)}
