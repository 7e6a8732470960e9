"""The core is stdlib-only: every import a module runs when it is loaded
names a standard-library module or beamforge itself.  Imports inside a
function body run only when it is called, which is how optional
dependencies are loaded, so they are not checked."""

import ast
import pathlib
import sys

import pytest

import beamforge

MODULES = sorted(pathlib.Path(beamforge.__file__).parent.glob("*.py"))


def load_time_imports(tree):
    """(line, top-level module name) of every import outside a function body;
    a relative import is beamforge's own."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "beamforge" if node.level else node.module.split(".")[0]
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_every_module_is_checked():
    assert {"cli", "ga", "evaluation", "patterns", "instance"} <= {m.stem for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_stdlib_or_beamforge(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        (line, name)
        for line, name in load_time_imports(tree)
        if name != "beamforge" and name not in sys.stdlib_module_names
    ]
    assert outside == []
