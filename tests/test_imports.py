"""Import hygiene of the package, read from its source with `ast`.

Every imported name must be used in the module that imports it, and no
module imports an underscore name from another: a private helper another
module needs is a public one. The package `__init__` only re-exports, so
its imports count as used.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_affine"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    """(bound name, imported name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node.lineno


def _used_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    if path.name == "__init__.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [
        f"{path.name}:{line} {name}"
        for bound, name, line in _imports(tree)
        if bound not in used
    ]
    assert not unused


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_imported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{path.name}:{line} {name}"
        for _, name, line in _imports(tree)
        if name.rsplit(".", 1)[-1].startswith("_")
    ]
    assert not private


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_at_module_level(path):
    """A function-local import hides a module's dependencies from its head."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = set(map(id, tree.body))
    nested = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not nested
