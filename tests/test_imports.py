"""Import hygiene and callers of the package, read from its source with
`ast`.

Every imported name must be used in the module that imports it, and no
module imports an underscore name from another: a private helper another
module needs is a public one. The package `__init__` only re-exports, so
its imports count as used. Every public function has a caller outside the
unit tests, and every defaulted parameter is set by some call.
"""

import ast
import re
from collections import Counter
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


# -- callers ----------------------------------------------------------------

ROOT = PACKAGE.parent.parent
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    """(qualified name, def node, class node or None) for every function at
    module level or in a class body."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item, node


def _references(tree, strings=False) -> Counter:
    """Names read as variables, and as ".name" those read as attributes;
    with strings, also the parts of every dotted-name string constant, the
    parts after the first as attributes: that is how bench/tracer.py names
    the functions and methods it wraps ("Ball.contains")."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out["." + node.attr] += 1
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED.fullmatch(node.value)
        ):
            first, *rest = node.value.split(".")
            out[first] += 1
            out.update("." + part for part in rest)
    return out


def _reads(references, node, owner) -> int:
    """How often a def is read: a method only as an attribute, so that a
    variable or string of the same name does not keep it alive; a function
    as a variable or an attribute."""
    attribute = references["." + node.name]
    return attribute if owner else attribute + references[node.name]


def test_every_public_function_has_a_caller():
    """A public function or method is read somewhere in the package outside
    its own body, in the benchmark, or in the acceptance tests, or the
    package exports it; otherwise it is dead code kept alive by its tests.
    Names are matched without their receiver, so a dead method still passes
    when a live one elsewhere shares its name."""
    trees = {path: _tree(path) for path in MODULES}
    inside = sum((_references(tree) for tree in trees.values()), Counter())
    outside = _references(_tree(ACCEPTANCE))
    for path in BENCH:
        outside += _references(_tree(path), strings=True)
    exported = {
        alias.asname or alias.name
        for node in trees[PACKAGE / "__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    dead = [
        f"{path.name}:{node.lineno} {qual}"
        for path, tree in trees.items()
        for qual, node, owner in _definitions(tree)
        if not node.name.startswith("_")
        and _reads(inside, node, owner) <= _reads(_references(node), node, owner)
        and not _reads(outside, node, owner)
        and node.name not in exported
    ]
    assert not dead, "no caller: " + ", ".join(dead)


def _defaulted(node, owner):
    """{parameter: positional index or None} for the defaulted parameters of
    a def; a method's index skips self or cls."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    skip = 0 if owner is None else 1
    out = {
        a.arg: i - skip
        for i, a in enumerate(positional)
        if i >= len(positional) - len(args.defaults)
    }
    out.update(
        (a.arg, None)
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    )
    return out


def _calls(tree):
    """(call, the module- or class-level def around it, or None) for every
    call in the module."""
    around = {
        id(sub): node
        for _, node, _ in _definitions(tree)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
    }
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Call):
            yield sub, around.get(id(sub))


def test_every_default_is_overridden():
    """Every defaulted parameter of a function or method in the package is
    given a value by some call in the package, the benchmark or the tests:
    by keyword, or by enough positional arguments to reach it. A call of a
    class counts for its __init__. An argument that only forwards a default
    of the calling function counts once that default is overridden in turn.
    A parameter no call sets is a constant in disguise."""
    params = {}  # def node -> {parameter: positional index or None}
    by_name = {}  # called name -> def nodes it may reach
    where = {}
    trees = {path: _tree(path) for path in [*MODULES, *BENCH, *TESTS]}
    for path in MODULES:
        for qual, node, owner in _definitions(trees[path]):
            params[node] = _defaulted(node, owner)
            where[node] = f"{path.name}:{node.lineno} {qual}"
            name = owner.name if node.name == "__init__" else node.name
            by_name.setdefault(name, []).append(node)
    given = set()  # (def node, parameter) set by a call
    forwards = []  # ((def, parameter), (calling def, its parameter))
    for tree in trees.values():
        for call, caller in _calls(tree):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {kw.arg: kw.value for kw in call.keywords}
            spread = None in keywords or any(
                isinstance(a, ast.Starred) for a in call.args
            )
            for node in by_name.get(name, ()):
                for param, index in params[node].items():
                    if param in keywords:
                        value = keywords[param]
                    elif index is not None and index < len(call.args):
                        value = call.args[index]
                    elif spread:
                        value = None
                    else:
                        continue
                    if (
                        isinstance(value, ast.Name)
                        and caller in params
                        and value.id in params[caller]
                    ):
                        forwards.append(((node, param), (caller, value.id)))
                    else:
                        given.add((node, param))
    grown = True
    while grown:
        grown = False
        for target, source in forwards:
            if source in given and target not in given:
                given.add(target)
                grown = True
    never = sorted(
        f"{where[node]}({param})"
        for node, names in params.items()
        for param in names
        if (node, param) not in given
    )
    assert not never, "never set: " + ", ".join(never)
