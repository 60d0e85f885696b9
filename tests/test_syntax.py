"""Every module parses under the oldest Python that ``requires-python`` admits,
uses each name it imports, and, within the package, imports no other module's
underscore names and declares no class field that nothing reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "morphsmt").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def test_modules_are_found():
    assert ROOT / "src" / "morphsmt" / "phrasex.py" in MODULES
    assert Path(__file__).resolve() in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names that the module-level imports of ``tree`` bind and nothing
    in the module reads, apart from ``__future__`` imports and names listed
    in ``__all__``."""
    bound = {}  # name -> line of the import that binds it
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound[alias.asname or alias.name.partition(".")[0]] = stmt.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read and name not in exported]


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom e import f\n"
                     "__all__ = ['f']\nprint(d)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


PACKAGE = sorted((ROOT / "src" / "morphsmt").glob("*.py"))


def _private_imports(tree: ast.Module) -> list[str]:
    """The underscore names that ``tree`` imports from another module of the
    package (a relative import or one from ``morphsmt``), dunder names apart."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").partition(".")[0] == "morphsmt":
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_private_import_check_sees_a_private_name():
    tree = ast.parse("from . import __version__, _a\nfrom .b import c, _d\n"
                     "from morphsmt.e import _f\nfrom os import _exit\n")
    assert _private_imports(tree) == ["line 1: _a", "line 2: _d", "line 3: _f"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_imports(tree) == []


def _unread_fields(trees: list[ast.Module]) -> list[str]:
    """``Class.field`` for each annotated class field of ``trees`` whose name
    no tree reads as an attribute or spells as a whole string constant (as
    ``getattr`` and the config's keys name a field)."""
    fields = [(node.name, stmt.target.id) for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for stmt in node.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_field_check_sees_an_unread_field():
    trees = [ast.parse("class A:\n    read: int\n    named: int\n    unread: int\n"
                       "    written: int\n"),
             ast.parse("def f(a):\n    a.written = a.read\n    return getattr(a, 'named')\n")]
    assert _unread_fields(trees) == ["A.unread", "A.written"]


def test_every_class_field_is_read():
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in PACKAGE]
    assert _unread_fields(trees) == []
