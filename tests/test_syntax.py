"""Every module parses under the oldest Python that ``requires-python`` admits,
uses each name it imports, and, within the package, imports no other module's
underscore names, declares no class field that nothing reads and, outside
``morpho``, opens no file in text mode."""

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


def _instance_fields(cls: ast.ClassDef) -> list[str]:
    """The attributes that the methods of ``cls`` assign on their first
    parameter (``self.x = ...`` and ``self.x: T = ...``)."""
    found = []
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or not method.args.args:
            continue
        first = method.args.args[0].arg
        for node in ast.walk(method):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found += [t.attr for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                      and t.value.id == first]
    return found


def _unread_fields(trees: list[ast.Module]) -> list[str]:
    """``Class.field`` for each annotated class field of ``trees``, and each
    attribute a method assigns on its ``self``, whose name no tree reads as
    an attribute or spells as a whole string constant (as ``getattr`` and the
    config's keys name a field)."""
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    fields = [(cls.name, stmt.target.id) for cls in classes for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    fields += [(cls.name, name) for cls in classes for name in _instance_fields(cls)]
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
                       "    written: int\n"
                       "    def __init__(this, n):\n        this.kept = n\n"
                       "        this.dropped: int = n\n        this.read = this.named = n\n"),
             ast.parse("def f(a):\n    a.written = a.read\n    return getattr(a, 'named')\n"
                       "def g(a):\n    return a.kept\n")]
    assert _unread_fields(trees) == ["A.unread", "A.written", "A.dropped"]


def test_every_class_field_is_read():
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in PACKAGE]
    assert _unread_fields(trees) == []


TEXT_FILE_CALLS = ("read_text", "write_text", "open")  # method calls that open a file


def _text_file_opens(tree: ast.Module) -> list[str]:
    """Each ``open(...)`` call of ``tree`` whose mode has no ``b`` (or is not
    a string constant), and each ``.read_text``, ``.write_text`` or ``.open``
    call: the ways a module could open a text file."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
            if not (mode and isinstance(mode[0], ast.Constant) and "b" in str(mode[0].value)):
                found.append(f"line {node.lineno}: open")
        elif isinstance(node.func, ast.Attribute) and node.func.attr in TEXT_FILE_CALLS:
            found.append(f"line {node.lineno}: .{node.func.attr}")
    return found


def test_text_file_check_sees_a_text_open():
    tree = ast.parse("open(p)\nopen(p, 'w', encoding='utf-8')\nopen(p, 'rb')\n"
                     "open(p, mode='wb')\nopen(p, m)\np.read_text()\np.write_text(s)\n"
                     "p.open('rb')\np.read_bytes()\n")
    assert _text_file_opens(tree) == ["line 1: open", "line 2: open", "line 5: open",
                                      "line 6: .read_text", "line 7: .write_text",
                                      "line 8: .open"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "morpho.py"],
                         ids=lambda p: p.name)
def test_no_module_but_morpho_opens_a_text_file(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _text_file_opens(tree) == []
