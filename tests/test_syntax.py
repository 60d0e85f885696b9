"""Every module parses under the oldest Python that ``requires-python`` admits."""

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
