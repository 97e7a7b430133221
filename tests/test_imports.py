"""Unused imports in the library source.

The project configures no linter, so this test parses each module of
src/randgroups with ast and fails on an imported name that the module
never reads (a name listed in __all__ counts as read).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "randgroups"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_finds_unread_names():
    source = "import os, numpy as np\nfrom x import y, z as w\nfrom __future__ import annotations\nprint(y)\n"
    assert unused_imports(source) == ["np", "os", "w"]
    assert unused_imports("import a.b\n__all__ = ['c']\nfrom d import c\na.b()\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
