"""Unused imports and dead private definitions in the library source.

The project configures no linter, so this test parses each module of
src/randgroups with ast and fails on an imported name that the module
never reads (a name listed in __all__ counts as read), and on a
module-level private function or class that no statement of any module
but its own definition refers to.
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


def _names_read(node: ast.AST) -> set[str]:
    """Names a subtree refers to: loads, attributes, imported names and
    the strings of an __all__ list."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
        elif isinstance(sub, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets
        ):
            out.update(ast.literal_eval(sub.value))
    return out


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """module:name for each top-level private def or class of the given
    modules that only its own definition refers to."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(stmt, kinds) and stmt.name.startswith("_") and not stmt.name.startswith("__"):
                defined.append((module, stmt.name))
                read.update(_names_read(stmt) - {stmt.name})
            else:
                read.update(_names_read(stmt))
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_unreferenced_private_definitions_finds_dead_helpers():
    sources = {
        "a": "def _used():\n    pass\ndef _dead():\n    return _dead()\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\ndef public():\n    return _used()\ndef __dunder__():\n    pass\n",
    }
    assert unreferenced_private_definitions(sources) == ["a:_Gone", "a:_dead"]


def test_no_unreferenced_private_definitions():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []
