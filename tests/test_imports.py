"""Unused imports and dead private definitions in the library source.

The project configures no linter, so this test parses each module of
src/randgroups with ast and fails on an imported name that the module
never reads (a name listed in __all__ counts as read), on a
module-level private function or class that no statement of any module
but its own definition refers to, and on a non-dunder method of a
library class that no statement of src/, tests/, scripts/ or bench/
reads outside its own definition.  It also fails on a knob: a defaulted
positional parameter of a library function that no call in those trees
passes, or that every call passes.  Last, importing randgroups.cli in a
fresh interpreter must load nothing beyond what numpy loads but the
standard library and randgroups itself, and neither numpy.ma nor
numpy.random: set-up time is mostly that import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "randgroups"


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


def unreferenced_methods(library: dict[str, str], users: list[str]) -> list[str]:
    """module:Class.method for each non-dunder method of a top-level
    class of the library modules that no statement of the library or of
    the user sources reads, its own definition aside."""
    defined, read = [], set()
    for source in users:
        read.update(_names_read(ast.parse(source)))
    for module, source in library.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, ast.ClassDef):
                read.update(_names_read(stmt))
                continue
            for sub in stmt.decorator_list + stmt.bases + stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not sub.name.startswith("__"):
                    defined.append((module, stmt.name, sub.name))
                    read.update(_names_read(sub) - {sub.name})
                else:
                    read.update(_names_read(sub))
    return sorted(f"{module}:{cls}.{name}" for module, cls, name in defined if name not in read)


def test_unreferenced_methods_finds_dead_methods():
    library = {
        "a": (
            "class A:\n"
            "    def __init__(self):\n        pass\n"
            "    def used(self):\n        return self.helper()\n"
            "    def helper(self):\n        return 1\n"
            "    def dead(self):\n        return self.dead()\n"
            "    @property\n    def size(self):\n        return 0\n"
            "def f(a):\n    return a.size\n"
        ),
    }
    users = ["from a import A\nA().used()\n"]
    assert unreferenced_methods(library, users) == ["a:A.dead"]


def test_no_unreferenced_methods():
    library = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    users = [path.read_text() for d in ("tests", "scripts", "bench") for path in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_methods(library, users) == []


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passes(call: ast.Call, index: int, name: str) -> bool:
    """Whether a call passes the parameter at positional index `index`
    (self not counted) or named `name`; *args and **kwargs count."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return len(call.args) > index or any(k.arg == name for k in call.keywords)


def unvaried_knobs(library: dict[str, str], users: list[str]) -> list[str]:
    """module:function: parameter for each defaulted positional parameter
    of a non-dunder library function (a method's self or cls aside)
    that no call of that name passes, or every call does; calls are
    matched by name across the library and the user sources."""
    defined = []
    for module, source in library.items():
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("__"):
                continue
            params = node.args.posonlyargs + node.args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            if id(node) in methods and not static:
                params = params[1:]
            for index in range(len(params) - len(node.args.defaults), len(params)):
                defined.append((module, node.name, index, params[index].arg))
    calls: dict[str, list[ast.Call]] = {}
    for source in [*library.values(), *users]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and (name := _call_name(node)):
                calls.setdefault(name, []).append(node)
    out = []
    for module, func, index, param in defined:
        passed = [_passes(c, index, param) for c in calls.get(func, [])]
        if not any(passed) or all(passed):
            out.append(f"{module}:{func}: {param}")
    return sorted(out)


def test_unvaried_knobs_finds_one_valued_parameters():
    library = {
        "a": (
            "def f(x, cap=10, mode=None, depth=1):\n    return g(x, kind=depth)\n"
            "def g(x, kind=None):\n    return x\n"
            "def h(x, y=0):\n    return x\n"
            "class C:\n"
            "    def __init__(self, size=3):\n        pass\n"
            "    def m(self, k=1):\n        return k\n"
            "    @staticmethod\n    def s(k=1):\n        return k\n"
        ),
    }
    users = [
        "from a import f, h, C\n"
        "f(1, 2)\nf(1, 3, mode='x')\nf(1, 4)\n"
        "h(*args)\nh(1)\n"
        "C().m()\nC().m(2)\nC.s(k=2)\n"
    ]
    assert unvaried_knobs(library, users) == ["a:f: cap", "a:f: depth", "a:g: kind", "a:s: k"]


def test_no_unvaried_knobs():
    library = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    users = [path.read_text() for d in ("tests", "scripts", "bench") for path in sorted((ROOT / d).rglob("*.py"))]
    assert unvaried_knobs(library, users) == []


def test_cli_import_loads_only_the_standard_library_beyond_numpy():
    # a fresh interpreter, so that nothing this test run imported counts
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import randgroups.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120)
    added, numpy_extras = out.stdout.splitlines()
    foreign = [
        name for name in added.split()
        if name.split(".")[0] != "randgroups" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
    assert "randgroups.cli" in added.split()
    assert numpy_extras == "False False"
