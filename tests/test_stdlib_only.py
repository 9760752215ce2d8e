"""The package imports nothing outside the standard library, and computes no float.

No module imports another module's underscore-prefixed name.
"""

import ast
import sys
from pathlib import Path

import swplumb

SOURCES = sorted(Path(swplumb.__file__).parent.glob("*.py"))


def absolute_imports(path):
    """Top-level module names of the absolute imports in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "torsion.py"}


def test_only_stdlib_and_swplumb_imports():
    allowed = sys.stdlib_module_names | {"swplumb"}
    foreign = [(path.name, name) for path in SOURCES
               for name in absolute_imports(path) if name not in allowed]
    assert foreign == []


def private_imports(path):
    """(module, name) for each underscore-prefixed name one source file imports from swplumb."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "swplumb"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.module, alias.name


def test_no_module_imports_another_modules_private_name():
    found = [(path.name, *hit) for path in SOURCES for hit in private_imports(path)]
    assert found == []


def test_private_import_scan_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\nfrom os import _exit\n"
                    "from .torsion import _orbit_product, orbit_trace\n"
                    "from swplumb.exact import _identity_rows\n"
                    "def f():\n    from . import _hidden\n")
    assert sorted(private_imports(path), key=str) == sorted([
        ("torsion", "_orbit_product"), ("swplumb.exact", "_identity_rows"),
        (None, "_hidden")], key=str)


# verify._blown_up's seeded coin, rng.random() < 0.5: it draws test graphs, not a value
FLOAT_LITERALS_ALLOWED = {("verify.py", "_blown_up", 0.5)}


def inexact_nodes(path):
    """(top-level definition, what) for each cmath import, float( or complex( call,
    and float or imaginary literal in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module.partition(".")[0]]
            else:
                names = []
            if "cmath" in names:
                yield owner, "import cmath"
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("float", "complex")):
                yield owner, f"{node.func.id}()"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                yield owner, node.value


def test_no_floating_point():
    found = [(path.name, owner, what) for path in SOURCES
             for owner, what in inexact_nodes(path)]
    assert [f for f in found if f not in FLOAT_LITERALS_ALLOWED] == []


def test_float_scan_sees_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import cmath\nfrom cmath import exp\n"
                    "def f(x):\n    return float(x) + complex(x) + 1e-9 + 2j\n")
    assert sorted(map(str, inexact_nodes(path))) == sorted(map(str, [
        (None, "import cmath"), (None, "import cmath"), ("f", "float()"),
        ("f", "complex()"), ("f", 1e-9), ("f", 2j)]))
