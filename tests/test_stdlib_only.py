"""The package imports nothing outside the standard library."""

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
