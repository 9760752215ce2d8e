"""The package imports nothing outside the standard library, and computes no float.

No module imports another module's underscore-prefixed name, only the
homology module builds a FinAbGroup, the CLI compares no closed form, only
the oracles' readers import the `reference` module, and `reference` takes no
Smith code from `exact`.
"""

import ast
import sys
from pathlib import Path

import swplumb
from swplumb import exact

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


def homology_uses(path):
    """('import', module) for each import of swplumb's homology module, and
    ('FinAbGroup', line) for each call that constructs a group, in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "swplumb"):
            module = node.module or ""
            if "homology" in module.split(".") + [alias.name for alias in node.names]:
                yield "import", module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "swplumb.homology":
                    yield "import", alias.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "FinAbGroup":
                yield "FinAbGroup", node.lineno


def test_groups_are_built_only_by_homology():
    # a FinAbGroup is certified data: only homology_from_lattice builds one,
    # and the Dedekind sums reach the orbit kernel without a group
    built = [(path.name, line) for path in SOURCES
             for kind, line in homology_uses(path) if kind == "FinAbGroup"]
    assert [b for b in built if b[0] != "homology.py"] == []
    dedekind = next(path for path in SOURCES if path.name == "dedekind.py")
    assert list(homology_uses(dedekind)) == []


def test_homology_scan_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from .homology import FinAbGroup\nfrom . import homology\n"
                    "import swplumb.homology\nfrom swplumb.homology import lift\n"
                    "from .torsion import orbit_table\n"
                    "g = FinAbGroup((2,), (), ())\nh = homology.FinAbGroup((3,), (), ())\n")
    assert list(homology_uses(path)) == [
        ("import", "homology"), ("import", ""), ("import", "swplumb.homology"),
        ("import", "swplumb.homology"), ("FinAbGroup", 6), ("FinAbGroup", 7)]


def module_imports(path):
    """(owner, module) for each swplumb module one source file imports, at any depth.

    The owner is the dotted name of the enclosing classes and functions, None at
    the top level.  `from .reference import x`, `from . import reference`,
    `from swplumb.reference import x` and `import swplumb.reference` all give
    the module `reference`.
    """
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, child.name if owner is None else f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.ImportFrom):
                parts = (child.module or "").split(".")
                if child.level == 0:
                    if parts[0] != "swplumb":
                        continue
                    parts = parts[1:]
                if parts and parts[0]:
                    yield owner, parts[0]
                else:
                    yield from ((owner, alias.name) for alias in child.names)
            elif isinstance(child, ast.Import):
                yield from ((owner, alias.name.split(".")[1]) for alias in child.names
                            if alias.name.startswith("swplumb."))
            yield from visit(child, owner)

    yield from visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)


# the slow oracles serve verify, the dedekind command's check and the package's re-exports
REFERENCE_READERS = {"__init__.py", "cli.py", "verify.py"}
# the traced bench run reads group.field (bench/run.py character_counts); the
# import goes when that count stops modelling one field per character
REFERENCE_IMPORTS_ALLOWED = {("homology.py", "FinAbGroup.field")}


def test_report_path_imports_no_reference():
    # every module but the readers: exact, plumbing, homology, torsion, report,
    # seifert, dedekind, brieskorn, corpus and errors, and any module added later
    assert {"exact.py", "homology.py", "reference.py"} <= {path.name for path in SOURCES}
    found = [(path.name, owner) for path in SOURCES
             if path.name not in REFERENCE_READERS | {"reference.py"}
             for owner, module in module_imports(path) if module == "reference"]
    assert [f for f in found if f not in REFERENCE_IMPORTS_ALLOWED] == []


def test_dedekind_imports_no_torsion_or_homology():
    dedekind = next(path for path in SOURCES if path.name == "dedekind.py")
    assert {module for _, module in module_imports(dedekind)} & {"torsion", "homology"} == set()


def test_module_import_scan_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from os import path\nfrom .reference import CycNum\nfrom . import reference\n"
                    "import swplumb.reference\nfrom swplumb.torsion import orbit_table\n"
                    "class G:\n    @property\n    def field(self):\n"
                    "        from .reference import cyclotomic_field\n"
                    "        def inner():\n            from . import homology\n")
    assert list(module_imports(path)) == [
        (None, "reference"), (None, "reference"), (None, "reference"), (None, "torsion"),
        ("G.field", "reference"), ("G.field.inner", "homology")]


def exact_imports(path, names):
    """Each name one source file takes from swplumb's exact module, at any depth: the
    names imported from it, `exact` for the module, the dotted name of an `import
    swplumb...`, and each of `names` imported from another swplumb module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.partition(".")[0] == "swplumb")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.partition(".")[0] == "swplumb"):
            module = ((node.module or "").split(".")[0 if node.level else 1:] or [""])[0]
            yield from (a.name for a in node.names if module == "exact" or a.name in names
                        or (not module and a.name == "exact"))


def test_reference_shares_no_smith_code_with_exact():
    # the Smith oracle is an independent elimination: from exact, reference takes
    # the matrix type and the integer test, and nothing of smith_elimination
    own = {name for name, value in vars(exact).items()
           if getattr(value, "__module__", None) == exact.__name__}
    assert {"smith_elimination", "replay_backward", "SmithLog"} <= own
    reference = next(path for path in SOURCES if path.name == "reference.py")
    assert set(exact_imports(reference, own)) <= {"IntMatrix", "is_int"}


def test_exact_import_scan_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from os import path\nfrom .exact import IntMatrix, smith_elimination\n"
                    "from swplumb.exact import replay_backward\nfrom . import exact, torsion\n"
                    "from swplumb import exact as e\nimport swplumb.exact\nimport swplumb\n"
                    "from .homology import FinAbGroup, smith_elimination as sm\n"
                    "def f():\n    from .exact import SmithLog\n")
    assert sorted(exact_imports(path, {"smith_elimination"})) == sorted([
        "IntMatrix", "smith_elimination", "replay_backward", "exact", "exact",
        "swplumb.exact", "swplumb", "smith_elimination", "SmithLog"])


CLOSED_FORMS = {"seifert_casson_walker", "seifert_k2nv", "seifert_torsion_shortcut"}


def route_calls(path):
    """(top-level definition, name) for each call of `Check` or of a Seifert
    closed form in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Check" or name in CLOSED_FORMS:
                    yield getattr(top, "name", None), name


def test_cli_builds_no_route_list():
    # the route lists live in verify, where the fixtures read them too; the CLI
    # renders them and builds only the dedekind command's oracle check
    cli = next(path for path in SOURCES if path.name == "cli.py")
    assert list(route_calls(cli)) == [("_cmd_dedekind", "Check")]


def test_route_scan_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(d):\n    return verify.Check('a', True, ''), seifert.seifert_k2nv(d)\n"
                    "g = seifert_torsion_shortcut(1, 2, 3)\nh = seifert_casson_walker\n")
    assert list(route_calls(path)) == [("f", "Check"), ("f", "seifert_k2nv"),
                                       (None, "seifert_torsion_shortcut")]


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
