"""The package imports nothing outside the standard library, and computes no float.

No module imports another module's underscore-prefixed name, only the
homology module builds a FinAbGroup, the CLI compares no closed form, only
the oracles' readers import the `reference` module, and `reference` takes no
Smith code from `exact`.

Each guard is a filter over one scan: `scan` walks a source file once, and
RECORDS holds its records for every source file of the package.
tests/test_root_calls.py reads the same records.
"""

import ast
import sys
from pathlib import Path

import swplumb
from swplumb import exact

SOURCES = sorted(Path(swplumb.__file__).parent.glob("*.py"))
MODULES = {path.stem for path in SOURCES}


def scan(path):
    """(owner, kind, module, name) for each imported name, call and inexact literal in a file.

    owner is the dotted name of the enclosing classes and functions, "" at the
    top level.  An import gives kind "import" for each name it takes: module is
    the swplumb module it reads ("" for the package itself) or, for a foreign
    module, its top-level name in angle brackets, and name is the imported
    (dotted) name, not its alias.  A call gives kind "call" and the called name
    or attribute, a float or complex literal kind "literal" and its value.
    """
    records = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                # the dotted module a `from` import reads, relative ones inside swplumb
                source = None if isinstance(child, ast.Import) else (
                    f"swplumb.{child.module or ''}" if child.level else child.module)
                for alias in child.names:
                    top, _, sub = (source or alias.name).partition(".")
                    module = sub.partition(".")[0] or (
                        alias.name if source and alias.name in MODULES else "")
                    records.append((owner, "import", module if top == "swplumb" else f"<{top}>",
                                    alias.name))
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name:
                    records.append((owner, "call", None, name))
            elif isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
                records.append((owner, "literal", None, child.value))
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return records


RECORDS = {path.name: scan(path) for path in SOURCES}


def select(kind, *files):
    """(file, owner, module, name) for each record of one kind, in the files named or in all."""
    return [(file, owner, module, name) for file in files or RECORDS
            for owner, k, module, name in RECORDS[file] if k == kind]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "torsion.py"}


def scanned(tmp_path, source):
    """The records of `scan` for a sample file holding source."""
    path = tmp_path / "sample.py"
    path.write_text(source)
    return scan(path)


def imports(owner, *pairs):
    """Import records of one owner for (module, name) pairs."""
    return [(owner, "import", module, name) for module, name in pairs]


def test_private_import_scan_sees_each_form(tmp_path):
    assert scanned(tmp_path, "from __future__ import annotations\nfrom os import _exit, path\n"
                   "from .torsion import _orbit_product, orbit_table\n"
                   "from swplumb.exact import _identity_rows\n"
                   "def f():\n    from . import _hidden\n") == imports(
        "", ("<__future__>", "annotations"), ("<os>", "_exit"), ("<os>", "path"),
        ("torsion", "_orbit_product"), ("torsion", "orbit_table"),
        ("exact", "_identity_rows")) + imports("f", ("", "_hidden"))


def test_homology_scan_sees_each_form(tmp_path):
    assert scanned(tmp_path, "from .homology import FinAbGroup\nfrom . import homology\n"
                   "import swplumb.homology\nfrom swplumb.homology import lift\n"
                   "from .torsion import orbit_table\n"
                   "g = FinAbGroup((2,), (), ()) * homology.FinAbGroup((3,), (), ())\n") == imports(
        "", ("homology", "FinAbGroup"), ("homology", "homology"),
        ("homology", "swplumb.homology"), ("homology", "lift"), ("torsion", "orbit_table")) + [
        ("", "call", None, "FinAbGroup"), ("", "call", None, "FinAbGroup")]


def test_module_import_scan_sees_each_form(tmp_path):
    assert scanned(tmp_path, "import numpy.linalg, swplumb\nfrom os import path\n"
                   "from .reference import CycNum\nfrom . import reference\n"
                   "import swplumb.reference\nfrom swplumb.torsion import orbit_table\n"
                   "from swplumb import reference as r\n"
                   "class G:\n    @property\n    def field(self):\n"
                   "        from .reference import cyclotomic_field\n"
                   "        def inner():\n            from . import homology\n") == imports(
        "", ("<numpy>", "numpy.linalg"), ("", "swplumb"), ("<os>", "path"),
        ("reference", "CycNum"), ("reference", "reference"), ("reference", "swplumb.reference"),
        ("torsion", "orbit_table"), ("reference", "reference")) + imports(
        "G.field", ("reference", "cyclotomic_field")) + imports(
        "G.field.inner", ("homology", "homology"))


def test_exact_import_scan_sees_each_form(tmp_path):
    assert scanned(tmp_path, "from os import path\nfrom .exact import IntMatrix, smith_elimination\n"
                   "from swplumb.exact import replay_backward\nfrom . import exact, torsion\n"
                   "from swplumb import exact as e\nimport swplumb.exact\nimport swplumb\n"
                   "from .homology import FinAbGroup, smith_elimination as sm\n"
                   "def f():\n    from .exact import SmithLog\n") == imports(
        "", ("<os>", "path"), ("exact", "IntMatrix"), ("exact", "smith_elimination"),
        ("exact", "replay_backward"), ("exact", "exact"), ("torsion", "torsion"),
        ("exact", "exact"), ("exact", "swplumb.exact"), ("", "swplumb"),
        ("homology", "FinAbGroup"), ("homology", "smith_elimination")) + imports(
        "f", ("exact", "SmithLog"))


def test_route_scan_sees_each_form(tmp_path):
    assert scanned(tmp_path, "def f(d):\n"
                   "    return verify.Check('a', True, ''), seifert.seifert_k2nv(d)\n"
                   "g = seifert_torsion_shortcut(1, 2, 3)\nh = seifert_casson_walker\n") == [
        ("f", "call", None, "Check"), ("f", "call", None, "seifert_k2nv"),
        ("", "call", None, "seifert_torsion_shortcut")]


def test_float_scan_sees_each_kind(tmp_path):
    assert scanned(tmp_path, "import cmath, math\nfrom cmath import exp\n"
                   "from math import gcd, sqrt\ndef f(x):\n"
                   "    return float(x) + complex(x) + 1e-9 + 2j + field.root_of_unity(0)\n"
                   ) == imports(
        "", ("<cmath>", "cmath"), ("<math>", "math"), ("<cmath>", "exp"), ("<math>", "gcd"),
        ("<math>", "sqrt")) + [
        ("f", "call", None, "float"), ("f", "call", None, "complex"), ("f", "literal", None, 1e-9),
        ("f", "literal", None, 2j), ("f", "call", None, "root_of_unity")]


def test_only_stdlib_and_swplumb_imports():
    assert [(file, module) for file, _, module, _ in select("import") if module[:1] == "<"
            and module[1:-1] not in sys.stdlib_module_names] == []


def test_no_module_imports_another_modules_private_name():
    assert [(file, module, name) for file, _, module, name in select("import")
            if module[:1] != "<" and name.rpartition(".")[2].startswith("_")] == []


def test_groups_are_built_only_by_homology():
    # a FinAbGroup is certified data: only homology_from_lattice builds one,
    # and the Dedekind sums reach the orbit kernel without a group
    assert [(file, owner) for file, owner, _, name in select("call")
            if name == "FinAbGroup" and file != "homology.py"] == []
    assert [r for r in select("import", "dedekind.py") if "homology" in r[2:]] == []


# the slow oracles serve verify, the dedekind command's check and the package's re-exports
REFERENCE_READERS = {"__init__.py", "cli.py", "verify.py"}
# the traced bench run reads group.field (bench/run.py character_counts); the
# import goes when that count stops modelling one field per character
REFERENCE_IMPORTS_ALLOWED = {("homology.py", "FinAbGroup.field")}


def test_report_path_imports_no_reference():
    # every module but the readers: exact, plumbing, homology, torsion, report,
    # seifert, dedekind, brieskorn, corpus and errors, and any module added later
    assert {"exact.py", "homology.py", "reference.py"} <= set(RECORDS)
    assert [(file, owner) for file, owner, module, _ in select("import")
            if module == "reference" and file not in REFERENCE_READERS | {"reference.py"}
            and (file, owner) not in REFERENCE_IMPORTS_ALLOWED] == []


def test_dedekind_imports_no_torsion_or_homology():
    assert {module for _, _, module, _ in select("import", "dedekind.py")} \
        & {"torsion", "homology"} == set()


def test_reference_shares_no_smith_code_with_exact():
    # the Smith oracle is an independent elimination: from exact, reference takes
    # the matrix type and the integer test, and nothing of smith_elimination
    own = {name for name, value in vars(exact).items()
           if getattr(value, "__module__", None) == exact.__name__}
    assert {"smith_elimination", "replay_backward", "SmithLog"} <= own
    # `import swplumb...` and a package attribute (module "") bind the package, and exact with it
    assert {name for _, _, module, name in select("import", "reference.py") if module in
            ("exact", "") or name in own or name.startswith("swplumb.")} <= {"IntMatrix", "is_int"}


CLOSED_FORMS = {"seifert_casson_walker", "seifert_k2nv", "seifert_torsion_shortcut"}


def test_cli_builds_no_route_list():
    # the route lists live in verify, where the fixtures read them too; the CLI
    # renders them and builds only the dedekind command's oracle check
    assert [(owner.partition(".")[0], name) for _, owner, _, name in select("call", "cli.py")
            if name == "Check" or name in CLOSED_FORMS] == [("_cmd_dedekind", "Check")]


# verify._blown_up's seeded coin, rng.random() < 0.5: it draws test graphs, not a value
FLOAT_LITERALS_ALLOWED = {("verify.py", "_blown_up", 0.5)}
# the functions of math that take and give integers; cmath and the rest of math compute floats
MATH_INTEGER_NAMES = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod"}


def test_no_floating_point():
    found = [(file, owner.partition(".")[0], name) for file, records in RECORDS.items()
             for owner, kind, module, name in records
             if kind == "literal" or kind == "call" and name in ("float", "complex")
             or module == "<cmath>" or module == "<math>" and name not in MATH_INTEGER_NAMES]
    assert [f for f in found if f not in FLOAT_LITERALS_ALLOWED] == []
