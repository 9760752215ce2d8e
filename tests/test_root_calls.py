"""Roots of unity are built only in the reference arithmetic and its oracles.

The torsion pipeline and the root-of-unity sums of `reference._root_sum` take
one trace per Galois orbit and build no root of unity, and
`reference.gauss_sum_check` builds its elements from coefficient vectors.  The
only callers are the reference product `reference.regularized_product` and
the oracles that check it and the `Q(zeta_N)` code: `verify.cyclotomic_props`
and `verify.torsion_props`.
"""

import ast
from pathlib import Path

import swplumb

SOURCES = sorted(Path(swplumb.__file__).parent.glob("*.py"))
ROOT_BUILDERS = {"root_of_unity", "root_minus_one", "inv_root_minus_one"}
ALLOWED = {"reference.py": {"regularized_product"},
           "verify.py": {"cyclotomic_props", "torsion_props"}}


def root_calls(path):
    """(top-level definition, called name) for each root builder called in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ROOT_BUILDERS:
                yield owner, name


def test_scan_sees_the_reference():
    calls = {call for path in SOURCES if path.name in ("reference.py", "verify.py")
             for call in root_calls(path)}
    assert calls == {("regularized_product", "root_minus_one"),
                     ("regularized_product", "inv_root_minus_one"),
                     ("cyclotomic_props", "root_of_unity"),
                     ("cyclotomic_props", "root_minus_one"),
                     ("cyclotomic_props", "inv_root_minus_one"),
                     ("torsion_props", "root_of_unity")}


def test_root_builders_called_only_in_the_reference_and_its_oracles():
    stray = []
    for path in SOURCES:
        allowed = ALLOWED.get(path.name, set())
        stray += [(path.name, owner, name) for owner, name in root_calls(path)
                  if owner not in allowed]
    assert stray == []
