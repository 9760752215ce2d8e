"""Roots of unity are built only where the torsion kernel and its oracles live.

Every torsion character sum goes through the two helpers in `torsion.py`, so
no other module builds zeta^a, zeta^a - 1 or its inverse itself.  The only
other callers are the `Q(zeta_N)` code in `exact.py` and the two oracles that
check it: `dedekind.fourier_identity_suite` and `verify.cyclotomic_props`.
"""

import ast
from pathlib import Path

import swplumb

SOURCES = sorted(Path(swplumb.__file__).parent.glob("*.py"))
ROOT_BUILDERS = {"root_of_unity", "root_minus_one", "inv_root_minus_one"}
ALLOWED = {"exact.py": None, "torsion.py": None,
           "dedekind.py": {"fourier_identity_suite"},
           "verify.py": {"cyclotomic_props"}}


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


def test_scan_sees_the_kernel():
    calls = {name for path in SOURCES if path.name == "torsion.py"
             for _, name in root_calls(path)}
    assert calls == ROOT_BUILDERS


def test_root_builders_called_only_in_the_kernel_and_its_oracles():
    stray = []
    for path in SOURCES:
        allowed = ALLOWED.get(path.name, set())
        stray += [(path.name, owner, name) for owner, name in root_calls(path)
                  if allowed is not None and owner not in allowed]
    assert stray == []
