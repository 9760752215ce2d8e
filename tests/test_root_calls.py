"""Roots of unity are built only in the reference arithmetic and its oracles.

The torsion pipeline and the root-of-unity sums of `reference._root_sum` take
one trace per Galois orbit and build no root of unity, and
`reference.gauss_sum_check` builds its elements from coefficient vectors.  The
only callers are the reference product `reference.regularized_product` and
the oracles that check it and the `Q(zeta_N)` code: `verify.cyclotomic_props`
and `verify.torsion_props`.  The guard reads the call records of the one scan
in tests/test_stdlib_only.py.
"""

from test_stdlib_only import select

ROOT_BUILDERS = {"root_of_unity", "root_minus_one", "inv_root_minus_one"}
ALLOWED = {"reference.py": {"regularized_product"},
           "verify.py": {"cyclotomic_props", "torsion_props"}}


def test_scan_sees_the_reference():
    assert {(owner.partition(".")[0], name) for _, owner, _, name
            in select("call", "reference.py", "verify.py") if name in ROOT_BUILDERS} == {
        ("regularized_product", "root_minus_one"), ("regularized_product", "inv_root_minus_one"),
        ("cyclotomic_props", "root_of_unity"), ("cyclotomic_props", "root_minus_one"),
        ("cyclotomic_props", "inv_root_minus_one"), ("torsion_props", "root_of_unity")}


def test_root_builders_called_only_in_the_reference_and_its_oracles():
    assert [(file, owner, name) for file, owner, _, name in select("call")
            if name in ROOT_BUILDERS
            and owner.partition(".")[0] not in ALLOWED.get(file, ())] == []
