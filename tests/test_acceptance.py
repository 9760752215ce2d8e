"""Acceptance gate: every numbered criterion, one test each.

Each test runs its fixtures through `verify.run`, the same runner as
`swplumb verify`, which prints one [PASS]/[FAIL] line per check (shown by
pytest when the test fails) and returns whether all passed.  All equalities
are exact (tolerance zero): rational identities, and the Gauss sums of
criterion 10 in a cyclotomic field.
"""

from swplumb import verify


def _run(*names):
    assert verify.run(names=names)


def test_criterion_01_lens_space_closed_forms():
    _run("01-lens-spaces")


def test_criterion_02_minus_two_chain_count():
    _run("02-minus-two-chains")


def test_criterion_03_dihedral_both_routes():
    _run("03-dihedral-stars")


def test_criterion_04_exceptional_stars():
    _run("04-exceptional-stars")


def test_criterion_05_three_arm_family_both_routes():
    _run("05-three-arm-family")


def test_criterion_06_three_arm_m3_torsion_route():
    _run("06-three-arm-m3")


def test_criterion_07_polygonal_stars():
    _run("07-polygonal-stars")


def test_criterion_08_nonstar_thirteen_vertices():
    _run("08-nonstar-graph")


def test_criterion_09_intersection_link_corpus():
    _run("09-intersection-links")


def test_criterion_10_property_suites():
    _run("10-normal-form-oracles", "11-cyclotomic-axioms",
         "12-dedekind-identities", "13-torsion-properties",
         "14-quadratic-identities", "15-linking-and-gauss",
         "16-blowup-stability", "17-seifert-round-trip",
         "18-eta-route-random", "19-unimodular")


def test_criterion_11_nonnegative_gap_sweep():
    _run("20-nonnegative-gap")
