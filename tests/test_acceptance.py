"""Acceptance gate: every numbered criterion, one test each.

Each test runs its fixtures through `verify.run`, the same runner as
`swplumb verify`, which prints one [PASS]/[FAIL] line per check and returns
whether all passed.  The printed lines must equal those fixtures' lines in
`data/verify_lines.txt`, the committed output of `swplumb verify`, so a count
or a detail that moves fails its test.  All equalities are exact (tolerance
zero): rational identities, and the Gauss sums of criterion 10 in a
cyclotomic field.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

from swplumb import verify

LINES = (Path(__file__).parent / "data" / "verify_lines.txt").read_text(
    encoding="utf-8").splitlines()


def _run(*names):
    out = io.StringIO()
    with redirect_stdout(out):
        passed = verify.run(names=names)
    assert out.getvalue().splitlines() == [
        line for line in LINES if line.split()[1].rstrip(":") in names
    ] + ["result: all fixtures passed"]
    assert passed


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


def test_a_failed_check_is_counted_once_and_named(monkeypatch, capsys):
    # one of fixture 11's 70 checks fails: the small cyclotomic polynomials
    monkeypatch.setattr(verify, "cyclotomic_polynomial", lambda n: ())
    assert not verify.run(names=["11-cyclotomic-axioms"])
    assert capsys.readouterr().out.splitlines() == [
        "[FAIL] 11-cyclotomic-axioms: cyclotomic field axioms and root sums "
        "(1/70 failed: ['small-polynomials'])",
        "result: FAILURES detected"]
