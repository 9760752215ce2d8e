"""Command-line surface: formats, exit codes, determinism, harness sensitivity."""

import argparse
import dataclasses
import json
from fractions import Fraction

import pytest

from swplumb import cli, dedekind, seifert, verify
from swplumb.cli import EXIT_CAP, EXIT_INPUT, EXIT_MISMATCH, main
from swplumb.errors import InternalInvariantViolated, NotRational
from swplumb.plumbing import PlumbingGraph
from swplumb.report import compute_report, report_from_json, report_to_json
from swplumb.verify import Check
from swplumb.corpus import chain_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, doc, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GOOD = {"vertices": [{"id": "v0", "euler": -2}, {"id": "v1", "euler": -2}],
        "edges": [["v0", "v1"]]}

CYCLIC = {"vertices": [{"id": "a", "euler": -2}, {"id": "b", "euler": -2},
                       {"id": "c", "euler": -2}],
          "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}


def test_graph_table_output(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "graph", write_graph(tmp_path, GOOD))
    assert code == 0
    assert "sw0(canonical)" in out and "1/4" in out
    assert "|H|" in out and "3" in out


def test_graph_json_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "graph", write_graph(tmp_path, GOOD),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sw0"] == {"num": 1, "den": 4}
    assert doc["conjecture_gap"] == {"num": 0, "den": 1}


def test_graph_determinism(tmp_path, capsys):
    path = write_graph(tmp_path, GOOD)
    _, out1, _ = run_cli(capsys, "graph", path, "--format", "json")
    _, out2, _ = run_cli(capsys, "graph", path, "--format", "json")
    assert out1 == out2


def test_cyclic_graph_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "graph", write_graph(tmp_path, CYCLIC))
    assert code == 1
    assert "NotATree" in err


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "graph", str(path))
    assert code == 1
    assert "line" in err


def test_indefinite_graph_exit_code(tmp_path, capsys):
    doc = {"vertices": [{"id": "v0", "euler": 1}], "edges": []}
    code, _, err = run_cli(capsys, "graph", write_graph(tmp_path, doc))
    assert code == 1
    assert "NotNegativeDefinite" in err


def test_order_cap_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "graph", write_graph(tmp_path, GOOD),
                           "--max-order", "2")
    assert code == 2
    assert "cap" in err


def test_all_spinc_table(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "graph", write_graph(tmp_path, GOOD),
                           "--all-spinc")
    assert code == 0
    assert out.count("h = ") == 3


def test_lens_command(capsys):
    code, out, _ = run_cli(capsys, "lens", "3", "2")
    assert code == 0
    assert "1/4" in out
    assert "MISMATCH" not in out
    assert out.count("MATCH") == 3


def test_lens_bad_arguments(capsys):
    code, _, err = run_cli(capsys, "lens", "4", "2")
    assert code == 1
    assert "coprime" in err


def test_seifert_command(capsys):
    code, out, _ = run_cli(capsys, "seifert", "--b", "-2", "--arm", "2/1",
                           "--arm", "3/2", "--arm", "4/3")
    assert code == 0
    assert "KS = 7" in out
    assert "7/8" in out
    assert "MISMATCH" not in out


def test_seifert_bad_arm(capsys):
    code, _, err = run_cli(capsys, "seifert", "--b", "-2", "--arm", "nope")
    assert code == 1


def test_brieskorn_command(capsys):
    code, out, _ = run_cli(capsys, "brieskorn", "2", "3", "5")
    assert code == 0
    assert "sigma" in out and "-8" in out
    assert "MISMATCH" not in out


def test_brieskorn_rejects_positive_genus(capsys):
    code, _, err = run_cli(capsys, "brieskorn", "2", "2", "2", "2")
    assert code == 1
    assert "genus" in err


def test_brieskorn_two_arm_links(capsys):
    # (4,2,2) leaves two nontrivial arms: the lens space L(4,1) of A_3
    code, out, _ = run_cli(capsys, "brieskorn", "4", "2", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order_h"] == 4
    assert doc["sw0"] == {"num": 3, "den": 8}
    assert not any(line.endswith("[MISMATCH]") for line in doc["cross_checks"])


def test_dedekind_command(capsys):
    code, out, _ = run_cli(capsys, "dedekind", "2", "3")
    assert code == 0
    assert "-1/18" in out and "MATCH" in out
    code, out, _ = run_cli(capsys, "dedekind", "1", "2", "--y", "1/2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"num": 1, "den": 8}
    assert doc["oracle_agrees"] is True


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("x, y", [("1/3", "-2/5"), ("-1/3", "-2/5"), ("-2", "-.5")])
def test_dedekind_negative_shift_as_separate_argument(capsys, fmt, x, y):
    # argparse takes "-2/5" for an option, so "--y -2/5" is read as "--y=-2/5";
    # "-2" and "-.5" were accepted before and read the same
    joined = run_cli(capsys, "dedekind", "5", "12", f"--x={x}", f"--y={y}", "--format", fmt)
    separate = run_cli(capsys, "dedekind", "5", "12", "--x", x, "--y", y, "--format", fmt)
    assert separate == joined
    code, out, err = separate
    assert code == 0 and err == ""
    if (x, y) == ("1/3", "-2/5"):
        if fmt == "table":
            assert out.splitlines()[0] == "s(5,12;1/3,-2/5) = -7/72"
        else:
            assert json.loads(out)["value"] == {"num": -7, "den": 72}


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    names = out.strip().splitlines()
    assert len(names) >= 12
    assert "01-lens-spaces" in names


def test_report_json_round_trip():
    report = compute_report(chain_graph([-2, -2, -2]), all_spinc=True)
    assert report_from_json(report_to_json(report)) == report
    assert report.sw0 == report.torsion_at_1 - report.casson_walker / report.order_h
    assert report.conjecture_gap == report.sw0 - report.k2_plus_nv / 8
    assert dict(report.spinc_table)[(0,) * len(report.invariant_factors)] == report.sw0


def test_harness_detects_a_corrupted_fast_path(monkeypatch):
    # a wrong Dedekind fast path must fail the lens fixture
    from fractions import Fraction
    import swplumb.dedekind as ded
    real = ded.dr_sum

    def skewed(h, k, x=0, y=0):
        return real(h, k, x, y) + Fraction(1, 7)

    monkeypatch.setattr(ded, "dr_sum", skewed)
    rows = dict(verify.FIXTURES)["01-lens-spaces"]()
    assert any(not passed for _, passed, _ in rows)


def test_verify_run_subset(capsys):
    assert verify.run(names=["02-minus-two-chains"])
    out = capsys.readouterr().out
    assert "[PASS]" in out and "all fixtures passed" in out


def test_verify_run_rejects_unknown_names(capsys):
    with pytest.raises(ValueError, match="01-lens-spacez"):
        verify.run(names=["01-lens-spacez", "02-minus-two-chains"])
    assert capsys.readouterr().out == ""


def test_verify_cli_reports_failures(monkeypatch, capsys):
    fake = (("00-fake", lambda: [("broken check", False, "boom")]),)
    monkeypatch.setattr(verify, "FIXTURES", fake)
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_MISMATCH
    assert "[FAIL]" in out


def test_verify_cli_reports_a_raising_fixture(monkeypatch, capsys):
    def raises():
        raise ValueError("boom")

    fake = (("00-raises", raises), ("01-fine", lambda: [("fine check", True, "1 checks")]))
    monkeypatch.setattr(verify, "FIXTURES", fake)
    code, out, err = run_cli(capsys, "verify")
    assert code == EXIT_MISMATCH
    assert out.splitlines() == ["[FAIL] 00-raises: raised ValueError: boom",
                                "[PASS] 01-fine: fine check (1 checks)",
                                "result: FAILURES detected"]
    assert err == ""


@pytest.mark.parametrize("vertex", [
    {"id": "v0", "euler": -2.7},
    {"id": "v0", "euler": -2.0},
    {"id": "v0", "euler": True},
    {"id": "v0", "euler": "-2"},
    {"id": 0, "euler": -2},
    {"id": None, "euler": -2},
], ids=["float", "integral-float", "bool", "numeric-string", "int-id", "null-id"])
def test_graph_rejects_non_integer_eulers_and_non_string_ids(tmp_path, capsys, vertex):
    doc = {"vertices": [vertex], "edges": []}
    with pytest.raises(ValueError):
        PlumbingGraph.from_dict(doc)
    code, out, err = run_cli(capsys, "graph", write_graph(tmp_path, doc))
    assert code == EXIT_INPUT
    assert out == "" and "ValueError" in err


def test_graph_rejects_non_string_edge_endpoints():
    doc = {"vertices": [{"id": "0", "euler": -2}, {"id": "1", "euler": -2}],
           "edges": [[0, 1]]}
    with pytest.raises(ValueError):
        PlumbingGraph.from_dict(doc)


@pytest.mark.parametrize("edge", [
    "ab",
    {"a": 1, "b": 2},
    ["a"],
    ["a", "b", "a"],
    None,
], ids=["string", "object", "one-id", "three-ids", "null"])
def test_graph_rejects_edges_that_are_not_pairs(tmp_path, capsys, edge):
    doc = {"vertices": [{"id": "a", "euler": -2}, {"id": "b", "euler": -2}],
           "edges": [edge]}
    with pytest.raises(ValueError):
        PlumbingGraph.from_dict(doc)
    code, out, err = run_cli(capsys, "graph", write_graph(tmp_path, doc))
    assert code == EXIT_INPUT
    assert out == "" and "not a two-element array" in err


@pytest.mark.parametrize("value", [{}, ""], ids=["object", "string"])
@pytest.mark.parametrize("key", ["vertices", "edges"])
def test_graph_rejects_containers_that_are_not_arrays(tmp_path, capsys, key, value):
    doc = {"vertices": [{"id": "v", "euler": -2}], "edges": []}
    doc[key] = value
    with pytest.raises(ValueError, match="malformed graph document"):
        PlumbingGraph.from_dict(doc)
    code, out, err = run_cli(capsys, "graph", write_graph(tmp_path, doc))
    assert code == EXIT_INPUT
    assert out == "" and "malformed graph document" in err


@pytest.mark.parametrize("argv", [
    ("lens", "abc", "3"),
    ("lens", "5", "2", "--bogus"),
    ("lens", "5", "2", "--threads", "2"),
    ("frobnicate",),
    (),
])
def test_usage_errors_exit_as_invalid_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_INPUT
    assert "usage" in capsys.readouterr().err


def test_order_cap_fires_before_the_field(capsys):
    code, _, err = run_cli(capsys, "lens", "4001", "2", "--max-order", "10")
    assert code == EXIT_CAP
    assert "4001" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", ["graph", "lens", "seifert", "brieskorn"])
def test_nonpositive_max_order_is_bad_input(tmp_path, capsys, command, cap):
    # before, "--max-order -5" reached the cap and exited EXIT_CAP (2)
    argv = {"graph": ["graph", write_graph(tmp_path, GOOD)],
            "lens": ["lens", "7", "3"],
            "seifert": ["seifert", "--b", "-2", "--arm", "2/1", "--arm", "3/1",
                        "--arm", "5/1"],
            "brieskorn": ["brieskorn", "2", "3", "5"]}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-order", cap])
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --max-order: {cap} is not a positive integer" in captured.err


def test_max_order_of_one_is_a_cap(capsys):
    code, _, err = run_cli(capsys, "lens", "7", "3", "--max-order", "1")
    assert code == EXIT_CAP
    assert "group order 7 exceeds the cap 1" in err


def skew(monkeypatch, module, name):
    """Shift a route's value where `module` defines or imports it, so its cross-check disagrees."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: real(*a, **k) + Fraction(1, 7))


def assert_fixture_fails(capsys, fixture):
    assert not verify.run(names=[fixture])
    assert f"[FAIL] {fixture}:" in capsys.readouterr().out


def test_lens_mismatch_exit_code(monkeypatch, capsys):
    # the CLI and the fixtures read one route list, so one skewed definition reaches both
    skew(monkeypatch, dedekind, "dr_sum")
    code, out, _ = run_cli(capsys, "lens", "7", "3")
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out
    assert_fixture_fails(capsys, "01-lens-spaces")


def test_dedekind_mismatch_exit_code(monkeypatch, capsys):
    skew(monkeypatch, cli, "dr_sum")
    code, out, _ = run_cli(capsys, "dedekind", "2", "3")
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out
    code, out, _ = run_cli(capsys, "dedekind", "2", "3", "--format", "json")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["oracle_agrees"] is False


def test_seifert_mismatch_exit_code(monkeypatch, capsys):
    skew(monkeypatch, seifert, "seifert_k2nv")
    code, out, _ = run_cli(capsys, "seifert", "--b", "-2", "--arm", "2/1",
                           "--arm", "3/2", "--arm", "4/3", "--format", "json")
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out
    assert_fixture_fails(capsys, "18-eta-route-random")


def test_brieskorn_mismatch_exit_code(monkeypatch, capsys):
    real = cli.closed_form_invariants
    monkeypatch.setattr(cli, "closed_form_invariants", lambda spec: dataclasses.replace(
        real(spec), gorenstein_check=False))
    code, out, _ = run_cli(capsys, "brieskorn", "2", "3", "5")
    assert code == EXIT_MISMATCH
    assert out.count("MISMATCH") == 1


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_note_never_sets_the_exit_code(capsys, fmt):
    # the verdict reads the records' booleans, not the rendered text
    report, args = compute_report(chain_graph([-2])), argparse.Namespace(format=fmt)
    note = Check("eta-invariant route", None, "KS = 0  [MISMATCH]")
    assert cli._print_report(report, args, [note], "notes") == 0
    out = capsys.readouterr().out
    lines = out.splitlines() if fmt == "table" else json.loads(out)["cross_checks"]
    assert "  eta-invariant route: KS = 0  [MISMATCH]" in lines
    failed = Check("torsion at 1", False, "1 vs 2")
    assert cli._print_report(report, args, [note, failed], "notes") == EXIT_MISMATCH


@pytest.mark.parametrize("error", [InternalInvariantViolated, NotRational])
def test_internal_failure_exit_code(monkeypatch, capsys, error):
    def broken(p, q):
        raise error("forced")

    monkeypatch.setattr(cli, "lens_chain", broken)
    code, _, err = run_cli(capsys, "lens", "7", "3")
    assert code == EXIT_MISMATCH
    assert error.__name__ in err


@pytest.mark.parametrize("argv, order, matches", [
    (("lens", "10007", "3"), 10007, 3),
    (("seifert", "--b", "-3", "--arm", "2/1", "--arm", "3/1", "--arm", "7/1",
      "--arm", "11/3"), 809, 4),
])
def test_large_order_closed_forms_match(capsys, argv, order, matches):
    # one trace per Galois orbit: the cost follows |H|, not phi(N)^2 per character
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0].split() == ["|H|", str(order)]
    flagged = [line for line in out.splitlines() if line.endswith("]")]
    assert len(flagged) == matches
    assert all(line.endswith("[MATCH]") for line in flagged)
