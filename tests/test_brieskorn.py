"""Diagonal complete intersection links: classification and closed forms."""

from fractions import Fraction
from functools import cached_property
from math import gcd

import pytest

from swplumb import brieskorn, cli
from swplumb.brieskorn import (BrieskornSpec, brieskorn_seifert, classify,
                               closed_form_invariants, order_of_h)
from swplumb.dedekind import dr_sum
from swplumb.errors import NotQHS
from swplumb.homology import homology_from_lattice
from swplumb.plumbing import build_lattice, casson_walker
from swplumb.seifert import star_graph
from swplumb.torsion import torsion_table

CORPUS = [(2, 3, 5), (2, 3, 7), (2, 3, 11), (4, 6, 5), (6, 10, 7),
          (6, 10, 7, 11), (4, 2, 2, 3), (8, 2, 2, 3, 5)]


class TestClassification:
    def test_pairwise_coprime(self):
        cls = classify(BrieskornSpec((2, 3, 5)))
        assert cls.kind == "case_i" and cls.d == 1

    def test_two_power_pattern(self):
        cls = classify(BrieskornSpec((4, 2, 2, 3)))
        assert cls.kind == "case_ii"
        assert cls.d == 2
        assert tuple(sorted(cls.bs)) == (1, 1, 1, 3)

    def test_positive_genus(self):
        assert classify(BrieskornSpec((2, 2, 2, 2))).kind == "not_qhs"
        spec = BrieskornSpec((2, 2, 2, 2))
        assert spec.genus != 0
        with pytest.raises(NotQHS):
            order_of_h(spec)
        with pytest.raises(NotQHS):
            closed_form_invariants(spec)

    def test_shared_pair(self):
        cls = classify(BrieskornSpec((4, 6, 5)))
        assert cls.kind == "case_i" and cls.d == 2
        assert cls.bs == (2, 3, 5)

    def test_any_four_exponents_coprime(self):
        for exps in CORPUS:
            if len(exps) < 4:
                continue
            n = len(exps)
            for a in range(n):
                for b in range(a + 1, n):
                    for c in range(b + 1, n):
                        for d in range(c + 1, n):
                            g = gcd(gcd(exps[a], exps[b]), gcd(exps[c], exps[d]))
                            assert g == 1

    @pytest.mark.parametrize("exponents", [
        (2, 3, 5.5),            # stored (2, 3, 5) before
        (2, 3, 5.0),
        (2, "3", 5),
        (2, 3, Fraction(5)),
        (True, 3, 5),
    ])
    def test_rejects_non_integers(self, exponents):
        with pytest.raises(ValueError, match="integer"):
            BrieskornSpec(exponents)

    def test_validation(self):
        with pytest.raises(ValueError):
            BrieskornSpec((2, 3))
        with pytest.raises(ValueError):
            BrieskornSpec((1, 3, 5))


class TestGroupOrder:
    def test_examples(self):
        assert order_of_h(BrieskornSpec((2, 3, 5))) == 1
        assert order_of_h(BrieskornSpec((4, 6, 5))) == 5
        assert order_of_h(BrieskornSpec((4, 2, 2, 3))) == 108

    def test_against_lattice_determinant(self):
        for exps in CORPUS:
            spec = BrieskornSpec(exps)
            want = order_of_h(spec)
            if want > 10 ** 4:
                continue
            lattice = build_lattice(star_graph(brieskorn_seifert(spec)))
            assert lattice.order_h == want, exps


class TestSeifertConstruction:
    def test_degree_values(self):
        assert brieskorn_seifert(BrieskornSpec((2, 3, 5))).e == Fraction(-1, 30)
        assert brieskorn_seifert(BrieskornSpec((2, 3, 7))).e == Fraction(-1, 42)
        assert brieskorn_seifert(BrieskornSpec((4, 6, 5))).e == Fraction(-1, 30)

    def test_poincare_graph_is_the_eight_star(self):
        graph = star_graph(brieskorn_seifert(BrieskornSpec((2, 3, 5))))
        assert len(graph.vertices) == 8
        assert all(e == -2 for _, e in graph.vertices)

    def test_two_power_case_has_even_center(self):
        for exps in [(4, 2, 2, 3), (8, 2, 2, 3, 5), (2, 2, 2, 3)]:
            spec = BrieskornSpec(exps)
            if classify(spec).kind != "case_ii":
                continue
            assert brieskorn_seifert(spec).b % 2 == 0, exps


class TestClosedForms:
    def test_poincare_values(self):
        rep = closed_form_invariants(BrieskornSpec((2, 3, 5)))
        assert rep.torsion_closed == 0
        assert rep.sw0 == 1 == -rep.lambda_closed
        assert rep.sigma_f == -8
        assert rep.gorenstein_check

    def test_237(self):
        rep = closed_form_invariants(BrieskornSpec((2, 3, 7)))
        assert rep.gorenstein_check

    def test_shared_pair_torsion(self):
        rep = closed_form_invariants(BrieskornSpec((4, 6, 5)))
        assert rep.torsion_closed == Fraction(30 * 2 * 1, 24) * (1 - Fraction(1, 25))
        assert rep.gorenstein_check

    def test_corpus_signature_identity(self):
        for exps in CORPUS:
            rep = closed_form_invariants(BrieskornSpec(exps))
            assert rep.gorenstein_check, exps
            assert -rep.sw0 == rep.sigma_f / 8, exps

    def test_corpus_matches_generic_pipeline(self):
        for exps in CORPUS:
            spec = BrieskornSpec(exps)
            rep = closed_form_invariants(spec)
            if rep.order_h > 10 ** 4:
                continue
            lattice = build_lattice(star_graph(brieskorn_seifert(spec)))
            group = homology_from_lattice(lattice)
            assert group.order == rep.order_h, exps
            assert torsion_table(lattice, group).at(group.identity) \
                == rep.torsion_closed, exps
            assert casson_walker(lattice) == rep.lambda_closed, exps


class TestTwoArmLinks:
    """(2,2,n): the A_(n-1) lens space, with two arms for n >= 3 and none for n = 2."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_a_n_lens_spaces(self, n):
        spec = BrieskornSpec((2, 2, n))
        rep = closed_form_invariants(spec)
        values = (rep.torsion_closed, rep.lambda_closed, rep.sigma_f, rep.sw0)
        assert all(type(v) is Fraction for v in values)
        assert rep.order_h == n and rep.sw0 == Fraction(n - 1, 8)
        assert rep.gorenstein_check
        data = brieskorn_seifert(spec)
        assert data.nu == (0 if n == 2 else 2)
        lattice = build_lattice(star_graph(data))
        group = homology_from_lattice(lattice)
        assert group.order == n
        assert torsion_table(lattice, group).at(group.identity) == rep.torsion_closed
        assert casson_walker(lattice) == rep.lambda_closed


class TestOneComputationPerSpec:
    """A spec is classified once per run, and each arm's Dedekind sum is taken once."""

    def test_cli_classifies_once(self, monkeypatch, capsys):
        calls = []
        real = BrieskornSpec.__dict__["classification"].func

        def counting(spec):
            calls.append(spec.exponents)
            return real(spec)

        prop = cached_property(counting)
        prop.__set_name__(BrieskornSpec, "classification")
        monkeypatch.setattr(BrieskornSpec, "classification", prop)
        assert cli.main(["brieskorn", "2", "3", "7"]) == 0
        assert "MATCH" in capsys.readouterr().out
        assert calls == [(2, 3, 7)]

    def test_cli_computes_each_derived_value_once(self, monkeypatch, capsys):
        calls = []

        def counted(name):
            real = BrieskornSpec.__dict__[name].func

            def counting(spec):
                calls.append(name)
                return real(spec)

            prop = cached_property(counting)
            prop.__set_name__(BrieskornSpec, name)
            return prop

        for name in ("a", "alphas", "s", "q"):
            monkeypatch.setattr(BrieskornSpec, name, counted(name))
        assert cli.main(["brieskorn", "2", "3", "7"]) == 0
        assert "MATCH" in capsys.readouterr().out
        assert sorted(calls) == ["a", "alphas", "q", "s"]

    @pytest.mark.parametrize("exponents, arms", [
        ((2, 3, 7), (2, 3, 7)), ((4, 6, 5), (2, 3, 5)), ((4, 2, 2, 3), (2, 3))])
    def test_two_dedekind_sums_per_arm(self, monkeypatch, exponents, arms):
        # one s(beta_j, alpha_j) for the total and one s(q_j, alpha_j) for the
        # inverse-rotation check, per normal-form arm with alpha_j > 1
        calls = []

        def counting(h, k, *shifts):
            calls.append(k)
            return dr_sum(h, k, *shifts)

        monkeypatch.setattr(brieskorn, "dr_sum", counting)
        closed_form_invariants(BrieskornSpec(exponents))
        assert sorted(calls) == sorted(2 * arms)
