"""Group structure, characters, linking form and quadratic functions."""

import cmath
from fractions import Fraction
import random

import pytest

from swplumb import exact, homology, reference
from swplumb.brieskorn import BrieskornSpec, brieskorn_seifert
from swplumb.corpus import a_chain, dn_seifert, e_star, standard_corpus
from swplumb.errors import InternalInvariantViolated, OrderCapExceeded
from swplumb.homology import (homology_from_lattice, linking_form, q_can,
                              spinc_canonical_class, spinc_conjugate, spinc_quadratic)
from swplumb.plumbing import build_lattice, numerically_gorenstein
from swplumb.reference import gauss_sum_check, invert_rational_matrix, smith_normal_form
from swplumb.report import compute_report
from swplumb.seifert import lens_chain, star_graph
from swplumb.verify import _blown_up, _pipeline as pipeline


def test_single_vertex_group():
    _, group = pipeline(a_chain(2))
    assert group.invariant_factors == (2,)
    assert group.generator_images == ((1,),)


def test_chain_relations_hold():
    lattice, group = pipeline(a_chain(3))
    assert group.invariant_factors == (3,)
    g = group.generator_images
    # columns of the intersection matrix are relations among the meridians
    for v in range(lattice.size):
        total = group.identity
        for w in range(lattice.size):
            total = group.add(total, group.scale(lattice.I[v, w], g[w]))
        assert total == group.identity


def test_relations_hold_on_corpus():
    for name, graph in standard_corpus():
        lattice, group = pipeline(graph)
        assert group.order == lattice.order_h, name
        g = group.generator_images
        for v in range(lattice.size):
            total = group.identity
            for w in range(lattice.size):
                total = group.add(total, group.scale(lattice.I[v, w], g[w]))
            assert total == group.identity, name


def test_poincare_sphere_group_trivial():
    graph = star_graph(brieskorn_seifert(BrieskornSpec((2, 3, 5))))
    _, group = pipeline(graph)
    assert group.order == 1
    assert group.invariant_factors == ()


class TestCharacters:
    def test_two_torsion(self):
        _, group = pipeline(a_chain(2))
        chars = list(group.characters())
        assert len(chars) == 2
        vals = {group.char_exponent(chi, (1,)) for chi in chars}
        assert vals == {0, 1}  # 1 and -1 against zeta_2

    def test_three_torsion_values(self):
        _, group = pipeline(a_chain(3))
        field = group.field
        chars = list(group.characters())
        gen = (1,)
        values = [field.root_of_unity(group.char_exponent(chi, gen))
                  for chi in chars]
        assert values == [field.root_of_unity(k) for k in range(3)]

    def test_klein_four_real_valued(self):
        graph = star_graph(__import__("swplumb").SeifertData(
            -2, [(2, 1), (2, 1), (2, 1)]))
        _, group = pipeline(graph)
        assert group.invariant_factors == (2, 2)
        chars = list(group.characters())
        assert len(chars) == 4
        assert chars[0].is_trivial
        for chi in chars:
            for h in group.elements():
                assert group.char_exponent(chi, h) in (0, 1)

    def test_homomorphism_property(self):
        _, group = pipeline(lens_chain(12, 5))
        chars = list(group.characters())
        elems = list(group.elements())
        n = group.exponent
        for chi in chars:
            for a in elems:
                for b in elems:
                    assert (group.char_exponent(chi, group.add(a, b))
                            == (group.char_exponent(chi, a)
                                + group.char_exponent(chi, b)) % n)

    def test_order_cap(self, monkeypatch):
        # the cap is checked on |det I| once, before the group (and so any
        # character) exists: the Smith elimination is never reached
        def refuse(rows, cols):
            raise AssertionError("Smith elimination reached above the cap")

        lattice = build_lattice(lens_chain(4001, 2))
        monkeypatch.setattr(homology, "smith_elimination", refuse)
        with pytest.raises(OrderCapExceeded) as exc:
            homology_from_lattice(lattice, max_order=10)
        assert (exc.value.order, exc.value.cap) == (4001, 10)

    @pytest.mark.parametrize("cap", [-5, 0, True, False, 7.5, 10.0, "9", None, Fraction(9)])
    def test_order_cap_must_be_a_positive_int(self, monkeypatch, cap):
        # refused before the elimination, by the library as by the CLI
        def refuse(rows, cols):
            raise AssertionError("Smith elimination reached with an invalid cap")

        graph = lens_chain(7, 3)
        monkeypatch.setattr(homology, "smith_elimination", refuse)
        with pytest.raises(ValueError, match="max_order"):
            homology_from_lattice(build_lattice(graph), max_order=cap)
        with pytest.raises(ValueError, match="max_order"):
            compute_report(graph, max_order=cap)


class TestLift:
    def test_columns_equal_the_inverse_of_u(self):
        """lift(e_i) = I V e_i / d_i against the rational inverse of U, mod |det I|."""
        graphs = [graph for _, graph in standard_corpus()]
        graphs.append(_blown_up(star_graph(dn_seifert(6)), 40, random.Random(4)))
        for graph in graphs:
            lattice, group = pipeline(graph)
            n = lattice.order_h
            snf = smith_normal_form(lattice.I)
            kept = [i for i, d in enumerate(snf.diagonal) if d > 1]
            uinv = invert_rational_matrix(snf.U)
            for i, k in enumerate(kept):
                unit = tuple(int(j == i) for j in range(group.rank))
                assert [x % n for x in group.lift(unit)] == [row[k] % n for row in uinv]
                assert group.class_of_vector(group.lift(unit)) == unit

    def test_trivial_group_lifts_to_zero(self):
        lattice, group = pipeline(star_graph(brieskorn_seifert(BrieskornSpec((2, 3, 5)))))
        assert group.lift(group.identity) == (0,) * lattice.size

    def test_inexact_division_raises(self, monkeypatch):
        # V e_1 = (1, 2) and I V e_1 = (0, -3); with col[1] += 3 col[0] instead,
        # V e_1 = (1, 3) and I V e_1 = (1, -5), which 3 does not divide
        def corrupt(rows, cols):
            log = exact.smith_elimination(rows, cols)
            assert log.col_ops == [(0, 1, 0), (1, 0, 2)]
            log.col_ops[1] = (1, 0, 3)
            return log

        lattice = build_lattice(a_chain(3))
        monkeypatch.setattr(homology, "smith_elimination", corrupt)
        with pytest.raises(InternalInvariantViolated, match="not divisible"):
            homology_from_lattice(lattice)

    def test_lift_of_the_wrong_class_raises(self, monkeypatch):
        # H = Z/3 on A_2: twice the lift column divides evenly but is the class 2
        real = homology._lift_columns
        monkeypatch.setattr(homology, "_lift_columns",
                            lambda *args: [[2 * x for x in c] for c in real(*args)])
        with pytest.raises(InternalInvariantViolated, match="class of its lift"):
            homology_from_lattice(build_lattice(a_chain(3)))

    def test_lifts_stay_bounded_on_a_large_tree(self):
        # E7 blown up to 150 vertices, H = Z/2: the exact column log grows to
        # 1567-bit entries here; replayed mod |det I| exp(H), the lifts stay small
        lattice, group = pipeline(_blown_up(e_star(7), 150, random.Random(2)))
        assert (lattice.size, group.invariant_factors) == (150, (2,))
        entries = [x for h in group.elements() for x in group.lift(h)]
        assert max(abs(x) for x in entries).bit_length() < 64
        assert group.class_of_vector(group.lift((1,))) == (1,)


class TestLinkingForm:
    def test_chain_values(self):
        lattice, group = pipeline(a_chain(3))
        g1 = group.generator_images[0]
        assert linking_form(lattice, group, g1, g1) == Fraction(2, 3)

    def test_single_vertex(self):
        lattice, group = pipeline(a_chain(2))
        g = group.generator_images[0]
        assert linking_form(lattice, group, g, g) == Fraction(1, 2)
        assert linking_form(lattice, group, group.identity, g) == 0

    def test_symmetric_bilinear_nondegenerate(self):
        from swplumb.homology import linking_rows
        for name, graph in standard_corpus():
            lattice, group = pipeline(graph)
            if not 1 < group.order <= 200:
                continue
            den, row = linking_rows(lattice, group)
            elems = list(group.elements())
            # rows[g][j] = b(g, elems[j]), from the linking matrix
            rows = {g: tuple(Fraction(x, den) for x in row(g)) for g in elems}
            index = {h: j for j, h in enumerate(elems)}

            def bform(g, h):
                return rows[g][index[h]]

            # the bilinear extension agrees with the lift pairing
            for g in elems[:6]:
                for h in elems[:6]:
                    assert bform(g, h) == linking_form(lattice, group, g, h), name
            # symmetry and nondegeneracy of the full table
            for i, g in enumerate(elems):
                for j, h in enumerate(elems):
                    assert rows[g][j] == rows[h][i], name
            assert len(set(rows.values())) == group.order, name
            # bilinearity
            for g in elems[:5]:
                for h in elems[:5]:
                    for x in elems[:3]:
                        assert bform(group.add(g, h), x) == \
                            (bform(g, x) + bform(h, x)) % 1, name

    def test_rows_scale_by_the_given_denominator(self):
        from swplumb.homology import linking_rows
        lattice, group = pipeline(lens_chain(12, 5))
        den, row = linking_rows(lattice, group)
        den6, row6 = linking_rows(lattice, group, 18)
        assert (den, den6) == (12, 36)
        for g in group.elements():
            assert row6(g) == [3 * x for x in row(g)]


class TestCanonicalQuadraticFunction:
    def test_zero_at_identity(self):
        lattice, group = pipeline(a_chain(2))
        assert q_can(lattice, group, group.identity) == 0
        assert q_can(lattice, group, (1,)) == Fraction(1, 4)

    def test_quadratic_law_exhaustive(self):
        lattice, group = pipeline(lens_chain(4, 1))
        elems = list(group.elements())
        for a in elems:
            for b in elems:
                lhs = (q_can(lattice, group, group.add(a, b))
                       - q_can(lattice, group, a) - q_can(lattice, group, b)) % 1
                assert lhs == linking_form(lattice, group, a, b)

    def test_lift_independence(self):
        for p, q in [(4, 1), (7, 3), (12, 5)]:
            lattice, group = pipeline(lens_chain(p, q))
            for h in group.elements():
                base = group.lift(h)
                for col in range(lattice.size):
                    shifted = tuple(x + lattice.I[v, col]
                                    for v, x in enumerate(base))
                    assert q_can(lattice, group, h) == \
                        q_can(lattice, group, h, lift=shifted)

    def test_quadratic_form_when_integral_cycle(self):
        for name, graph in standard_corpus():
            lattice, group = pipeline(graph)
            if group.order > 60 or not numerically_gorenstein(lattice):
                continue
            for h in group.elements():
                for n in (2, 3):
                    scaled = q_can(lattice, group, group.scale(n, h))
                    assert (scaled - n * n * q_can(lattice, group, h)) % 1 == 0, name


class TestSpincStructures:
    def test_canonical_class_examples(self):
        lattice, group = pipeline(a_chain(2))
        assert spinc_canonical_class(lattice, group) == (0,)
        lattice3, group3 = pipeline(a_chain(3))
        assert spinc_canonical_class(lattice3, group3) == (0,)
        lattice4, group4 = pipeline(lens_chain(4, 1))
        assert spinc_canonical_class(lattice4, group4) == (2,)

    def test_conjugate_examples(self):
        lattice, group = pipeline(lens_chain(4, 1))
        assert spinc_conjugate(lattice, group, (1,)) == (1,)
        lattice2, group2 = pipeline(a_chain(2))
        assert spinc_conjugate(lattice2, group2, (0,)) == (0,)

    def test_conjugation_involution_on_corpus(self):
        for name, graph in standard_corpus():
            lattice, group = pipeline(graph)
            if group.order > 120:
                continue
            for h in group.elements():
                assert spinc_conjugate(
                    lattice, group,
                    spinc_conjugate(lattice, group, h)) == h, name

    def test_spinc_quadratic_against_canonical(self):
        # the canonical structure's function is the negation-pullback of q_can
        lattice, group = pipeline(lens_chain(4, 1))
        values = {q_can(lattice, group, (h,)) for h in range(4)}
        assert values == {Fraction(0), Fraction(3, 8), Fraction(7, 8)}
        for h in group.elements():
            assert spinc_quadratic(lattice, group, group.identity, h) == \
                q_can(lattice, group, group.neg(h))
        meridian = group.generator_images[0]
        assert {q_can(lattice, group, meridian),
                spinc_quadratic(lattice, group, group.identity, meridian)} == \
            {Fraction(3, 8), Fraction(7, 8)}


def test_quadratic_function_conventions_on_corpus():
    """spinc_quadratic(0, h) == q_can(-h), and the Gauss-sum values are -q_can mod 1."""
    checked = 0
    for name, graph in standard_corpus():
        lattice, group = pipeline(graph)
        if group.order > 300:
            continue
        qvals = {h: q_can(lattice, group, h) for h in group.elements()}
        for h in group.elements():
            assert spinc_quadratic(lattice, group, group.identity, h) == qvals[group.neg(h)], name
        computed, _ = gauss_sum_check(lattice, group)
        conductor = computed.field.conductor
        counts = [0] * conductor
        for q in qvals.values():
            value = -q % 1
            counts[value.numerator * (conductor // value.denominator)] += 1
        assert computed == computed.field.element(counts), name
        checked += len(qvals)
    assert checked == 387


def corpus_within_gauss_cap():
    for name, graph in standard_corpus():
        lattice, group = pipeline(graph)
        if group.order <= reference.GAUSS_ORDER_CAP:
            yield name, lattice, group


def numeric(value):
    """A Q(zeta_L) element as a complex number, zeta_L = exp(2 pi i / L)."""
    n = value.field.conductor
    return sum(x * cmath.exp(2j * cmath.pi * k / n) for k, x in enumerate(value.num)) / value.den


class TestGaussSum:
    def test_small_cases(self):
        for graph in (a_chain(2), a_chain(3)):
            lattice, group = pipeline(graph)
            computed, predicted = gauss_sum_check(lattice, group)
            assert computed == predicted

    def test_unimodular_case(self):
        lattice, group = pipeline(e_star(8))
        computed, predicted = gauss_sum_check(lattice, group)
        assert computed == 1
        assert predicted == 1

    def test_corpus_and_a_half_turn(self):
        # e(1/2) = -1: the other sign of sqrt|H| never passes, so the sign is checked
        checked = 0
        for name, lattice, group in corpus_within_gauss_cap():
            computed, predicted = gauss_sum_check(lattice, group)
            assert computed == predicted, name
            assert computed != predicted * -1, name
            checked += 1
        assert checked == 20

    def test_agrees_with_floating_point(self):
        # the sum of exp(2 pi i q(x)) over H in complex floating point, against both sides
        for name, lattice, group in corpus_within_gauss_cap():
            total = 0j
            for h in group.elements():
                d = group.lift(h)
                shifted = tuple(x + k for x, k in zip(d, lattice.k_vec))
                q = Fraction(1, 2) * homology._pairing(lattice, shifted, d) % 1
                total += cmath.exp(2j * cmath.pi * q.numerator / q.denominator)
            computed, predicted = gauss_sum_check(lattice, group)
            assert abs(numeric(computed) - total) < 1e-9, name
            assert abs(numeric(predicted) - total) < 1e-9, name
            assert abs(abs(total) ** 2 - group.order) < 1e-9, name

    def test_prime_orders(self):
        # the squarefree part at 2 and at every odd residue mod 8, and a square factor
        for p, q in ((2, 1), (3, 1), (5, 2), (7, 3), (17, 3), (18, 5), (499, 3)):
            lattice, group = pipeline(lens_chain(p, q))
            computed, predicted = gauss_sum_check(lattice, group)
            assert computed == predicted, p

    def test_cap_fires_before_any_field(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a field or a lift above the Gauss-sum cap")

        lattice, group = pipeline(lens_chain(reference.GAUSS_ORDER_CAP + 1, 2))
        monkeypatch.setattr(reference, "cyclotomic_field", refuse)
        monkeypatch.setattr(homology.FinAbGroup, "lift", refuse)
        with pytest.raises(OrderCapExceeded) as exc:
            gauss_sum_check(lattice, group)
        assert (exc.value.order, exc.value.cap) == (501, 500)
