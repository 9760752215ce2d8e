"""Lattice-level invariants from the plumbing graph."""

import dataclasses
import json
from fractions import Fraction
from math import gcd
from operator import mul

import random

import pytest
from hypothesis import given, settings, strategies as st

from swplumb import cli, plumbing
from swplumb.corpus import (a_chain, chain_graph, dn_seifert, e_star, standard_corpus,
                            three_arm_family)
from swplumb.dedekind import dr_sum
from swplumb.errors import InternalInvariantViolated, NotATree, NotNegativeDefinite
from swplumb.exact import IntMatrix
from swplumb.homology import homology_from_lattice, linking_matrix
from swplumb.plumbing import (PlumbingGraph, blow_up_edge, blow_up_vertex,
                              build_lattice, casson_walker, k2_plus_nv,
                              numerically_gorenstein)
from swplumb.reference import invert_rational_matrix
from swplumb.report import compute_report, compute_report_from
from swplumb.seifert import lens_chain, star_graph
from swplumb.verify import _blown_up

from test_smith_differential import definite_trees


def test_single_vertex_lattice():
    lattice = build_lattice(PlumbingGraph([("v0", -2)], []))
    assert lattice.I.entries == ((-2,),)
    assert lattice.r == (Fraction(0),)
    assert lattice.det == -2


def test_chain_lattice():
    lattice = build_lattice(chain_graph([-2, -2]))
    assert lattice.det == 3
    assert lattice.adj == ((2, 1), (1, 2))


@st.composite
def trees(draw):
    """Trees on at most 25 vertices in a shuffled input order, Euler numbers -6..1."""
    n = draw(st.integers(1, 25))
    order = draw(st.permutations(range(n)))
    edges = [(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    eulers = draw(st.lists(st.one_of(st.integers(-6, -2), st.integers(-6, 1)),
                           min_size=n, max_size=n))
    return PlumbingGraph([(f"v{i}", e) for i, e in enumerate(eulers)],
                         [(f"v{a}", f"v{b}") for a, b in edges])


def intersection_rows(graph):
    index = {v: i for i, v in enumerate(graph.ids)}
    rows = [[0] * len(index) for _ in index]
    for i, e in enumerate(graph.euler_numbers):
        rows[i][i] = e
    for a, b in graph.edges:
        rows[index[a]][index[b]] = rows[index[b]][index[a]] = 1
    return rows


@settings(max_examples=120, deadline=None)
@given(trees(), st.data())
def test_tree_cofactors_match_dense_oracles(graph, data):
    """Definite: adj and det against the dense inverse, and solve(b), the
    diagonal, the edge entries and the corner against adj.  Indefinite: the
    first leading minor of the wrong sign or zero, against Bareiss determinants."""
    rows = intersection_rows(graph)
    n = len(rows)
    failing = None
    for k in range(1, n + 1):
        minor = IntMatrix([row[:k] for row in rows[:k]]).det()
        if minor == 0 or (minor > 0) != (k % 2 == 0):
            failing = (k, minor)
            break
    if failing is not None:
        with pytest.raises(NotNegativeDefinite) as info:
            build_lattice(graph)
        assert (info.value.size, info.value.minor) == failing
        return
    lattice = build_lattice(graph)
    neg = IntMatrix([[-x for x in row] for row in rows])
    det_neg = neg.det()
    assert lattice.det == (-1) ** n * det_neg == minor
    adj = lattice.adj
    assert adj == tuple(tuple(det_neg * x for x in row)
                        for row in invert_rational_matrix(neg))
    b = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    assert lattice.solve(b) == [sum(a * x for a, x in zip(row, b)) for row in adj]
    assert lattice.adj_diagonal == tuple(adj[v][v] for v in range(n))
    diag = [-e for e in graph.euler_numbers]
    _, edges = plumbing._diagonal_and_edges(diag, lattice.order,
                                            lattice.parent, lattice.D, lattice.B)
    assert all(edges[v] == adj[v][lattice.parent[v]] for v in range(n) if lattice.parent[v] >= 0)
    c = [2 - d for d in lattice.degrees]
    corner = sum(cv * a * cw for cv, row in zip(c, adj) for a, cw in zip(row, c))
    assert sum(x * y for x, y in zip(c, lattice.solve(c))) == corner
    assert (lattice.r, k2_plus_nv(lattice), casson_walker(lattice)) == \
        adjugate_oracles(lattice)


def adjugate_oracles(lattice):
    """r, K^2 + #V and lambda summed over the whole adjugate: the tree solves' oracle."""
    adj, n, order_h = lattice.adj, lattice.size, lattice.order_h
    z, degrees = lattice.z, lattice.degrees
    r = tuple(Fraction(-sum(a * zw for a, zw in zip(row, z)), order_h) for row in adj)
    double = sum(zv * a * zw for zv, row in zip(z, adj) for a, zw in zip(row, z))
    k2 = n - Fraction(double, order_h)
    corner = sum((2 - d) * adj[v][v] for v, d in enumerate(degrees) if d != 2)
    lam = Fraction(-((sum(lattice.graph.euler_numbers) + 3 * n) * order_h - corner), 24)
    return r, k2, lam


class TestTreeSolveCertificates:
    """A wrong subtree determinant or solve result is caught, never returned."""

    def lattice(self):
        return build_lattice(_blown_up(e_star(8), 30, random.Random(2)))

    def test_corrupted_subtree_determinant(self):
        lattice = self.lattice()
        # take v with a sibling, so that D[v] is not all of B[parent v]
        children = [sum(p == x for p in lattice.parent) for x in range(lattice.size)]
        v = next(v for v in lattice.order[1:] if children[lattice.parent[v]] > 1)
        dets = list(lattice.D)
        dets[v] += 1
        with pytest.raises(InternalInvariantViolated):
            dataclasses.replace(lattice, D=tuple(dets)).solve([1] * lattice.size)
        diag = [-e for e in lattice.graph.euler_numbers]
        with pytest.raises(InternalInvariantViolated):
            plumbing._diagonal_and_edges(diag, lattice.order,
                                         lattice.parent, dets, lattice.B)

    def test_corrupted_child_product(self):
        lattice = self.lattice()
        # upb[v] = B[p] // D[v] * up[p] is exact only while D[v] divides B[p]
        v = next(v for v in lattice.order[1:] if lattice.D[v] > 1)
        below = list(lattice.B)
        below[lattice.parent[v]] += 1
        assert below[lattice.parent[v]] % lattice.D[v]
        diag = [-e for e in lattice.graph.euler_numbers]
        with pytest.raises(InternalInvariantViolated):
            plumbing._diagonal_and_edges(diag, lattice.order,
                                         lattice.parent, lattice.D, below)

    def test_corrupted_solve_result(self, monkeypatch):
        real = plumbing._tree_solve

        def off_by_one(*args):
            y = real(*args)
            y[-1] += 1
            return y

        lattice = self.lattice()
        monkeypatch.setattr(plumbing, "_tree_solve", off_by_one)
        with pytest.raises(InternalInvariantViolated):
            lattice.solve([1] * lattice.size)
        with pytest.raises(InternalInvariantViolated):
            compute_report(e_star(8))


def test_report_path_builds_no_adjugate(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("the full adjugate was built on the report path")

    monkeypatch.setattr(plumbing, "_adjugate", refuse)
    big = _blown_up(star_graph(dn_seifert(6)), 60, random.Random(3))
    for graph in (dict(standard_corpus())["3arm(m=4)"], lens_chain(25, 7), big):
        assert compute_report(graph, all_spinc=True).spinc_table
        lattice = build_lattice(graph)
        linking_matrix(lattice, homology_from_lattice(lattice))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(big.to_dict()))
    for extra in ([], ["--all-spinc", "--format", "json"]):
        assert cli.main(["graph", str(path)] + extra) == cli.EXIT_OK
    capsys.readouterr()
    with pytest.raises(AssertionError):
        build_lattice(big).adj


@pytest.mark.parametrize("base", [e_star(8), star_graph(dn_seifert(6))], ids=["E8", "D6"])
def test_400_vertex_blown_up_report_matches_the_oracle(base):
    graph = _blown_up(base, 400, random.Random(4))
    lattice = build_lattice(graph)
    report = compute_report_from(lattice, homology_from_lattice(lattice))
    r, k2, lam = adjugate_oracles(lattice)
    assert lattice.r == r
    assert (report.k2_plus_nv, report.casson_walker) == (k2, lam)
    assert report == compute_report(base)


def test_blown_up_e8_report_and_certificate():
    rng = random.Random(9)
    graph = e_star(8)
    while len(graph.ids) < 300:
        new_id = f"b{len(graph.ids)}"
        if rng.random() < 0.5:
            graph = blow_up_vertex(graph, rng.choice(graph.ids), new_id)
        else:
            graph = blow_up_edge(graph, rng.choice(graph.edges), new_id)
    lattice = build_lattice(graph)
    # I * adj = -|det I| * Id, row by row over the nonzero entries of I
    for v, row in enumerate(lattice.I.entries):
        total = [0] * lattice.size
        for u, x in enumerate(row):
            if x:
                total = [t + x * a for t, a in zip(total, lattice.adj[u])]
        assert total == [-lattice.order_h * (w == v) for w in range(lattice.size)]
    assert compute_report_from(lattice, homology_from_lattice(lattice)) == \
        compute_report(e_star(8))


def test_positive_vertex_rejected():
    with pytest.raises(NotNegativeDefinite) as info:
        build_lattice(PlumbingGraph([("v0", 1)], []))
    assert info.value.size == 1


def test_indefinite_rejected_with_failing_minor():
    # (-2, 0) chain: second leading minor is -1 < 0
    with pytest.raises(NotNegativeDefinite) as info:
        build_lattice(chain_graph([-2, 0]))
    assert info.value.size == 2


def test_singular_rejected_with_zero_minor():
    # (-1, -1) chain: every subtree determinant from the first vertex is >= 0,
    # but the whole determinant vanishes
    with pytest.raises(NotNegativeDefinite) as info:
        build_lattice(chain_graph([-1, -1]))
    assert (info.value.size, info.value.minor) == (2, 0)


def test_cycle_rejected():
    graph = PlumbingGraph([("a", -2), ("b", -2), ("c", -2)],
                          [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(NotATree):
        build_lattice(graph)


def test_disconnected_rejected():
    with pytest.raises(NotATree):
        build_lattice(PlumbingGraph([("a", -2), ("b", -2), ("c", -2)],
                                    [("a", "b")]))


@pytest.mark.parametrize("vertices, edges", [
    # a triangle through vertex 0 and an isolated vertex: n - 1 distinct edges
    ("abcd", [("a", "b"), ("b", "c"), ("c", "a")]),
    ("dabc", [("a", "b"), ("b", "c"), ("c", "a")]),
    # a path through vertex 0 and a square: a forest of n - 1 edges is a tree
    ("pqrabcd", [("p", "q"), ("q", "r"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
])
def test_disconnected_with_tree_edge_count(vertices, edges):
    graph = PlumbingGraph([(v, -2) for v in vertices], edges)
    with pytest.raises(NotATree, match="^graph is disconnected$"):
        build_lattice(graph)


def test_self_loop_rejected():
    with pytest.raises(NotATree):
        PlumbingGraph([("a", -2)], [("a", "a")])


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        PlumbingGraph([("a", -2), ("a", -3)], [])


class TestCanonicalCycleInvariant:
    def test_single_minus_two(self):
        assert k2_plus_nv(build_lattice(a_chain(2))) == 1

    def test_chain_closed_form(self):
        # 2(p-1)/p - 12 s(q,p) for the (p,q) chain
        for p, q in [(3, 2), (5, 2), (12, 5), (25, 7)]:
            lattice = build_lattice(lens_chain(p, q))
            assert k2_plus_nv(lattice) == \
                Fraction(2 * (p - 1), p) - 12 * dr_sum(q, p)

    def test_polygonal_count(self):
        from swplumb.corpus import polygonal_seifert
        for a_list in ([3, 4, 5], [2, 2, 2, 2, 2]):
            lattice = build_lattice(star_graph(polygonal_seifert(a_list)))
            nu = len(a_list)
            assert k2_plus_nv(lattice) == 9 + nu - sum(a_list)


class TestCassonWalker:
    def test_small_chains(self):
        assert casson_walker(build_lattice(a_chain(2))) == 0
        assert casson_walker(build_lattice(a_chain(3))) == Fraction(-1, 12)

    def test_three_arm_m3(self):
        lattice = build_lattice(star_graph(three_arm_family(3)))
        assert casson_walker(lattice) / lattice.order_h == Fraction(-7, 36)

    def test_lens_formula_sweep(self):
        # chain route equals p * s(q,p) / 2 for every coprime pair up to 30
        for p in range(2, 31):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                lattice = build_lattice(lens_chain(p, q))
                assert casson_walker(lattice) == Fraction(p, 2) * dr_sum(q, p)


class TestNumericallyGorenstein:
    def test_du_val(self):
        assert numerically_gorenstein(build_lattice(a_chain(2)))
        d4 = PlumbingGraph([("c", -2), ("a", -2), ("b", -2), ("d", -2)],
                           [("c", "a"), ("c", "b"), ("c", "d")])
        assert numerically_gorenstein(build_lattice(d4))

    def test_three_arm_family_is_not(self):
        # arm coefficients 1/3, central coefficient 2/3: not an integral cycle
        lattice = build_lattice(star_graph(three_arm_family(2)))
        assert not numerically_gorenstein(lattice)
        center = lattice.index_of("c")
        assert lattice.r[center] == Fraction(2, 3)
        assert all(lattice.r[v] == Fraction(1, 3)
                   for v in range(lattice.size) if v != center)


class TestAdjunctionSolve:
    """K^2 + #V and the Gorenstein test read adj(-I) z in integers, not r = I^{-1} z."""

    @staticmethod
    def assert_integer_forms(graph):
        lattice = build_lattice(graph)
        # K^2 + #V = n + z . r, and Gorenstein means every r_v is an integer
        assert k2_plus_nv(lattice) == lattice.size + sum(map(mul, lattice.z, lattice.r))
        assert numerically_gorenstein(lattice) == all(x.denominator == 1 for x in lattice.r)
        return lattice

    def test_corpus_and_blown_up_trees(self):
        graphs = [graph for _, graph in standard_corpus()]
        graphs += [_blown_up(graph, size, random.Random(seed)) for seed, graph in
                   enumerate(graphs[:10]) for size in (len(graph.vertices) + 3, 40)]
        lattices = [self.assert_integer_forms(graph) for graph in graphs]
        # both answers, and integral cycles with odd and even nonzero coefficients
        assert {numerically_gorenstein(lattice) for lattice in lattices} == {True, False}
        assert {x % 2 for lattice in lattices if numerically_gorenstein(lattice)
                for x in lattice.r} == {0, 1}

    @settings(max_examples=60, deadline=None)
    @given(definite_trees())
    def test_definite_trees(self, graph):
        self.assert_integer_forms(graph)


def test_unimodular_monopole_count_is_minus_casson():
    from swplumb.corpus import e_star
    lattice = build_lattice(e_star(8))
    group = homology_from_lattice(lattice)
    assert group.order == 1
    assert compute_report_from(lattice, group).sw0 == -casson_walker(lattice)


def test_blowup_stability():
    def invariants(graph):
        lattice = build_lattice(graph)
        rep = compute_report_from(lattice, homology_from_lattice(lattice))
        return (rep.order_h, rep.k2_plus_nv, rep.casson_walker, rep.torsion_at_1, rep.sw0)

    for name, graph in standard_corpus()[:10]:
        base = invariants(graph)
        variants = [blow_up_vertex(graph, graph.ids[-1])]
        if graph.edges:
            variants.append(blow_up_edge(graph, graph.edges[-1]))
        for g2 in variants:
            assert invariants(g2) == base, name


def test_graph_json_round_trip():
    graph = chain_graph([-2, -3, -2])
    doc = graph.to_dict()
    assert PlumbingGraph.from_dict(doc) == graph
    with pytest.raises(ValueError):
        PlumbingGraph.from_dict({"vertices": [{"id": "a"}], "edges": []})
