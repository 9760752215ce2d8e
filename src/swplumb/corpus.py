"""Named example manifolds shared by the verification harness and the test suite."""

from __future__ import annotations

from .plumbing import PlumbingGraph
from .seifert import SeifertData, chain_graph, lens_chain, star_graph


def a_chain(p: int) -> PlumbingGraph:
    """The (p-1)-vertex chain of -2 curves."""
    return chain_graph([-2] * (p - 1))


def dn_seifert(n: int) -> SeifertData:
    p = n - 2
    return SeifertData(-2, [(2, 1), (2, 1), (p, p - 1)])


def e_star(kind: int) -> PlumbingGraph:
    """The three exceptional star graphs, all curves -2: an arm of k curves is (k+1, k)."""
    arms = {6: (1, 2, 2), 7: (1, 2, 3), 8: (1, 2, 4)}[kind]
    return star_graph(SeifertData(-2, [(k + 1, k) for k in arms]))


def three_arm_family(m: int) -> SeifertData:
    """Central -3 curve with three (m, m-1) arms; rational for every m >= 2."""
    return SeifertData(-3, [(m, m - 1)] * 3)


def polygonal_seifert(a_list) -> SeifertData:
    """Central 2 - nu curve with single-vertex arms -a_i; needs a negative degree."""
    nu = len(a_list)
    return SeifertData(2 - nu, [(a, 1) for a in a_list])


def nonstar_13_vertex() -> PlumbingGraph:
    """Nine-vertex chain (central curve -3) with two pendant 2-chains of -2 curves."""
    eulers = [-2, -2, -2, -2, -3, -2, -2, -2, -2]
    vertices = [(f"c{j}", e) for j, e in enumerate(eulers, start=1)]
    edges = [(f"c{j}", f"c{j+1}") for j in range(1, 9)]
    vertices += [("p1", -2), ("p2", -2), ("q1", -2), ("q2", -2)]
    edges += [("c2", "p1"), ("p1", "p2"), ("c8", "q1"), ("q1", "q2")]
    return PlumbingGraph(vertices, edges)


def standard_corpus():
    """Deterministic list of (name, graph) pairs used by the property sweeps."""
    items = [
        ("A1", a_chain(2)),
        ("A2", a_chain(3)),
        ("A4", a_chain(5)),
        ("L(4,1)", lens_chain(4, 1)),
        ("L(7,3)", lens_chain(7, 3)),
        ("L(12,5)", lens_chain(12, 5)),
        ("L(25,7)", lens_chain(25, 7)),
        ("D4", star_graph(dn_seifert(4))),
        ("D5", star_graph(dn_seifert(5))),
        ("D6", star_graph(dn_seifert(6))),
        ("E6", e_star(6)),
        ("E7", e_star(7)),
        ("E8", e_star(8)),
        ("3arm(m=2)", star_graph(three_arm_family(2))),
        ("3arm(m=3)", star_graph(three_arm_family(3))),
        ("3arm(m=4)", star_graph(three_arm_family(4))),
        ("3arm(m=8)", star_graph(three_arm_family(8))),
        ("polygonal(3,4,5)", star_graph(polygonal_seifert([3, 4, 5]))),
        ("polygonal(2^5)", star_graph(polygonal_seifert([2] * 5))),
        ("nonstar13", nonstar_13_vertex()),
    ]
    return items
