"""The report path's Smith layer: the operation log, its replays and its certificate.

`homology_from_lattice` never forms U, V or the dense I: it replays the row log
backwards into the kept rows of U mod |det I|, and the column log into the
kept columns of V mod |det I| exp(H), from which it builds the lifts.
`reference.smith_normal_form`, a dense elimination that shares no code with the
log, is the oracle here.  The lifts need the column log: a single corruption of
the row log is refused or changes nothing, which lifts read off the row log
alone would not guarantee.
"""

import json
import random

import pytest
from hypothesis import given, settings

import swplumb
from swplumb import cli, exact, homology, plumbing, reference
from swplumb.corpus import dn_seifert, e_star, standard_corpus
from swplumb.errors import InternalInvariantViolated
from swplumb.exact import IntMatrix, replay_backward, smith_elimination
from swplumb.homology import FinAbGroup, homology_from_lattice, linking_matrix
from swplumb.plumbing import PlumbingGraph, build_lattice
from swplumb.report import compute_report
from swplumb.seifert import lens_chain, star_graph
from swplumb.verify import _blown_up

from test_plumbing import intersection_rows, trees
from test_smith_differential import assert_same_decomposition


def exact_images(snf, kept):
    """U[kept] mod d_i at every vertex, read off the exact decomposition."""
    return tuple(tuple(snf.U[i, v] % snf.diagonal[i] for i in kept) for v in range(snf.U.rows))


@settings(max_examples=200, deadline=None)
@given(trees())
def test_replays_match_the_exact_decomposition(graph):
    """Backwards, the logs give U^T and V; definite trees also give U[kept] mod N and the images."""
    mat = IntMatrix(intersection_rows(graph))
    n = mat.rows
    snf, log = assert_same_decomposition(mat)
    try:
        lattice = build_lattice(graph)
    except swplumb.NotNegativeDefinite:
        return
    order = lattice.order_h
    kept = [i for i, d in enumerate(snf.diagonal) if d > 1]
    assert replay_backward(log.row_ops, n, kept, order) == \
        [[snf.U[i, v] % order for i in kept] for v in range(n)]
    group = homology_from_lattice(lattice, max_order=order)
    assert group.invariant_factors == tuple(snf.diagonal[i] for i in kept)
    assert group.generator_images == exact_images(snf, kept)


def certified_lattice():
    """D6 blown up to 30 vertices: H = Z2 + Z2, so both coordinates are checked."""
    lattice = build_lattice(_blown_up(star_graph(dn_seifert(6)), 30, random.Random(4)))
    assert homology_from_lattice(lattice).invariant_factors == (2, 2)
    return lattice


def test_corrupted_image_raises(monkeypatch):
    lattice = certified_lattice()
    right = homology_from_lattice(lattice).generator_images
    for v in range(lattice.size):
        for s in range(2):
            def corrupt(factors, images, *rest):
                images = [list(image) for image in images]
                images[v][s] = (images[v][s] + 1) % factors[s]
                return FinAbGroup(factors, map(tuple, images), *rest)

            monkeypatch.setattr(homology, "FinAbGroup", corrupt)
            with pytest.raises(InternalInvariantViolated):
                homology_from_lattice(lattice)
    monkeypatch.undo()
    assert homology_from_lattice(lattice).generator_images == right


def test_corrupted_row_log_entry_raises_or_changes_nothing(monkeypatch):
    """q + 1 in any one row addition, or any one row operation dropped: the group is
    refused unless the images are unchanged.

    The lift columns come from the column log, not from the row log: so the lift
    check also refuses a corrupted row log that still yields some basis of H.
    """
    for lattice in (certified_lattice(),    # H = Z2 + Z2, then Z2 and Z25
                    build_lattice(_blown_up(e_star(7), 40, random.Random(2))),
                    build_lattice(_blown_up(lens_chain(25, 7), 40, random.Random(5)))):
        right = homology_from_lattice(lattice).generator_images
        ops = smith_elimination(lattice.sparse_rows(), lattice.size).row_ops
        raised = 0
        for k, kind in [(k, "q + 1") for k, (_, _, q) in enumerate(ops) if q] \
                + [(k, "drop") for k in range(len(ops))]:
            def corrupt(rows, cols):
                log = exact.smith_elimination(rows, cols)
                if kind == "drop":
                    del log.row_ops[k]
                else:
                    a, b, q = log.row_ops[k]
                    log.row_ops[k] = (a, b, q + 1)
                return log

            monkeypatch.setattr(homology, "smith_elimination", corrupt)
            try:
                group = homology_from_lattice(lattice)
            except InternalInvariantViolated:
                raised += 1
            else:
                assert group.generator_images == right, (lattice.size, k, kind)
        monkeypatch.undo()
        assert raised


def test_report_path_builds_no_dense_matrix(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("the exact Smith form or the dense I was built on the report path")

    monkeypatch.setattr(reference, "smith_normal_form", refuse)
    monkeypatch.setattr(swplumb, "smith_normal_form", refuse)
    monkeypatch.setattr(plumbing.LatticeData, "I", property(refuse))
    big = _blown_up(star_graph(dn_seifert(6)), 60, random.Random(3))
    for graph in (dict(standard_corpus())["3arm(m=4)"], lens_chain(25, 7), big):
        assert compute_report(graph).order_h > 1
        assert compute_report(graph, all_spinc=True).spinc_table
        lattice = build_lattice(graph)
        linking_matrix(lattice, homology_from_lattice(lattice))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(big.to_dict()))
    for extra in ([], ["--all-spinc", "--format", "json"]):
        assert cli.main(["graph", str(path)] + extra) == cli.EXIT_OK
    capsys.readouterr()
    with pytest.raises(AssertionError):
        build_lattice(big).I


# A copy of the benchmark's graph builders, so this test does not import them.

def star(center, arms):
    """Central curve `center`; each arm a chain of the given Euler numbers."""
    eulers, edges = [center], []
    for arm in arms:
        prev = 0
        for e in arm:
            eulers.append(e)
            edges.append((prev, len(eulers) - 1))
            prev = len(eulers) - 1
    return eulers, edges


def blow_up(rng, eulers, edges, size):
    """Seeded vertex and edge blowups until the graph has `size` vertices."""
    eulers, edges = list(eulers), list(edges)
    while len(eulers) < size:
        new = len(eulers)
        if not edges or rng.random() < 0.5:
            v = rng.randrange(new)
            eulers[v] -= 1
            edges.append((v, new))
        else:
            a, b = edges.pop(rng.randrange(len(edges)))
            eulers[a] -= 1
            eulers[b] -= 1
            edges += [(a, new), (new, b)]
        eulers.append(-1)
    return eulers, edges


def plumbing_graph(eulers, edges):
    return PlumbingGraph([(f"v{i}", e) for i, e in enumerate(eulers)],
                         [(f"v{a}", f"v{b}") for a, b in edges])


def test_e6_blown_up_to_400_vertices():
    """A tree whose exact Smith form takes minutes (entries of U reach 78654 bits).

    The report path never forms U: it replays the row log mod |det I|.
    """
    rng = random.Random("big/1")
    rng.randrange(1, 11), rng.randrange(1, 13), rng.randrange(4, 10)   # the draws of the other bases
    e6 = star(-2, [[-2], [-2] * 2, [-2] * 2])
    graph = plumbing_graph(*blow_up(rng, *e6, 400))
    assert compute_report(graph) == compute_report(plumbing_graph(*e6))
