"""The report path's Smith log against the independent dense oracle.

`exact.smith_elimination` skips the arithmetic on zeros but makes the same
pivot choices, swaps and row and column additions in the same order as the
dense elimination of `reference.smith_normal_form`, so the log's diagonal and
its replays without a modulus, U and V, must agree with the oracle's entry for
entry, not just up to the non-uniqueness of U and V: the spin^c labels of
`--all-spinc` are read off U.
"""

from hypothesis import given, settings, strategies as st

from swplumb.exact import IntMatrix, replay_backward, smith_elimination
from swplumb.reference import smith_normal_form
from swplumb.plumbing import PlumbingGraph, blow_up_edge, blow_up_vertex, build_lattice


def assert_same_decomposition(mat):
    want = smith_normal_form(mat)
    r, c = mat.rows, mat.cols
    log = smith_elimination([{j: x for j, x in enumerate(row) if x} for row in mat.entries], c)
    assert want.D.entries == tuple(tuple(log.diagonal[i] if i == j else 0 for j in range(c))
                                   for i in range(r))
    assert replay_backward(log.row_ops, r, range(r)) == [list(row) for row in want.U.entries]
    assert replay_backward(log.col_ops, c, range(c)) == [list(col) for col in zip(*want.V.entries)]
    return want, log


# entries: zeros often (zero rows, singular blocks), multiples of 2, 3 and 6
# (non-unit pivots, remainders that beat the pivot, the divisibility fix-up)
ENTRY = st.one_of(st.just(0), st.integers(-9, 9),
                  st.sampled_from([2, 3, 4, 6, 9, 12]).flatmap(
                      lambda k: st.integers(-4, 4).map(lambda x: k * x)))


@st.composite
def integer_matrices(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        entries[i] = [0] * cols
    return IntMatrix(entries)


@st.composite
def definite_trees(draw):
    """A negative-definite tree of up to 60 vertices, blown up from a dominant one.

    The base has e_v <= -deg v, strictly at the first vertex, so -I is
    irreducibly diagonally dominant; blowups keep I negative definite and
    bring in the -1 curves of real resolution graphs.
    """
    n = draw(st.integers(1, 30))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    degree = [0] * n
    for i, p in enumerate(parents, start=1):
        degree[i] += 1
        degree[p] += 1
    extra = [draw(st.integers(0, 3)) for _ in range(n)]
    extra[0] = max(extra[0], 1)
    graph = PlumbingGraph([(f"v{i}", -degree[i] - extra[i]) for i in range(n)],
                          [(f"v{i}", f"v{p}") for i, p in enumerate(parents, start=1)])
    for k in range(draw(st.integers(0, 60 - n))):
        if graph.edges and draw(st.booleans()):
            graph = blow_up_edge(graph, draw(st.sampled_from(graph.edges)), f"b{k}")
        else:
            graph = blow_up_vertex(graph, draw(st.sampled_from(graph.ids)), f"b{k}")
    return graph


class TestAgainstDenseReference:
    @settings(max_examples=400, deadline=None)
    @given(integer_matrices())
    def test_random_integer_matrices(self, mat):
        assert_same_decomposition(mat)

    @settings(max_examples=40, deadline=None)
    @given(definite_trees())
    def test_intersection_matrices_of_trees(self, graph):
        assert_same_decomposition(build_lattice(graph).I)

    def test_fixed_cases(self):
        for entries in ([[0]], [[0, 0], [0, 0]], [[5]], [[2, 0], [0, 3]], [[4, 6], [6, 4], [2, 8]],
                        [[0, 6, 0], [4, 0, 10]], [[6], [10], [15]], [[-1, 0, 0, 0, 0, 3]]):
            assert_same_decomposition(IntMatrix(entries))

    def test_unit_pivot_cases(self):
        for entries in ([[-1, 2, 3], [4, 5, 6], [7, 8, 10]],      # a -1 pivot
                        [[2, 4, 6], [3, -1, 5], [4, 6, 8]],       # the unit below row t: swaps
                        [[1, 2, 3], [2, 8, 12], [3, 12, 13]],     # unit steps, then no unit
                        [[-1, 2, 0], [2, 0, 6], [0, 6, 4]],
                        [[0, 1, 0, 2], [1, 0, 3, 0], [0, 3, 4, 6], [2, 0, 6, 8]]):
            assert_same_decomposition(IntMatrix(entries))
