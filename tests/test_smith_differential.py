"""The Smith normal form against the dense elimination it replaced.

`smith_normal_form` skips the arithmetic on zeros but performs the same swaps
and row and column additions in the same order as the dense elimination
below, so U, D and V must agree entry for entry, not just up to the
non-uniqueness of U and V: the spin^c labels of `--all-spinc` are read off U.
"""

from hypothesis import given, settings, strategies as st

from swplumb.exact import IntMatrix
from swplumb.reference import SmithDecomposition, smith_normal_form
from swplumb.plumbing import PlumbingGraph, blow_up_edge, blow_up_vertex, build_lattice


def dense_smith_reference(A: IntMatrix) -> SmithDecomposition:
    """The dense Smith normal form: every operation loops over whole rows and columns."""
    r, c = A.rows, A.cols
    m = [list(row) for row in A.entries]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):  # row[dst] += q * row[src]
        if q:
            md, ms = m[dst], m[src]
            for j in range(c):
                md[j] += q * ms[j]
            ud, us = u[dst], u[src]
            for j in range(r):
                ud[j] += q * us[j]

    def add_col(dst, src, q):  # col[dst] += q * col[src]
        if q:
            for row in m:
                row[dst] += q * row[src]
            for row in v:
                row[dst] += q * row[src]

    t = 0
    while t < min(r, c):
        best = None
        pi = pj = -1
        for i in range(t, r):   # the first entry of least |value|; no unit is beaten
            row = m[i]
            for j in range(t, c):
                val = row[j]
                if val and (best is None or abs(val) < best):
                    best = abs(val)
                    pi, pj = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if best is None:
            break
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, r):
                if m[i][t]:
                    add_row(i, t, -(m[i][t] // m[t][t]))
                    if m[i][t]:  # remainder beats the pivot; swap it in
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, c):
                if m[t][j]:
                    add_col(j, t, -(m[t][j] // m[t][t]))
                    if m[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block (a unit always does)
            p = m[t][t]
            bad = None
            if abs(p) != 1:
                for i in range(t + 1, r):
                    for j in range(t + 1, c):
                        if m[i][j] % p:
                            bad = j
                            break
                    if bad is not None:
                        break
            if bad is None:
                break
            add_col(t, bad, 1)
        t += 1

    for i in range(min(r, c)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]

    return SmithDecomposition(IntMatrix(u), IntMatrix(m), IntMatrix(v))


def assert_same_decomposition(mat):
    got, want = smith_normal_form(mat), dense_smith_reference(mat)
    assert got.U.entries == want.U.entries
    assert got.D.entries == want.D.entries
    assert got.V.entries == want.V.entries


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
