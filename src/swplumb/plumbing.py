"""Plumbing graphs and the lattice invariants read off the intersection matrix.

A plumbing graph here is a decorated tree: vertices carry Euler numbers e_v,
edges are unordered pairs.  The intersection matrix I (I_vv = e_v, I_vw = 1 on
edges) must be negative definite; everything downstream assumes it.

On a tree the inverse has a closed form (Eisenbud-Neumann): with [u, v] the
path from u to v,

    (-I)^{-1}_uv = det(-I | graph minus [u, v]) / det(-I),

so the adjugate of -I is a table of subtree determinants.  The invariants read
only a few exact numbers from it, each in O(n) integer operations over one
rooting: adj(-I) b for a vector b (a tree solve, leaves first then root
first), the diagonal and the entries on edges (one root-first pass that cuts
each edge into two subtree determinants).  Every consumer sums integers and
divides by |det I| once.  The whole table is built only when read: it is the
oracle that tests and `swplumb verify` compare the tree solves against.  So is
the dense I: the invariants apply I over the edges, and the Smith elimination
reads its rows as sparse dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InternalInvariantViolated, NotATree, NotNegativeDefinite
from .exact import IntMatrix, is_int


@dataclass(frozen=True)
class PlumbingGraph:
    """Decorated tree: (id, euler) vertices and an undirected edge list."""

    vertices: tuple
    edges: tuple

    def __init__(self, vertices, edges):
        vv = tuple((i, e) for i, e in vertices)
        ee = tuple((a, b) for a, b in edges)
        for i, e in vv:
            if not isinstance(i, str):
                raise ValueError(f"vertex id {i!r} is not a string")
            if not is_int(e):
                raise ValueError(f"Euler number {e!r} of vertex {i} is not an integer")
        for a, b in ee:
            if not (isinstance(a, str) and isinstance(b, str)):
                raise ValueError(f"edge ({a!r},{b!r}) has a non-string endpoint")
        ids = [i for i, _ in vv]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        known = set(ids)
        for a, b in ee:
            if a not in known or b not in known:
                raise ValueError(f"edge ({a},{b}) references an unknown vertex")
            if a == b:
                raise NotATree(f"self-loop at {a}")
        object.__setattr__(self, "vertices", vv)
        object.__setattr__(self, "edges", ee)

    @property
    def ids(self):
        return tuple(i for i, _ in self.vertices)

    @property
    def euler_numbers(self):
        return tuple(e for _, e in self.vertices)

    @classmethod
    def from_dict(cls, doc: dict) -> "PlumbingGraph":
        try:
            if not isinstance(doc["vertices"], list):
                raise TypeError("'vertices' is not an array")
            vertices = [(v["id"], v["euler"]) for v in doc["vertices"]]
            edges = doc["edges"]
            if not isinstance(edges, list):
                raise TypeError("'edges' is not an array")
            for e in edges:
                if not (isinstance(e, list) and len(e) == 2):
                    raise TypeError(f"edge {e!r} is not a two-element array")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed graph document: {exc}") from exc
        return cls(vertices, edges)

    def to_dict(self) -> dict:
        return {
            "vertices": [{"id": i, "euler": e} for i, e in self.vertices],
            "edges": [[a, b] for a, b in self.edges],
        }


@dataclass(frozen=True, eq=False)
class LatticeData:
    """Intersection lattice of a plumbing graph, read through tree solves.

    On a tree, adj(-I)_uv = det(-I | graph minus the path [u, v]), a positive
    integer when I is negative definite, and I^{-1} = -adj / |det I|.  The tree
    is rooted at vertex 0: `order` is breadth first, `parent` is -1 at the
    root, D[x] = det(-I | T_x) over the subtree below x and B[x] is the product
    of D over the children of x.  `solve` applies adj(-I) to a vector, and
    `adj_diagonal` holds its entries adj_vv.  `times` applies I itself.  `adj`,
    the whole table, and `I`, the dense matrix, are built only when read.
    """

    graph: PlumbingGraph
    ids: tuple
    eulers: tuple          # e_v
    det: int
    order_h: int           # |det I|
    degrees: tuple
    neighbors: tuple       # adjacency lists of vertex indices
    z: tuple               # e_v + 2 (the anti-canonical data on the dual side)
    k_vec: tuple           # -e_v - 2
    order: tuple           # vertices breadth first from the root, vertex 0
    parent: tuple          # parent vertex, -1 at the root
    D: tuple               # D[x] = det(-I | T_x)
    B: tuple               # B[x] = product of D over the children of x
    adj_diagonal: tuple    # adj(-I)_vv

    @property
    def size(self) -> int:
        return len(self.ids)

    def index_of(self, vertex_id: str) -> int:
        return self.ids.index(vertex_id)

    def times(self, x) -> list:
        """I x, over the edges (v, parent v)."""
        out = [e * y for e, y in zip(self.eulers, x)]
        parent = self.parent
        for v in self.order[1:]:
            p = parent[v]
            out[v] += x[p]
            out[p] += x[v]
        return out

    def sparse_rows(self) -> list:
        """The rows of I as fresh {column: nonzero} dicts."""
        rows = []
        for v, (e, around) in enumerate(zip(self.eulers, self.neighbors)):
            row = dict.fromkeys(around, 1)
            row[v] = e
            rows.append(row)
        return rows

    def solve(self, b) -> list:
        """adj(-I) b in integers, certified by I y = -|det I| b over the edges."""
        y = _tree_solve(self.order, self.parent, self.D, self.B, b)
        if self.times(y) != [-self.order_h * x for x in b]:
            raise InternalInvariantViolated("tree solve: I y != -|det I| b")
        return y

    @cached_property
    def I(self) -> IntMatrix:
        """The dense intersection matrix, built only when read (oracles and tests)."""
        n = self.size
        return IntMatrix._of_rows([[row.get(j, 0) for j in range(n)]
                                   for row in self.sparse_rows()])

    @cached_property
    def adj_z(self) -> tuple:
        """adj(-I) z in integers: the adjunction system I r = z has r = -adj(-I) z / |det I|."""
        return tuple(self.solve(self.z))

    @cached_property
    def r(self) -> tuple:
        """The rational coefficients r = I^{-1} z solving the adjunction system."""
        return tuple(Fraction(-y, self.order_h) for y in self.adj_z)

    @cached_property
    def adj(self) -> tuple:
        """The whole adjugate of -I, as rows of integers: the oracle of the tree solves.

        Certified by I * adj = -|det I| * Id, summed over neighbors.
        """
        eulers = self.eulers
        adj = _adjugate([-e for e in eulers], self.neighbors)
        for v in range(self.size):
            total = [eulers[v] * x for x in adj[v]]
            for u in self.neighbors[v]:
                total = [x + y for x, y in zip(total, adj[u])]
            total[v] += self.order_h
            if any(total):
                raise InternalInvariantViolated("I * adj(-I) != -|det I| * Id")
        return adj


def _bfs(neighbors, root, within, parent):
    """The vertices below `within` reachable from root, breadth first.

    Fills parent[x] for each of them, -1 at the root.  Every entry of parent
    starts as None and a vertex is taken only while its entry is None, so the
    walk also ends on a graph with a cycle.
    """
    parent[root] = -1
    order = [root]
    for x in order:
        for y in neighbors[x]:
            if y < within and parent[y] is None:
                parent[y] = x
                order.append(y)
    return order


def _subtree_dets(diag, order, parent):
    """D[x] = det(-I | T_x) and B[x], the product of D over the children of x.

    Leaves first: D[x] = diag[x] B[x] - sum_c B[c] prod_{c' != c} D[c'], with
    diag = -e.  The sum grows one child at a time, so no D is divided by and a
    zero or negative D (indefinite input) is carried exactly.
    """
    n = len(diag)
    dets, below, rest = [0] * n, [1] * n, [0] * n
    for x in reversed(order):
        d = dets[x] = diag[x] * below[x] - rest[x]
        p = parent[x]
        if p >= 0:
            rest[p] = rest[p] * d + below[x] * below[p]
            below[p] *= d
    return dets, below


def _first_failing_minor(diag, neighbors) -> NotNegativeDefinite:
    """The first leading principal minor of I, in input order, of the wrong sign or zero.

    The first k vertices span a forest, and det(-I) on it is the product of D
    over the roots of its components.
    """
    n = len(diag)
    for k in range(1, n + 1):
        parent, order, roots = [None] * n, [], []
        for root in range(k):
            if parent[root] is None:
                roots.append(root)
                order += _bfs(neighbors, root, k, parent)
        dets, _ = _subtree_dets(diag, order, parent)
        minor = 1
        for x in roots:
            minor *= dets[x]
        if minor <= 0:
            return NotNegativeDefinite(k, (-1) ** k * minor)
    raise InternalInvariantViolated("no leading minor fails, yet a subtree determinant does")


def _adjugate(diag, neighbors):
    """adj(-I) row by row: one rooting per row u, walked down from u.

    adj_uu = B[u]; for v below its parent p, the path [u, v] removes v from the
    component T_v of graph minus [u, p], so adj_uv = adj_up / D[v] * B[v].
    """
    n = len(diag)
    rows = []
    for u in range(n):
        parent = [None] * n
        order = _bfs(neighbors, u, n, parent)
        dets, below = _subtree_dets(diag, order, parent)
        row = [0] * n
        row[u] = below[u]
        for v in order[1:]:
            row[v] = row[parent[v]] // dets[v] * below[v]
        rows.append(tuple(row))
    return tuple(rows)


def _tree_solve(order, parent, dets, below, b):
    """adj(-I) b over the rooting (order, parent) with subtree determinants D, B.

    Leaves first, S[x] = B[x] b_x + sum_c S[c] prod_{c' != c} D[c'] over the
    children c of x, grown one child at a time as in _subtree_dets, so that
    D[x] y_x = N S[x] + B[x] y_(parent x) with N = D[root] = det(-I).  Root
    first, y_root = S[root] and every other y_x is an exact quotient.
    """
    n = len(order)
    s, sofar = list(b), [1] * n
    for x in reversed(order):
        p = parent[x]
        if p >= 0:
            s[p] = s[p] * dets[x] + s[x] * sofar[p]
            sofar[p] *= dets[x]
    root = order[0]
    det = dets[root]
    y = [0] * n
    y[root] = s[root]
    for x in order[1:]:
        y[x] = (det * s[x] + below[x] * y[parent[x]]) // dets[x]
    return y


def _diagonal_and_edges(diag, order, parent, dets, below):
    """adj(-I)_vv and adj(-I)_(v, parent v) (0 at the root), from the edge-cut identity.

    Cutting the edge from v to its parent p leaves T_v and the component of p,
    with determinant up[v].  Removing p too leaves the other children of p and
    the side beyond p's parent, so upb[v] = B[p] / D[v] * up[p], with
    up[root] = 1.  The edge enters det(-I) through its square, so
    N = D[v] up[v] - B[v] upb[v], which gives up[v] root first.  Both divisions
    are by D[v]: they need the D > 0 check that `build_lattice` makes first.
    adj_vv = B[v] up[v] and adj_(v, parent v) = B[v] upb[v].  Row v of
    I adj(-I) = -|det I| Id certifies them at every vertex, its off-diagonal
    part summed in one pass that adds each edge entry to both of its ends, and
    Jacobi's identity for the 2 x 2 minor of adj(-I) on each edge (v, p), whose
    complementary minor of -I is adj_vp itself, at every edge; so the
    certificates also catch an inexact division.
    """
    n = len(diag)
    det = dets[order[0]]
    up, upb = [1] * n, [0] * n
    for v in order[1:]:
        p = parent[v]
        upb[v] = below[p] // dets[v] * up[p]
        up[v] = (det + below[v] * upb[v]) // dets[v]
    diagonal = tuple(b * u for b, u in zip(below, up))
    edges = tuple(b * u for b, u in zip(below, upb))
    totals = [0] * n    # row v of I adj(-I) off the diagonal: the edges at v
    for v in order[1:]:
        p, edge = parent[v], edges[v]
        totals[v] += edge
        totals[p] += edge
        if diagonal[v] * diagonal[p] - edge * edge != det * edge:
            raise InternalInvariantViolated("adj(-I) fails Jacobi's identity on an edge")
    if any(t - d * x != -det for t, d, x in zip(totals, diag, diagonal)):
        raise InternalInvariantViolated("diagonal of adj(-I) fails row v of I adj = -|det I| Id")
    return diagonal, edges


def build_lattice(graph: PlumbingGraph) -> LatticeData:
    """Assemble I, verify tree shape and negative definiteness, root the tree.

    Negative definiteness is Sylvester's criterion in a leaves-first order of
    the tree rooted at the first vertex: each leading block is a union of
    subtrees, so every subtree determinant D[x] must be positive.  The same
    rooting carries the tree solves and the certified diagonal of adj(-I).
    """
    ids = graph.ids
    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}

    if len(graph.edges) != n - 1:
        raise NotATree(f"{len(graph.edges)} edges on {n} vertices")
    seen = set()
    adjacency = [[] for _ in range(n)]
    for a, b in graph.edges:
        key = frozenset((a, b))
        if key in seen:
            raise NotATree(f"duplicate edge ({a},{b})")
        seen.add(key)
        adjacency[index[a]].append(index[b])
        adjacency[index[b]].append(index[a])
    # the rooting walk checks connectivity (with the edge count, a tree)
    parent = [None] * n
    order = _bfs(adjacency, 0, n, parent)
    if len(order) != n:
        raise NotATree("graph is disconnected")

    eulers = graph.euler_numbers
    diag = [-e for e in eulers]
    dets, below = _subtree_dets(diag, order, parent)
    if min(dets) <= 0:
        raise _first_failing_minor(diag, adjacency)
    adj_diagonal, _ = _diagonal_and_edges(diag, order, parent, dets, below)

    degrees = tuple(len(a) for a in adjacency)
    if sum(degrees) != 2 * n - 2:
        raise InternalInvariantViolated("degree sum violates the tree identity")

    order_h = dets[0]
    return LatticeData(
        graph=graph,
        ids=ids,
        eulers=eulers,
        det=(-1) ** n * order_h,
        order_h=order_h,
        degrees=degrees,
        neighbors=tuple(tuple(a) for a in adjacency),
        z=tuple(e + 2 for e in eulers),
        k_vec=tuple(-e - 2 for e in eulers),
        order=tuple(order),
        parent=tuple(parent),
        D=tuple(dets),
        B=tuple(below),
        adj_diagonal=adj_diagonal,
    )


def k2_plus_nv(lattice: LatticeData) -> Fraction:
    """The self-intersection of the canonical cycle plus the vertex count.

    Evaluated through the degree-weighted corner formula c^T adj(-I) c, with
    c_v = 2 - deg v, from one tree solve, and cross-checked against the full
    double sum z^T adj(-I) z = -|det I| (z . r), from the adjunction solve.
    """
    n = lattice.size
    corner_vec = [2 - d for d in lattice.degrees]
    corner = sum(c * y for c, y in zip(corner_vec, lattice.solve(corner_vec)) if c)
    value = sum(lattice.eulers) + 3 * n + 2 - Fraction(corner, lattice.order_h)

    double = sum(zv * y for zv, y in zip(lattice.z, lattice.adj_z) if zv)
    naive = n - Fraction(double, lattice.order_h)
    if value != naive:
        raise InternalInvariantViolated(
            f"corner formula {value} != double-sum formula {naive}")
    return value


def casson_walker(lattice: LatticeData) -> Fraction:
    """Casson-Walker invariant (Lescop normalization) from the graph data."""
    n = lattice.size
    corner = sum((2 - d) * lattice.adj_diagonal[v] for v, d in enumerate(lattice.degrees)
                 if d != 2)
    total = (sum(lattice.eulers) + 3 * n) * lattice.order_h - corner
    return Fraction(-total, 24)


def numerically_gorenstein(lattice: LatticeData) -> bool:
    """True when every coefficient of the canonical cycle is an integer: |det I| divides
    every entry of adj(-I) z."""
    return not any(y % lattice.order_h for y in lattice.adj_z)


# ---------------------------------------------------------------------------
# Blowup moves (used to test invariance under graph equivalence)
# ---------------------------------------------------------------------------

def blow_up_vertex(graph: PlumbingGraph, vertex_id: str, new_id: str = "blow") -> PlumbingGraph:
    """Blow up a generic point of the curve at `vertex_id`.

    Appends a -1 vertex joined to `vertex_id` and drops that vertex's Euler
    number by one; the underlying 3-manifold is unchanged.
    """
    if new_id in graph.ids:
        raise ValueError(f"id {new_id} already in use")
    vertices = [(i, e - 1 if i == vertex_id else e) for i, e in graph.vertices]
    vertices.append((new_id, -1))
    edges = list(graph.edges) + [(vertex_id, new_id)]
    return PlumbingGraph(vertices, edges)


def blow_up_edge(graph: PlumbingGraph, edge, new_id: str = "blow") -> PlumbingGraph:
    """Blow up the intersection point of the two curves joined by `edge`."""
    if new_id in graph.ids:
        raise ValueError(f"id {new_id} already in use")
    a, b = edge
    if (a, b) not in graph.edges and (b, a) not in graph.edges:
        raise ValueError(f"({a},{b}) is not an edge")
    vertices = [(i, e - 1 if i in (a, b) else e) for i, e in graph.vertices]
    vertices.append((new_id, -1))
    edges = [e for e in graph.edges if set(e) != {a, b}]
    edges += [(a, new_id), (new_id, b)]
    return PlumbingGraph(vertices, edges)
