"""Plumbing graphs and the lattice invariants read off the intersection matrix.

A plumbing graph here is a decorated tree: vertices carry Euler numbers e_v,
edges are unordered pairs.  The intersection matrix I (I_vv = e_v, I_vw = 1 on
edges) must be negative definite; everything downstream assumes it.

On a tree the inverse has a closed form (Eisenbud-Neumann): with [u, v] the
path from u to v,

    (-I)^{-1}_uv = det(-I | graph minus [u, v]) / det(-I),

so the adjugate of -I is a table of subtree determinants, computed in O(n)
integer operations per row, and every consumer sums integers over it and
divides by |det I| once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantViolated, NotATree, NotNegativeDefinite
from .exact import IntMatrix


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
            if not isinstance(e, int) or isinstance(e, bool):
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
            vertices = [(v["id"], v["euler"]) for v in doc["vertices"]]
            edges = doc["edges"]
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
    """Intersection lattice of a plumbing graph, with the adjugate of -I.

    On a tree, adj(-I)_uv = det(-I | graph minus the path [u, v]), a positive
    integer when I is negative definite, and I^{-1} = -adj / |det I|.
    """

    graph: PlumbingGraph
    ids: tuple
    I: IntMatrix
    adj: tuple             # rows of integers: the adjugate of -I
    det: int
    order_h: int           # |det I|
    degrees: tuple
    neighbors: tuple       # adjacency lists of vertex indices
    z: tuple               # e_v + 2 (the anti-canonical data on the dual side)
    k_vec: tuple           # -e_v - 2
    r: tuple               # rational coefficients solving the adjunction system

    @property
    def size(self) -> int:
        return len(self.ids)

    def index_of(self, vertex_id: str) -> int:
        return self.ids.index(vertex_id)


def _bfs(neighbors, root, within, parent):
    """The vertices below `within` reachable from root, breadth first.

    Fills parent[x] for each of them, -1 at the root; on a forest the parent is
    the only visited neighbor, so no other bookkeeping is needed.
    """
    parent[root] = -1
    order = [root]
    for x in order:
        for y in neighbors[x]:
            if y < within and y != parent[x]:
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
    parent = [-1] * n
    rows = []
    for u in range(n):
        order = _bfs(neighbors, u, n, parent)
        dets, below = _subtree_dets(diag, order, parent)
        row = [0] * n
        row[u] = below[u]
        for v in order[1:]:
            row[v] = row[parent[v]] // dets[v] * below[v]
        rows.append(tuple(row))
    return tuple(rows)


def build_lattice(graph: PlumbingGraph) -> LatticeData:
    """Assemble I, verify tree shape and negative definiteness, invert exactly.

    Negative definiteness is Sylvester's criterion in a leaves-first order of
    the tree rooted at the first vertex: each leading block is a union of
    subtrees, so every subtree determinant D[x] must be positive.  The
    adjugate is certified by I * adj = -|det I| * Id, summed over neighbors.
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
    # connectivity (with the edge count this certifies a tree)
    stack = [0]
    reached = {0}
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != n:
        raise NotATree("graph is disconnected")

    eulers = graph.euler_numbers
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = eulers[i]
    for a, b in graph.edges:
        i, j = index[a], index[b]
        rows[i][j] = 1
        rows[j][i] = 1

    diag = [-e for e in eulers]
    parent = [-1] * n
    order = _bfs(adjacency, 0, n, parent)
    dets, _ = _subtree_dets(diag, order, parent)
    if min(dets) <= 0:
        raise _first_failing_minor(diag, adjacency)
    order_h = dets[0]
    adj = _adjugate(diag, adjacency)
    for v in range(n):
        total = [eulers[v] * x for x in adj[v]]
        for u in adjacency[v]:
            total = [x + y for x, y in zip(total, adj[u])]
        total[v] += order_h
        if any(total):
            raise InternalInvariantViolated("I * adj(-I) != -|det I| * Id")

    degrees = tuple(len(a) for a in adjacency)
    if sum(degrees) != 2 * n - 2:
        raise InternalInvariantViolated("degree sum violates the tree identity")

    z = tuple(e + 2 for e in eulers)
    support = [w for w in range(n) if z[w]]
    r = tuple(Fraction(-sum(row[w] * z[w] for w in support), order_h) for row in adj)
    # adjunction system check: I * r = z exactly
    for v in range(n):
        total = rows[v][v] * r[v] + sum(r[w] for w in adjacency[v])
        if total != z[v]:
            raise InternalInvariantViolated("adjunction system solution failed")

    return LatticeData(
        graph=graph,
        ids=ids,
        I=IntMatrix._of_rows(rows),
        adj=adj,
        det=(-1) ** n * order_h,
        order_h=order_h,
        degrees=degrees,
        neighbors=tuple(tuple(a) for a in adjacency),
        z=z,
        k_vec=tuple(-e - 2 for e in eulers),
        r=r,
    )


def k2_plus_nv(lattice: LatticeData) -> Fraction:
    """The self-intersection of the canonical cycle plus the vertex count.

    Evaluated through the degree-weighted corner formula and cross-checked
    against the full double sum over the inverse matrix, both in integers
    over adj(-I) with one division by |det I| at the end.
    """
    n = lattice.size
    adj = lattice.adj
    degrees = lattice.degrees
    base = sum(lattice.graph.euler_numbers) + 3 * n

    special = [v for v in range(n) if degrees[v] != 2]
    corner = sum((2 - degrees[v]) * sum((2 - degrees[w]) * adj[v][w] for w in special)
                 for v in special)
    value = base + 2 - Fraction(corner, lattice.order_h)

    z = lattice.z
    support = [v for v in range(n) if z[v]]
    double = sum(z[v] * sum(z[w] * adj[v][w] for w in support) for v in support)
    naive = n - Fraction(double, lattice.order_h)
    if value != naive:
        raise InternalInvariantViolated(
            f"corner formula {value} != double-sum formula {naive}")
    return value


def casson_walker(lattice: LatticeData) -> Fraction:
    """Casson-Walker invariant (Lescop normalization) from the graph data."""
    n = lattice.size
    corner = sum((2 - d) * lattice.adj[v][v] for v, d in enumerate(lattice.degrees)
                 if d != 2)
    total = (sum(lattice.graph.euler_numbers) + 3 * n) * lattice.order_h - corner
    return Fraction(-total, 24)


def numerically_gorenstein(lattice: LatticeData) -> bool:
    """True when every coefficient of the canonical cycle is an integer."""
    return all(x.denominator == 1 for x in lattice.r)


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
