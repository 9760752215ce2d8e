"""Plumbing graphs and the lattice invariants read off the intersection matrix.

A plumbing graph here is a decorated tree: vertices carry Euler numbers e_v,
edges are unordered pairs.  The intersection matrix I (I_vv = e_v, I_vw = 1 on
edges) must be negative definite; everything downstream assumes it.
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
    """Intersection lattice of a plumbing graph, with its exact inverse."""

    graph: PlumbingGraph
    ids: tuple
    I: IntMatrix
    Iinv: tuple            # rows of Fractions
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


def _alternating_inverse(rows):
    """Fraction-free Gauss-Jordan on [A|Id] for a negative definite A.

    Pivots are the leading principal minors; their signs must alternate
    starting negative, which is exactly negative definiteness.  Returns
    (minors, det, adjugate_rows).
    """
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    minors = []
    prev = 1
    for k in range(n):
        p = m[k][k]
        if p == 0 or (p > 0) != (k % 2 == 1):
            raise NotNegativeDefinite(k + 1, p)
        minors.append(p)
        mk = m[k]
        for i in range(n):
            if i == k:
                continue
            mi = m[i]
            f = mi[k]
            for j in range(2 * n):
                if j != k:
                    mi[j] = (p * mi[j] - f * mk[j]) // prev
            mi[k] = 0
        prev = p
    det = prev
    adj = [row[n:] for row in m]
    return minors, det, adj


def build_lattice(graph: PlumbingGraph) -> LatticeData:
    """Assemble I, verify tree shape and negative definiteness, invert exactly."""
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

    _, det, adj = _alternating_inverse(rows)
    iinv = tuple(tuple(Fraction(x, det) for x in row) for row in adj)

    degrees = tuple(len(a) for a in adjacency)
    if sum(degrees) != 2 * n - 2:
        raise InternalInvariantViolated("degree sum violates the tree identity")

    z = tuple(e + 2 for e in eulers)
    r = tuple(sum(iinv[v][w] * z[w] for w in range(n) if z[w]) for v in range(n))
    # adjunction system check: I * r = z exactly
    for v in range(n):
        total = rows[v][v] * r[v] + sum(r[w] for w in adjacency[v])
        if total != z[v]:
            raise InternalInvariantViolated("adjunction system solution failed")

    return LatticeData(
        graph=graph,
        ids=ids,
        I=IntMatrix(rows),
        Iinv=iinv,
        det=det,
        order_h=abs(det),
        degrees=degrees,
        neighbors=tuple(tuple(a) for a in adjacency),
        z=z,
        k_vec=tuple(-e - 2 for e in eulers),
        r=r,
    )


def k2_plus_nv(lattice: LatticeData) -> Fraction:
    """The self-intersection of the canonical cycle plus the vertex count.

    Evaluated through the degree-weighted corner formula and cross-checked
    against the full double sum over the inverse matrix.
    """
    n = lattice.size
    iinv = lattice.Iinv
    degrees = lattice.degrees
    base = sum(lattice.graph.euler_numbers) + 3 * n

    special = [v for v in range(n) if degrees[v] != 2]
    corner = Fraction(0)
    for v in special:
        cv = 2 - degrees[v]
        row = iinv[v]
        corner += cv * sum((2 - degrees[w]) * row[w] for w in special)
    value = base + 2 + corner

    z = lattice.z
    naive = Fraction(0)
    support = [v for v in range(n) if z[v]]
    for v in support:
        row = iinv[v]
        naive += z[v] * sum(z[w] * row[w] for w in support)
    naive += n
    if value != naive:
        raise InternalInvariantViolated(
            f"corner formula {value} != double-sum formula {naive}")
    return value


def casson_walker(lattice: LatticeData) -> Fraction:
    """Casson-Walker invariant (Lescop normalization) from the graph data."""
    n = lattice.size
    total = sum(lattice.graph.euler_numbers) + 3 * n
    total += sum((2 - lattice.degrees[v]) * lattice.Iinv[v][v] for v in range(n)
                 if lattice.degrees[v] != 2)
    return Fraction(-lattice.order_h, 24) * total


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
