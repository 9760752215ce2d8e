"""Sign-refined torsion of a plumbed manifold through its Fourier transform.

For a nontrivial character chi the transform is a finite product over vertices
of (chi(g_v) - 1)^(deg v - 2), regularized when some chi(g_v) = 1 by an exact
order count at t = 1: a factor t^(w_v) * chi(g_v) - 1 with chi(g_v) = 1 carries
one order of (t - 1) and unit part w_v, where the weights w solve
I w = -m e_(v0).  No numeric limits.

Since R(chi^u) = sigma_u(R(chi)), `orbit_table` takes one trace per Galois
orbit, of R(chi) in Q[x]/(x^d - 1) against the Ramanujan sum c_d, d the order
of chi, which it keeps as a linear form c in Z/d: chi(h) = zeta_d^(c . h).
The orbits are the cyclic subgroups of H, enumerated directly, and each
product takes one net power per exponent, so the table's work follows the
orbits and their orders, not |H|.  Each orbit is kept as the residue sums of its
numerators mod each term q of c_d: `TorsionTable.at` reads one sum per term,
and `TorsionTable.invert` tabulates all of Z/d from them.
`reference.regularized_product`, one Q(zeta_N) product per character, is the oracle.
The transform is computed once, for the canonical structure:
T_{h*sigma_can}(1) = T_{sigma_can}(h), so a spin^c offset is an evaluation point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from math import gcd, lcm, prod
from operator import add, mul

from .errors import InternalInvariantViolated
from .homology import FinAbGroup, GroupElement, linking_rows, spinc_quadratic
from .plumbing import LatticeData


@dataclass(frozen=True)
class WeightVector:
    """Primitive positive solution of I w = -m e_(v0)."""

    v0: int
    m: int
    w: tuple


def weight_vector(lattice: LatticeData, v0: int) -> WeightVector:
    """Weights for base vertex v0: the v0-column of adj(-I), made primitive.

    I adj(-I) = -|det I| Id, so the column adj(-I) e_(v0), one tree solve, over
    its gcd g solves I w = -m e_(v0) with m = |det I| / g.
    """
    n = lattice.size
    column = lattice.solve([int(v == v0) for v in range(n)])
    g = gcd(*column)
    w = [x // g for x in column]
    m = lattice.order_h // g
    if any(x <= 0 for x in w):
        raise InternalInvariantViolated("weights must be positive on a connected graph")
    # re-verify I w = -m e_(v0)
    target = [0] * n
    target[v0] = -m
    if lattice.times(w) != target:
        raise InternalInvariantViolated("weight system verification failed")
    return WeightVector(v0=v0, m=m, w=tuple(w))


def prime_divisors(n: int) -> list:
    """The primes dividing n, ascending, by trial division."""
    primes, p = [], 2
    while n > 1:
        p = p if p * p <= n else n
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes


def moebius_terms(d: int) -> list:
    """(q, mu(d/q)) for the q | d with d/q squarefree: c_d(n) = sum of mu(d/q) q over q | n."""
    terms = [(d, 1)]
    for p in prime_divisors(d):
        terms += [(q // p, -m) for q, m in terms]
    return terms


def orbit_product(d: int, factors):
    """prod (t^w * x^a - 1)^p at t = 1 in Q[x]/(x^d - 1) over the factors (a, p, w).

    (numerators, denominator), equal to R(chi^u) at x = zeta_d^u for every unit u,
    or None when R vanishes; a factor with a = 0 has p orders of (t - 1), unit part w^p.
    The factors with one exponent 0 < a < d go in as one net power, the sum of
    their p: x^a - 1 is invertible at every primitive d-th root, so (x^a - 1) and
    1/(x^a - 1) cancel there, and only the other components of f change.
    """
    order = sum(p for a, p, _ in factors if a == 0)
    if order > 0:
        return None
    if order < 0:
        raise InternalInvariantViolated(
            "negative regularization order; the limit would be infinite")
    scalar = prod((Fraction(w) ** p for a, p, w in factors if a == 0), start=Fraction(1))
    f, den = [scalar.numerator] + [0] * (d - 1), scalar.denominator
    net = {}
    for a, p, _ in factors:
        if a:
            net[a] = net.get(a, 0) + p
    for a, p in net.items():
        for _ in range(p):          # times x^a - 1: shift and subtract
            f = [x - y for x, y in zip(f[-a:] + f[:-a], f)]
        for _ in range(-p):         # times 1/(x^a - 1) = (1/k) sum_{i<k} i x^(a i)
            k, out = d // gcd(a, d), [0] * d
            for r in range(d // k):     # one running sum along each coset r + <a>
                run = [f[(r + a * i) % d] for i in range(k)]
                # out[r] = sum_i i f[r - a i]; then out[t + a] = out[t] + sum(run) - k f[t + a]
                value, total = sum((-i % k) * x for i, x in enumerate(run)), sum(run)
                for i in range(k):
                    out[(r + a * i) % d] = value
                    value += total - k * run[(i + 1) % k]
            f, den = out, den * k
    return f, den


def residue_sums(num, q) -> list:
    """[sum(num[r::q]) for r < q]; for q >= d/q, the blocks of length q summed from num
    itself, since `map` stops at the end of the shorter list."""
    if q * q < len(num):
        return [sum(num[r::q]) for r in range(q)]
    return reduce(lambda s, b: list(map(add, s, num[b:b + q])), range(q, len(num), q), num)


def _valuation(n: int, p: int) -> int:
    """The exponent of the prime p in n > 0."""
    a = 0
    while n % p == 0:
        n, a = n // p, a + 1
    return a


def orbit_characters(dims):
    """(k, d): one character k of order d per Galois orbit of the nontrivial characters.

    The orbit {u k : u a unit mod d} of k in H = prod Z/d_i (`dims`) is the set of
    generators of the cyclic subgroup <k>, the product of its p-parts.  In the
    p-part prod Z/p^(a_i), embedded by y_i -> y_i d_i / p^(a_i), a cyclic subgroup
    of order p^b has one generator y with y_s = p^(a_s - b) at the first coordinate
    s of order p^b: the coordinates before s have order below p^b (multiples of
    p^(a_j - b + 1)), those after it at most p^b (multiples of p^(a_j - b)).
    """
    parts = []
    for p in prime_divisors(lcm(*dims)):
        a = [_valuation(m, p) for m in dims]
        part = [(1, (0,) * len(dims))]
        for b in range(1, max(a) + 1):
            for s in [j for j, x in enumerate(a) if x >= b]:
                ranges = [range(0, p ** x, p ** max(0, x - b + (j < s))) for j, x in enumerate(a)]
                ranges[s] = (p ** (a[s] - b),)
                part += [(p ** b, tuple(y * (m // p ** x) for y, m, x in zip(ys, dims, a)))
                         for ys in iproduct(*ranges)]
        parts.append(part)
    for choice in iproduct(*parts):
        d = prod(order for order, _ in choice)
        if d > 1:
            yield tuple(sum(ys) % m for ys, m in zip(zip(*(y for _, y in choice)), dims)), d


def orbit_table(dims, images, factors_of) -> TorsionTable:
    """R(chi) of one character per Galois orbit, whose trace carries the whole orbit.

    The orbits are the cyclic subgroups of H = prod Z/d_i (`dims`), one character k
    of order d each (`orbit_characters`), so the work follows the orbits and their
    orders, not |H|.  The character is kept as the form c_i = k_i d / d_i.
    factors_of(exps), exps its values at `images` in Z/d, lists the factors
    (a, p, w) of R(chi): (t^w * zeta_d^a - 1)^p.  The trace of x^-e f against c_d
    is the sum over c_d's terms (q, mu) of mu q sum(f[e::q]): each orbit keeps its
    residue sums mod each q, with the weight mu q over the orbits' common denominator.
    """
    products = []
    for k, d in orbit_characters(dims):
        c = tuple(x * d // m for x, m in zip(k, dims))
        product = orbit_product(d, factors_of([sum(map(mul, c, g)) % d for g in images]))
        if product is not None:
            products.append((c, d, *product))
    common = lcm(*(den for *_, den in products))
    orbits = tuple((c, d, tuple((mu * q * (common // den), residue_sums(num, q))
                                for q, mu in moebius_terms(d)))
                   for c, d, num, den in products)
    return TorsionTable(dims, common, orbits)


@dataclass(frozen=True, eq=False)
class TorsionTable:
    """Fourier transform R(chi) of the torsion of the canonical structure: the structure
    h * sigma_can has torsion T(h) at 1.  `at` reads one point; `totals` all of H as
    integers over one denominator, which `invert` turns into Fractions."""

    dims: tuple      # the invariant factors of H
    den: int         # the lcm of the orbit denominators
    orbits: tuple    # (c, d, ((weight, residue sums) per term of c_d)) per orbit, R != 0

    def at(self, h: GroupElement) -> Fraction:
        """(1/|H|) sum over the orbits of the trace sum_j f_j c_d(j - e), e = c . h:
        one residue sum per term of c_d, read at e mod q and weighted, over `den`."""
        total = 0
        for c, _, sums in self.orbits:
            e = sum(map(mul, c, h))
            total += sum(w * s[e % len(s)] for w, s in sums)
        return Fraction(total, self.den * prod(self.dims))

    def totals(self):
        """(n, rows): T(h) = t / n for each (h, t) of rows, h over H in lexicographic order.
        Each orbit's traces on Z/d are tabulated from its weighted residue sums, then read
        once per point at e = c . h, built a coordinate at a time; t is an integer."""
        totals = [0] * prod(self.dims)
        for c, d, sums in self.orbits:
            table = list(map(sum, zip(*([w * x for x in s] * (d // len(s)) for w, s in sums))))
            es = [0]
            for x, m in zip(c, self.dims):
                es = [(e + x * j) % d for e in es for j in range(m)]
            totals = [t + table[e] for t, e in zip(totals, es)]
        return self.den * prod(self.dims), list(zip(iproduct(*map(range, self.dims)), totals))

    def invert(self) -> dict:
        """{h: T(h)} over H, lexicographic, from `totals`."""
        n, rows = self.totals()
        return {h: Fraction(t, n) for h, t in rows}


def torsion_table(lattice: LatticeData, group: FinAbGroup) -> TorsionTable:
    """R(chi) over the vertices with deg v != 2, weighted from the first vertex chi moves."""
    degrees = lattice.degrees
    weights = {}    # one weight vector per base vertex, shared by the orbits

    def factors_of(exps):
        v0 = next(v for v, e in enumerate(exps) if e)
        w = weights.get(v0)
        if w is None:
            w = weights[v0] = weight_vector(lattice, v0).w
        return [(exps[v], degrees[v] - 2, w[v]) for v in range(lattice.size) if degrees[v] != 2]

    return orbit_table(group.invariant_factors, group.generator_images, factors_of)


def swiden_consistency(lattice: LatticeData, group: FinAbGroup, offsets=None) -> bool:
    """Exhaustive check of the two torsion/quadratic-function identities.

    For each structure h_sigma * sigma_can, h_sigma in `offsets` (by default
    the canonical structure alone), with T its torsion function:
    (a) T(1) - T(g) - T(h) + T(g+h) = -b_M(g, h) mod Z for all g, h;
    (b) h -> T(1) - T(h) equals the quadratic function of the structure mod Z.
    The canonical table is built and inverted once for all offsets.
    """
    torsion = torsion_table(lattice, group).invert()
    elements = list(group.elements())
    # (a) in integers: T and b scaled by the lcm of their denominators
    den, linking_row = linking_rows(lattice, group,
                                    lcm(*(x.denominator for x in torsion.values())))
    scaled = {h: x.numerator * (den // x.denominator) for h, x in torsion.items()}
    for h_sigma in (group.identity,) if offsets is None else offsets:
        # the structure h_sigma * sigma_can has torsion h -> T(h_sigma + h)
        tfun = {h: scaled[group.add(h_sigma, h)] for h in elements}
        t0 = tfun[group.identity]
        for g in elements:
            lhs_g = t0 - tfun[g]
            for h, pairing in zip(elements, linking_row(g)):
                if (lhs_g - tfun[h] + tfun[group.add(g, h)] + pairing) % den:
                    return False
        for h in elements:
            if (Fraction(t0 - tfun[h], den)
                    - spinc_quadratic(lattice, group, h_sigma, h)) % 1 != 0:
                return False
    return True


def delta_at_one_check(lattice: LatticeData, v0: int) -> bool:
    """Order-counting evaluation of the twisted-degree product at t = 1.

    With the degree at v0 bumped by one, the product of (t^(w_v)-1) powers times
    (t-1) has net order zero; its value must equal |H| / m.
    """
    wv = weight_vector(lattice, v0)
    degrees = list(lattice.degrees)
    degrees[v0] += 1
    order = 1 + sum(d - 2 for d in degrees)
    if order != 0:
        raise InternalInvariantViolated("net order at t=1 must vanish on a tree")
    value = Fraction(1)
    for v, d in enumerate(degrees):
        if d != 2:
            value *= Fraction(wv.w[v]) ** (d - 2)
    return value == Fraction(lattice.order_h, wv.m)
