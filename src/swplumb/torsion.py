"""Sign-refined torsion of a plumbed manifold through its Fourier transform.

For a nontrivial character chi the transform is a finite product over vertices
of (chi(g_v) - 1)^(deg v - 2), regularized when some chi(g_v) = 1 by an exact
order count at t = 1: a factor t^(w_v) * chi(g_v) - 1 with chi(g_v) = 1 carries
one order of (t - 1) and unit part w_v, where the weights w solve
I w = -m e_(v0).  Everything stays in Q(zeta_N), N = exp(H); no numeric limits.

Every torsion value goes through two helpers: `regularized_factor_product`
(the order-counted product of a factor list) and `fourier_average`
((1/|H|) sum_chi chibar(h) * value, certified rational).  The generic route
passes one factor per vertex with deg v != 2; the Seifert arm shortcut passes
the center and the arm ends.

The transform is computed once, for the canonical structure.  Every other
spin^c structure is a translate of it, T_{h*sigma_can}(1) = T_{sigma_can}(h),
so a spin^c offset is a point at which the one transform is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InternalInvariantViolated, InvalidBaseVertex
from .exact import CycNum
from .homology import (Character, FinAbGroup, GroupElement, linking_matrix,
                       linking_pairing, spinc_quadratic)
from .plumbing import LatticeData


@dataclass(frozen=True)
class WeightVector:
    """Primitive positive solution of I w = -m e_(v0)."""

    v0: int
    m: int
    w: tuple


def weight_vector(lattice: LatticeData, v0: int) -> WeightVector:
    """Weights for base vertex v0: minus the v0-column of I^{-1}, cleared and primitive."""
    n = lattice.size
    column = [lattice.Iinv[v][v0] for v in range(n)]
    m = 1
    for c in column:
        m = m * c.denominator // gcd(m, c.denominator)
    w = [int(-m * c) for c in column]
    g = 0
    for x in w:
        g = gcd(g, x)
    if g > 1:
        w = [x // g for x in w]
        m //= g
    if any(x <= 0 for x in w):
        raise InternalInvariantViolated("weights must be positive on a connected graph")
    # re-verify I w = -m e_(v0)
    target = [0] * n
    target[v0] = -m
    for v in range(n):
        total = lattice.I[v, v] * w[v] + sum(w[u] for u in lattice.neighbors[v])
        if total != target[v]:
            raise InternalInvariantViolated("weight system verification failed")
    return WeightVector(v0=v0, m=m, w=tuple(w))


def regularized_factor_product(field, factors) -> CycNum:
    """prod (t^w * zeta^e - 1)^d at t = 1 over the factors (e, d, w), exactly.

    A factor with e = 0 carries d orders of (t - 1) and unit part w^d; any
    other factor is (zeta^e - 1)^d.  Total order s > 0 gives 0, s = 0 gives
    the closed-form product, s < 0 (an infinite limit) is an internal error.
    """
    order = sum(d for e, d, _ in factors if e == 0)
    if order > 0:
        return field.zero()
    if order < 0:
        raise InternalInvariantViolated(
            "negative regularization order; the limit would be infinite")
    scalar = Fraction(1)
    value = None
    inverse_exponents = []
    for e, d, w in factors:
        if e == 0:
            scalar *= Fraction(w) ** d
        elif d > 0:
            factor = field.root_minus_one(e)
            for _ in range(d):
                value = factor if value is None else value * factor
        else:
            inverse_exponents.extend([e] * (-d))
    for e in inverse_exponents:
        factor = field.inv_root_minus_one(e)
        value = factor if value is None else value * factor
    if value is None:
        value = field.one()
    return value * scalar


def fourier_average(group: FinAbGroup, values, h: GroupElement) -> Fraction:
    """(1/|H|) sum_chi chibar(h) * value over the (chi, value) pairs, as a Fraction.

    Raises NotRational unless the sum lies in Q.
    """
    field = group.field
    total = field.zero()
    for chi, value in values:
        if value.is_zero:
            continue
        e = group.char_exponent(chi, h)
        total = total + (value * field.root_of_unity(-e) if e else value)
    return (total * Fraction(1, group.order)).as_rational()


def _product_from_exponents(lattice, group, exps, wv: WeightVector) -> CycNum:
    """Regularized product over vertices of (chi(g_v) - 1)^(deg v - 2).

    `exps` lists the exponent of chi(g_v) against the fixed root of unity; the
    vertices with deg v != 2 are the factors, with the weights of `wv`.
    """
    degrees = lattice.degrees
    return regularized_factor_product(
        group.field, [(exps[v], degrees[v] - 2, wv.w[v])
                      for v in range(lattice.size) if degrees[v] != 2])


def regularized_product(lattice: LatticeData, group: FinAbGroup,
                        chi: Character, wv: WeightVector) -> CycNum:
    """Public regularized product for a nontrivial chi and admissible base vertex.

    The base vertex must satisfy chi(g_v0) != 1 or have a neighbor u with
    chi(g_u) != 1; otherwise InvalidBaseVertex is raised.
    """
    if chi.is_trivial:
        raise ValueError("chi must be nontrivial")
    exps = [group.char_exponent(chi, g) for g in group.generator_images]
    if exps[wv.v0] == 0 and all(exps[u] == 0 for u in lattice.neighbors[wv.v0]):
        raise InvalidBaseVertex(
            f"vertex {wv.v0} and all its neighbors are fixed by the character")
    return _product_from_exponents(lattice, group, exps, wv)


@dataclass(frozen=True, eq=False)
class TorsionTable:
    """Fourier transform R(chi) of the torsion of the canonical structure.

    The structure h * sigma_can has torsion T(h) at 1: the transform evaluated
    at h.  `at` reads one point, `invert` the whole function on H.
    """

    entries: dict            # Character -> CycNum, trivial character -> 0
    t_at_1: Fraction         # at(identity), certified rational

    def at(self, group: FinAbGroup, h: GroupElement) -> Fraction:
        """T(h) = (1/|H|) sum_chi chibar(h) * R(chi)."""
        return fourier_average(group, self.entries.items(), h)

    def invert(self, group: FinAbGroup) -> dict:
        """{h: T(h)} over H, lexicographic."""
        return {h: self.at(group, h) for h in group.elements()}


def _transform_values(lattice, group):
    """(chi, R(chi)) for every character: the regularized vertex product, 0 at chi = 1."""
    n = lattice.size
    images = group.generator_images
    wv_cache = {}
    out = []
    for chi in group.characters():
        if chi.is_trivial:
            out.append((chi, group.field.zero()))
            continue
        exps = [group.char_exponent(chi, images[v]) for v in range(n)]
        vstar = next(v for v in range(n) if exps[v])
        wv = wv_cache.get(vstar)
        if wv is None:
            wv = weight_vector(lattice, vstar)
            wv_cache[vstar] = wv
        out.append((chi, _product_from_exponents(lattice, group, exps, wv)))
    return out


def torsion_table(lattice: LatticeData, group: FinAbGroup) -> TorsionTable:
    """All Fourier coefficients of the torsion of the canonical structure.

    Entry at chi is the regularized vertex product at chi; the trivial
    character contributes 0.  t_at_1 averages the entries and must come out
    rational (a Galois-stability fact, asserted by construction).
    """
    entries = dict(_transform_values(lattice, group))
    return TorsionTable(entries=entries,
                        t_at_1=fourier_average(group, entries.items(), group.identity))


def swiden_consistency(lattice: LatticeData, group: FinAbGroup,
                       h_sigma: GroupElement = None) -> bool:
    """Exhaustive check of the two torsion/quadratic-function identities.

    (a) T(1) - T(g) - T(h) + T(g+h) = -b_M(g, h) mod Z for all g, h;
    (b) h -> T(1) - T(h) equals the quadratic function of the structure mod Z.
    """
    if h_sigma is None:
        h_sigma = group.identity
    torsion = torsion_table(lattice, group).invert(group)
    elements = list(group.elements())
    # the structure h_sigma * sigma_can has torsion h -> T(h_sigma + h)
    tfun = {h: torsion[group.add(h_sigma, h)] for h in elements}
    t0 = tfun[group.identity]

    bmat = linking_matrix(lattice, group)
    for g in elements:
        tg = tfun[g]
        for h in elements:
            lhs = t0 - tg - tfun[h] + tfun[group.add(g, h)]
            if (lhs + linking_pairing(bmat, g, h)) % 1 != 0:
                return False
    for h in elements:
        if (t0 - tfun[h] - spinc_quadratic(lattice, group, h_sigma, h)) % 1 != 0:
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
