"""Seifert fibered rational homology spheres over the 2-sphere.

Normalized data (b; (alpha_i, omega_i)) with any number of arms (fewer than
three give lens spaces); the star plumbing graph comes from negative continued
fractions.  Closed forms for the Casson-Walker invariant and the canonical-cycle
invariant, the eta-invariant route to the monopole count, and the arm-level
shortcut for the torsion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm, prod

from .dedekind import dedekind_symbol, dr_sum
from .errors import InternalInvariantViolated
from .exact import is_int
from .homology import FinAbGroup, GroupElement
from .plumbing import LatticeData, PlumbingGraph
from .torsion import orbit_table


def hj_expand(alpha: int, omega: int):
    """Negative continued fraction (entries >= 2) of alpha/omega, coprime 0 < omega < alpha."""
    if not (is_int(alpha) and is_int(omega)):
        raise ValueError(f"({alpha!r}, {omega!r}) is not a pair of integers")
    if not 0 < omega < alpha or gcd(alpha, omega) != 1:
        raise ValueError(f"need coprime 0 < {omega} < {alpha}")
    a, b = alpha, omega
    out = []
    while b > 0:
        q = -(-a // b)  # ceiling
        out.append(q)
        a, b = b, q * b - a
    # reconstruction check: the continuants of entries >= 2 are coprime
    num, den = 1, 0
    for c in reversed(out):
        num, den = c * num - den, num
    if (num, den) != (alpha, omega):
        raise InternalInvariantViolated("continued fraction reconstruction failed")
    return out


@dataclass(frozen=True)
class SeifertData:
    """Normalized invariants (b; (alpha_i, omega_i)), orbifold Euler number < 0."""

    b: int
    arms: tuple

    def __init__(self, b, arms):
        if not is_int(b):
            raise ValueError(f"central Euler number {b!r} is not an integer")
        arms = tuple((a, w) for a, w in arms)
        for a, w in arms:
            if not (is_int(a) and is_int(w)):
                raise ValueError(f"arm ({a!r}, {w!r}) is not a pair of integers")
            if a < 2:
                raise ValueError(f"arm order {a} must be at least 2")
            if not (0 <= w < a):
                raise ValueError(f"arm rotation {w} must lie in [0, {a})")
            if gcd(a, w) != 1:
                raise ValueError(f"arm ({a},{w}) is not coprime")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "arms", arms)
        if self.e >= 0:
            raise ValueError(f"orbifold Euler number {self.e} must be negative")

    @property
    def nu(self) -> int:
        return len(self.arms)

    @cached_property
    def e(self) -> Fraction:
        return Fraction(self.b) + sum(Fraction(w, a) for a, w in self.arms)

    @cached_property
    def alpha(self) -> int:
        return lcm(*(a for a, _ in self.arms))

    @cached_property
    def dedekind_total(self) -> Fraction:
        """sum s(omega_i, alpha_i), shared by the closed forms.  Absorbing b into one arm
        gives beta_i = -omega_i mod alpha_i, whose s(beta_i, alpha_i) total minus this."""
        return sum((dr_sum(w, a) for a, w in self.arms), Fraction(0))

    @cached_property
    def chains(self):
        """The negative continued fraction of alpha_i / omega_i, one per arm."""
        return tuple(hj_expand(a, w) for a, w in self.arms)

    @cached_property
    def kappa(self) -> Fraction:
        return Fraction(-2) + sum(1 - Fraction(1, a) for a, _ in self.arms)

    @cached_property
    def rho0(self) -> Fraction:
        return (self.kappa / (2 * self.e)) % 1

    @cached_property
    def n0(self) -> int:
        return floor(self.kappa / (2 * self.e))

    @cached_property
    def gammas(self):
        """Orbit data of the canonical representative: gamma_i / alpha_i = {n0 w_i / a_i}."""
        return tuple(self.n0 * w % a for a, w in self.arms)

    @cached_property
    def omega_inverses(self):
        return tuple(pow(w, -1, a) for a, w in self.arms)

    @cached_property
    def order_h(self) -> int:
        value = prod(a for a, _ in self.arms) * abs(self.e)
        if value.denominator != 1:
            raise InternalInvariantViolated("group order must be an integer")
        return int(value)


def star_graph(data: SeifertData) -> PlumbingGraph:
    """Star-shaped plumbing: central vertex b, arm i the chain of -b_ij."""
    vertices = [("c", data.b)]
    edges = []
    for i, chain in enumerate(data.chains):
        prev = "c"
        for j, c in enumerate(chain):
            vid = f"a{i}v{j}"
            vertices.append((vid, -c))
            edges.append((prev, vid))
            prev = vid
    return PlumbingGraph(vertices, edges)


def star_vertex_ids(data: SeifertData):
    """(center id, arm-end ids...) in the layout used by star_graph."""
    return ("c",) + tuple(f"a{i}v{len(chain) - 1}" for i, chain in enumerate(data.chains))


def chain_graph(eulers) -> PlumbingGraph:
    """Linear plumbing v0 - v1 - ... with the given Euler numbers."""
    vertices = [(f"v{j}", e) for j, e in enumerate(eulers)]
    edges = [(f"v{j}", f"v{j+1}") for j in range(len(eulers) - 1)]
    return PlumbingGraph(vertices, edges)


def lens_chain(p: int, q: int) -> PlumbingGraph:
    """Linear plumbing of the lens space: the chain of -b_j with p/q = [[b_1,...]].

    `hj_expand` rejects p, q unless they are coprime ints with 0 < q < p.
    """
    return chain_graph([-c for c in hj_expand(p, q)])


def seifert_casson_walker(data: SeifertData) -> Fraction:
    """Casson-Walker invariant from the Seifert data alone."""
    e = data.e
    total = (2 - data.nu + sum(Fraction(1, a * a) for a, _ in data.arms)) / e
    total += e + 3 - 12 * data.dedekind_total
    return Fraction(-data.order_h, 24) * total


def seifert_k2nv(data: SeifertData) -> Fraction:
    """Canonical-cycle invariant K^2 + #vertices from the Seifert data alone."""
    e = data.e
    s = 2 - data.nu + sum(Fraction(1, a) for a, _ in data.arms)
    return s * s / e + e + 5 - 12 * data.dedekind_total


# ---------------------------------------------------------------------------
# Eta-invariant route to the monopole count
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KSReport:
    """Eta-invariant combination and the finite monopole count, when usable."""

    ks: Fraction
    plus: int           # bundle multiples counted with small negative degree shift
    minus: int          # and with small positive shift
    applicable: bool
    sw0_ks: Fraction | None


def _ks_invariant(data: SeifertData) -> Fraction:
    e, nu, rho0 = data.e, data.nu, data.rho0
    total = e + 1 - 4 * e * rho0 * (1 - rho0) + 4 * nu * rho0 - 4 * data.dedekind_total
    for (a, w), g in zip(data.arms, data.gammas):
        total -= 8 * dr_sum(w, a, Fraction(g + rho0 * w, a), -rho0)
    if rho0 == 0:
        tail = -sum(dedekind_symbol(Fraction(r * g, a))
                    for (a, _), g, r in zip(data.arms, data.gammas, data.omega_inverses))
    else:
        tail = (2 + data.kappa) / 2 * (1 - 2 * rho0)
        tail -= sum(Fraction((r * g) % a + rho0, a) % 1
                    for (a, _), g, r in zip(data.arms, data.gammas, data.omega_inverses))
    return total + 4 * tail


def ks_route(data: SeifertData) -> KSReport:
    """Monopole count through the eta-invariant formula, when the metric is usable.

    Walks the bundle multiples j with 0 < |j*e - kappa/2| <= kappa/2 and
    counts, on each side of kappa/2, those of nonnegative degree.  The route
    applies when rho0 is nonzero and every counted degree is 0 (each selected
    component is zero dimensional); only the two counts and that flag are kept.

    The degrees are integers scaled by L = lcm(alpha_i), so that E = e*L < 0
    and K = kappa*L are integers.  With L*deg = j*E - sum ((j*w_i) mod a_i) L/a_i,
    the degree is deg on the plus side, n0 = K // 2E < j <= 0, and -2 - deg on
    the minus side, K/E <= j < K/2E: there K - j*E - sum ((a_i - 1 - j*w_i) mod
    a_i) L/a_i = -2L - L*deg, because K = -2L + sum (L - L/a_i).  Cost:
    kappa/(2|e|) integer steps per side in constant memory, with no cap.
    """
    e, kappa = data.e, data.kappa
    counts, zero_dim = [0, 0], True
    if kappa > 0:
        L = data.alpha
        E, K = int(e * L), int(kappa * L)
        arms = [(a, w, L // a) for a, w in data.arms]
        # j*e in [0, kappa/2): negative shift; j*e in (kappa/2, kappa]: positive
        plus = range(data.n0 + 1, 1)
        minus = range(-(-K // E), -(-K // (2 * E)))
        for side, js in enumerate((plus, minus)):
            for j in js:
                deg, rest = divmod(j * E - sum(j * w % a * s for a, w, s in arms), L)
                if rest:
                    raise InternalInvariantViolated("smooth degree must be an integer")
                if side:
                    deg = -2 - deg
                if deg >= 0:
                    counts[side] += 1
                    zero_dim = zero_dim and deg == 0
    ks = _ks_invariant(data)
    # rho0 = 0 would need the positive-curvature branch, which only spherical
    # bases could certify -- and normalized three-arm spherical data never has
    # rho0 = 0 (the patterns (2,2,n), (2,3,3), (2,3,4), (2,3,5) all fail
    # integrality), while lens spaces (at most two arms) can.  The torsion
    # route is the fallback.
    applicable = data.rho0 != 0 and zero_dim
    sw0_ks = ks / 8 + sum(counts) if applicable else None
    return KSReport(ks=ks, plus=counts[0], minus=counts[1],
                    applicable=applicable, sw0_ks=sw0_ks)


# ---------------------------------------------------------------------------
# Arm-level torsion shortcut
# ---------------------------------------------------------------------------

def seifert_torsion_shortcut(data: SeifertData, lattice: LatticeData,
                             group: FinAbGroup, h_sigma: GroupElement = None) -> Fraction:
    """Torsion at h_sigma using only the central and arm-end generators.

    Factors (chi(g_center), nu - 2, alpha) and (chi(g_end_i), -1, alpha/alpha_i),
    with the weights read off the Seifert data, go through the same orbit
    table as the generic route; must agree with it on every star graph.
    """
    images = [group.generator_images[lattice.index_of(i)] for i in star_vertex_ids(data)]
    powers = [(data.nu - 2, data.alpha)] + [(-1, data.alpha // a) for a, _ in data.arms]

    def factors_of(exps):
        return [(e, p, w) for e, (p, w) in zip(exps, powers)]

    return orbit_table(group.invariant_factors, images, factors_of).at(h_sigma or group.identity)
