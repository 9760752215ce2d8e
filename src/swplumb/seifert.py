"""Seifert fibered rational homology spheres over the 2-sphere.

Normalized data (b; (alpha_i, omega_i)) with any number of arms (fewer than
three give lens spaces); the star plumbing graph comes from negative continued
fractions.  Closed forms for the Casson-Walker invariant and the canonical-cycle
invariant, the eta-invariant route to the monopole count, and the arm-level
shortcut for the torsion.  The data's rationals and the closed forms are integers
over one denominator (L = lcm(alpha_i), the Dedekind sums as `dr_sum_parts` pairs),
with one Fraction per returned value; their Fraction forms are oracles in `reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from .dedekind import dr_sum_parts
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
        if self.E >= 0:
            raise ValueError(f"orbifold Euler number {self.e} must be negative")

    @property
    def nu(self) -> int:
        return len(self.arms)

    @cached_property
    def alpha(self) -> int:
        """L = lcm(alpha_i), the denominator of e and kappa."""
        return lcm(*(a for a, _ in self.arms))

    @cached_property
    def E(self) -> int:
        """e * L = b L + sum omega_i L / alpha_i."""
        L = self.alpha
        return self.b * L + sum(w * (L // a) for a, w in self.arms)

    @cached_property
    def K(self) -> int:
        """kappa * L = -2L + sum (L - L / alpha_i)."""
        L = self.alpha
        return -2 * L + sum(L - L // a for a, _ in self.arms)

    @cached_property
    def e(self) -> Fraction:
        return Fraction(self.E, self.alpha)

    @cached_property
    def kappa(self) -> Fraction:
        return Fraction(self.K, self.alpha)

    @cached_property
    def dedekind_total(self) -> Fraction:
        """sum s(omega_i, alpha_i), shared by the closed forms.  Absorbing b into one arm
        gives beta_i = -omega_i mod alpha_i, whose s(beta_i, alpha_i) total minus this."""
        return Fraction(*_sum_parts(dr_sum_parts(w, a) for a, w in self.arms))

    @cached_property
    def chains(self):
        """The negative continued fraction of alpha_i / omega_i, one per arm."""
        return tuple(hj_expand(a, w) for a, w in self.arms)

    @cached_property
    def n0(self) -> int:
        """floor(kappa / 2e) = K // 2E."""
        return self.K // (2 * self.E)

    @cached_property
    def rho0(self) -> Fraction:
        """{kappa / 2e} = (K - 2E n0) / 2E."""
        return Fraction(self.K - 2 * self.E * self.n0, 2 * self.E)

    @cached_property
    def gammas(self):
        """Orbit data of the canonical representative: gamma_i / alpha_i = {n0 w_i / a_i}."""
        return tuple(self.n0 * w % a for a, w in self.arms)

    @cached_property
    def omega_inverses(self):
        return tuple(pow(w, -1, a) for a, w in self.arms)

    @cached_property
    def order_h(self) -> int:
        """prod(alpha_i) |e|; L divides prod(alpha_i)."""
        return -self.E * (prod(a for a, _ in self.arms) // self.alpha)


def _sum_parts(parts):
    """sum n / d over integer pairs (n, d), d > 0, as one unreduced pair."""
    num, den = 0, 1
    for n, d in parts:
        num, den = num * d + n * den, den * d
    return num, den


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
    """Casson-Walker invariant from the Seifert data alone:
    -(|H| / 24) ((2 - nu + sum 1/alpha_i^2) / e + e + 3 - 12 sum s(omega_i, alpha_i)),
    over L E S with e = E / L and the Dedekind total over S."""
    L, E, s = data.alpha, data.E, data.dedekind_total
    squares = (2 - data.nu) * L * L + sum((L // a) ** 2 for a, _ in data.arms)
    total = (squares + E * E + 3 * L * E) * s.denominator - 12 * L * E * s.numerator
    return Fraction(-data.order_h * total, 24 * L * E * s.denominator)


def seifert_k2nv(data: SeifertData) -> Fraction:
    """Canonical-cycle invariant K^2 + #vertices from the Seifert data alone:
    kappa^2 / e + e + 5 - 12 sum s(omega_i, alpha_i), with 2 - nu + sum 1/alpha_i = -kappa."""
    L, E, K, s = data.alpha, data.E, data.K, data.dedekind_total
    total = (K * K + E * E + 5 * L * E) * s.denominator - 12 * L * E * s.numerator
    return Fraction(total, L * E * s.denominator)


# ---------------------------------------------------------------------------
# Eta-invariant route to the monopole count
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KSReport:
    """Eta-invariant combination and the finite monopole count, when usable.

    `ks` is one Fraction built from integer parts; `reference.ks_route_scaled`
    and `reference.ks_invariant_fractions` are its oracles."""

    ks: Fraction
    plus: int           # bundle multiples counted with small negative degree shift
    minus: int          # and with small positive shift
    applicable: bool
    sw0_ks: Fraction | None


def _ks_invariant(data: SeifertData) -> Fraction:
    """e + 1 - 4 e rho (1 - rho) + 4 nu rho - 4 sum s(omega_i, alpha_i)
    - 8 sum s(omega_i, alpha_i; (gamma_i + rho omega_i) / alpha_i, -rho) + 4 tail,
    rho = rho0 = R / N: all but the Dedekind sums over 2 L N^2, the tail over 2 L N,
    the sums as `dr_sum_parts` pairs; one Fraction of the whole."""
    L, E, K = data.alpha, data.E, data.K
    R, N = data.rho0.numerator, data.rho0.denominator
    rows = [(a, w, g, r * g % a) for (a, w), g, r in
            zip(data.arms, data.gammas, data.omega_inverses)]
    if R:       # (2 + kappa) / 2 (1 - 2 rho) - sum ((r g mod a) + rho) / a
        tail = ((2 * L + K) * (N - 2 * R)
                - 2 * sum((m * N + R) * (L // a) for a, _, _, m in rows))
    else:       # - sum ((r g / a)), N = 1
        tail = -sum((2 * m - a) * (L // a) for a, _, _, m in rows if m)
    rest = 2 * N * N * (E + L) - 8 * E * R * (N - R) + 8 * data.nu * R * L * N + 4 * N * tail
    s = data.dedekind_total
    parts = [(rest, 2 * L * N * N), (-4 * s.numerator, s.denominator)]
    for a, w, g, _ in rows:
        n, d = dr_sum_parts(w, a, g * N + R * w, -R * a, a * N)
        parts.append((-8 * n, d))
    return Fraction(*_sum_parts(parts))


def ks_route(data: SeifertData) -> KSReport:
    """Monopole count through the eta-invariant formula, when the metric is usable.

    Walks the bundle multiples j with 0 < |j*e - kappa/2| <= kappa/2 and
    counts, on each side of kappa/2, those of nonnegative degree.  The route
    applies when rho0 is nonzero and every counted degree is 0 (each selected
    component is zero dimensional); only the two counts and that flag are kept.

    With E = e*L < 0 and K = kappa*L integers (L = lcm(alpha_i)), the degree is
    deg(j) = j*b + sum floor(j*w_i / a_i), which is
    (j*E - sum ((j*w_i) mod a_i) L/a_i) / L, on the plus side, n0 = K // 2E < j <= 0,
    and -2 - deg(j) on the minus side, K/E <= j < K/2E: there K - j*E - sum
    ((a_i - 1 - j*w_i) mod a_i) L/a_i = -2L - L*deg, because K = -2L + sum (L - L/a_i).
    Cost: kappa/(2|e|) integer steps per side in constant memory, with no cap.
    `reference.ks_route_scaled`, the walk over L-scaled degrees, is its oracle.
    """
    counts, zero_dim = [0, 0], True
    E, K = data.E, data.K
    if K > 0:
        b, arms = data.b, data.arms
        # j*e in [0, kappa/2): negative shift; j*e in (kappa/2, kappa]: positive
        plus = range(data.n0 + 1, 1)
        minus = range(-(-K // E), -(-K // (2 * E)))
        for side, js in enumerate((plus, minus)):
            for j in js:
                deg = j * b + sum(j * w // a for a, w in arms)
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
    sw0_ks = None
    if applicable:
        sw0_ks = Fraction(ks.numerator + 8 * sum(counts) * ks.denominator, 8 * ks.denominator)
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
