"""First homology of the plumbed manifold: group, characters, linking form.

H is the cokernel of the intersection matrix, kept in invariant-factor
coordinates.  The meridian classes g_v (one per vertex) generate H and bridge
group language and graph language; characters are exponent tuples evaluated
as powers of a fixed primitive root of unity of order exp(H).

The group is read off the sparse Smith elimination of I (`exact.smith_elimination`)
without forming U, V or the dense I: the meridian images U[kept] mod d_i and
one lift column per generator come from the row and column logs, replayed
backwards once mod |det I| and |det I| exp(H).  Both are certified against I
itself and kept; the logs are dropped.  The Gauss-sum check of the quadratic
function is `reference.gauss_sum_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import lcm, prod

from .errors import InternalInvariantViolated, OrderCapExceeded
from .exact import is_int, replay_backward, smith_elimination
from .plumbing import LatticeData

DEFAULT_ORDER_CAP = 10 ** 6

GroupElement = tuple


@dataclass(frozen=True)
class Character:
    """A character of H, as an exponent tuple against the invariant factors."""

    exponents: tuple

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)


class FinAbGroup:
    """Finite abelian group in invariant-factor form: certified data only.

    The meridian images are the kept rows of the Smith transform U, reduced
    mod d_i.  Lift column i is an integer vector in the dual vertex basis whose
    class is the i-th generator; `lift` combines the columns.
    """

    def __init__(self, invariant_factors, generator_images, lift_columns):
        self.invariant_factors = tuple(invariant_factors)
        self.generator_images = tuple(generator_images)
        self.lift_columns = tuple(lift_columns)
        self.order = prod(self.invariant_factors) if self.invariant_factors else 1
        self.exponent = self.invariant_factors[-1] if self.invariant_factors else 1

    # -- structure -------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def identity(self) -> GroupElement:
        return (0,) * self.rank

    @property
    def field(self):
        """Q(zeta_exp(H)) of the reference arithmetic; the report path never builds it."""
        from .reference import cyclotomic_field
        return cyclotomic_field(self.exponent)

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariant_factors))

    def neg(self, a: GroupElement) -> GroupElement:
        return tuple((-x) % d for x, d in zip(a, self.invariant_factors))

    def scale(self, c: int, a: GroupElement) -> GroupElement:
        return tuple((c * x) % d for x, d in zip(a, self.invariant_factors))

    def elements(self):
        """All elements, lexicographic."""
        return iproduct(*(range(d) for d in self.invariant_factors))

    # -- characters --------------------------------------------------------------

    def characters(self, _cap=None, /):
        """All |H| characters, lexicographic in exponent tuples, trivial first.

        The |H| cap was checked when the group was built.  The positional
        argument is ignored; it is accepted because bench/run.py still passes
        the group order here.
        """
        return map(Character, self.elements())

    def char_exponent(self, chi: Character, h: GroupElement) -> int:
        """e with chi(h) = zeta^e, zeta the fixed primitive exp(H)-th root."""
        n = self.exponent
        total = 0
        for k, x, d in zip(chi.exponents, h, self.invariant_factors):
            if k and x:
                total += (n // d) * k * x
        return total % n

    # -- lifting between H and the vertex lattice ---------------------------------

    def class_of_vector(self, vec) -> GroupElement:
        """Class in H of an integer vector written in the dual vertex basis."""
        total = [0] * self.rank
        for x, image in zip(vec, self.generator_images):
            if x:
                total = [t + x * y for t, y in zip(total, image)]
        return tuple(t % d for t, d in zip(total, self.invariant_factors))

    def lift(self, h: GroupElement):
        """An integer vector in the dual vertex basis whose class is h: the columns combined by h.

        Column i is U^{-1} e_i = I V e_i / d_i mod |det I|, up to columns of I,
        so its entries do not grow with the elimination.  Every reader of a
        lift is a mod-1 invariant, the same whichever lift it gets.
        """
        return tuple(sum(x * column[v] for x, column in zip(h, self.lift_columns) if x)
                     for v in range(len(self.generator_images)))

    def __repr__(self):
        return f"FinAbGroup({list(self.invariant_factors)})"


def _lift_columns(lattice: LatticeData, col_ops, kept, factors):
    """I V e_i / d_i for the kept i, with the division checked.

    The columns of V come from the column log, run backwards mod |det I| exp(H),
    so the quotients are right mod |det I|.
    """
    if not kept:
        return []
    v = replay_backward(col_ops, lattice.size, kept, lattice.order_h * factors[-1])
    columns = []
    for s, (i, d) in enumerate(zip(kept, factors)):
        image = lattice.times(v[s])
        if any(x % d for x in image):
            raise InternalInvariantViolated(f"I V e_{i} is not divisible by d_{i} = {d}")
        columns.append([x // d for x in image])
    return columns


def homology_from_lattice(lattice: LatticeData, *,
                          max_order: int = DEFAULT_ORDER_CAP) -> FinAbGroup:
    """H = coker(I) via the sparse Smith elimination, with the meridian images and lifts.

    |H| = |det I| bounds every enumeration downstream, so the cap, a positive
    int, is checked here, before the elimination: a group over the cap is never
    built.  The images are the kept rows of U mod d_i, from the row log mod
    N = |det I|; the lift columns I V e_i / d_i, from the column log mod N exp(H),
    are right mod N, and N e_v = I(-adj(-I) e_v) dies in H.  Both are certified
    without the logs: every column of I dies in H, each generator is the class
    of its lift column, and prod d_i = N, so the images give an isomorphism
    from coker(I).
    """
    if not is_int(max_order) or max_order < 1:
        raise ValueError(f"max_order={max_order!r} is not a positive integer")
    order = lattice.order_h
    if order > max_order:
        raise OrderCapExceeded(order, max_order)
    log = smith_elimination(lattice.sparse_rows(), lattice.size)
    diag = log.diagonal
    if 0 in diag:
        raise InternalInvariantViolated("intersection matrix is singular")
    kept = [i for i, d in enumerate(diag) if d > 1]
    factors = [diag[i] for i in kept]
    rows = replay_backward(log.row_ops, lattice.size, kept, order)
    images = list(zip(*([x % d for x in row] for row, d in zip(rows, factors)))) if kept \
        else [()] * lattice.size
    group = FinAbGroup(factors, images, _lift_columns(lattice, log.col_ops, kept, factors))
    if group.order != order:
        raise InternalInvariantViolated(f"|H| = {group.order} but |det I| = {order}")
    for column, d in zip(zip(*group.generator_images), factors):
        if any(x % d for x in lattice.times(column)):
            raise InternalInvariantViolated(f"a column of I does not die in Z/{d}")
    for s, column in enumerate(group.lift_columns):
        if group.class_of_vector(column) != tuple(int(j == s) for j in range(group.rank)):
            raise InternalInvariantViolated(f"generator {s} is not the class of its lift")
    return group


# ---------------------------------------------------------------------------
# Linking form and quadratic functions
# ---------------------------------------------------------------------------

def _pairing(lattice: LatticeData, a_vec, b_vec) -> Fraction:
    """The rational extension (a, b) = a^T I^{-1} b = -(a . adj(-I) b) / |det I|."""
    total = sum(av * y for av, y in zip(a_vec, lattice.solve(b_vec)) if av)
    return Fraction(-total, lattice.order_h)


def linking_form(lattice: LatticeData, group: FinAbGroup,
                 a: GroupElement, b: GroupElement) -> Fraction:
    """b_M(a, b) in [0, 1): minus the rational pairing of any two lifts, mod 1."""
    return (-_pairing(lattice, group.lift(a), group.lift(b))) % 1


def linking_matrix(lattice: LatticeData, group: FinAbGroup):
    """b_M on the invariant-factor generators; a small k x k table."""
    k = group.rank
    gens = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    return tuple(tuple(linking_form(lattice, group, gi, gj) for gj in gens)
                 for gi in gens)


def linking_rows(lattice: LatticeData, group: FinAbGroup, den: int = 1):
    """The linking form in integers: (D, row), row(g) = [D b_M(g, h) mod D for h in H].

    D is the lcm of `den` and the denominators of the linking matrix, so a
    caller scales its own rationals by D and compares in integers.  The h run
    over `group.elements()`.
    """
    bmat = linking_matrix(lattice, group)
    den = lcm(den, *(b.denominator for r in bmat for b in r))
    bcols = list(zip(*([b.numerator * (den // b.denominator) for b in r] for r in bmat)))
    elements = list(group.elements())

    def row(g):
        gb = [sum(x * bj for x, bj in zip(g, col)) for col in bcols]
        return [sum(x * y for x, y in zip(gb, h)) % den for h in elements]

    return den, row


def _quadratic(lattice: LatticeData, d, shift) -> Fraction:
    """-(1/2)(d + shift, d) mod 1 at a lift d: the one formula of the quadratic functions."""
    return (-Fraction(1, 2) * _pairing(lattice, [x + y for x, y in zip(d, shift)], d)) % 1


def q_can(lattice: LatticeData, group: FinAbGroup, h: GroupElement,
          lift=None) -> Fraction:
    """The canonical quadratic function at h, in [0, 1).

    Pick any lift d of h; the value -(1/2)(d + k, d) mod 1 does not depend on
    the choice (k is the characteristic vector -e_v - 2).
    """
    return _quadratic(lattice, group.lift(h) if lift is None else lift, lattice.k_vec)


def spinc_quadratic(lattice: LatticeData, group: FinAbGroup,
                    h_sigma: GroupElement, h: GroupElement) -> Fraction:
    """The quadratic function attached to the spin^c structure h_sigma * sigma_can.

    Value -(1/2)(d + 2 lift(h_sigma) - k, d) mod 1 at a lift d of h.  The
    canonical structure's function is the pullback of q_can by negation:
    spinc_quadratic(0, h) == q_can(-h).
    """
    hs = group.lift(h_sigma)
    return _quadratic(lattice, group.lift(h), [2 * y - kv for y, kv in zip(hs, lattice.k_vec)])


def spinc_canonical_class(lattice: LatticeData, group: FinAbGroup) -> GroupElement:
    """c(sigma_can): the class of the vector (e_v + 2)_v in H."""
    return group.class_of_vector(lattice.z)


def spinc_conjugate(lattice: LatticeData, group: FinAbGroup,
                    h_sigma: GroupElement) -> GroupElement:
    """Offset of the conjugate structure: -h_sigma - c(sigma_can)."""
    c = spinc_canonical_class(lattice, group)
    return group.neg(group.add(h_sigma, c))
