"""Slow reference implementations, the oracles of `verify` and the tests.

The report path imports nothing from here but the field of `FinAbGroup.field`,
which the traced bench run reads, and nothing here but `IntMatrix` comes from
`exact` (`tests/test_stdlib_only.py` checks both).
Elements of Q(zeta_N) are integer coefficient vectors over a common
denominator, reduced modulo the N-th cyclotomic polynomial; `CycNum` has +, *
and == only, and 1/(zeta^a - 1), the one inverse `regularized_product` needs,
has a closed form in `CyclotomicField.inv_root_minus_one`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, isqrt, lcm, prod

from .dedekind import check_args, dedekind_symbol, dr_sum
from .errors import (ConductorMismatch, InternalInvariantViolated, InvalidBaseVertex,
                     NotRational, OrderCapExceeded, SingularMatrix)
from .exact import IntMatrix
from .homology import Character, FinAbGroup, q_can
from .plumbing import LatticeData
from .seifert import KSReport, SeifertData
from .torsion import WeightVector, orbit_table, prime_divisors


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V unimodular and D diagonal, d1 | d2 | ... ."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n))


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form over Z by dense elimination, with U and V: the exact oracle.

    Total on any integer matrix; zero diagonal entries come last.  It shares no
    code with `exact.smith_elimination` but makes the same choices in the same
    order, so U, D and V equal its log's.  Row operations on the top r rows of
    [[A, I_r], [I_c, 0]] carry U, and column operations on its left c columns, V.
    """
    r, c = A.rows, A.cols
    m = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(A.entries)]
    m += [[int(i == j) for j in range(c)] + [0] * r for i in range(c)]

    def add_col(a, b, q):   # col[a] += q * col[b]
        for row in m:
            row[a] += q * row[b]

    def swap_cols(a, b):
        for row in m:
            row[a], row[b] = row[b], row[a]

    for t in range(min(r, c)):
        least = min(((abs(m[i][j]), i, j) for i in range(t, r) for j in range(t, c) if m[i][j]),
                    default=None)
        if least is None:
            break
        _, pi, pj = least
        m[t], m[pi] = m[pi], m[t]
        swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, r):       # row[i] += q * row[t]
                q = -(m[i][t] // m[t][t])
                m[i] = [x + q * y for x, y in zip(m[i], m[t])]
                if m[i][t]:                 # remainder beats the pivot; swap it in
                    m[t], m[i] = m[i], m[t]
                    dirty = True
            if not dirty:                   # then col[j] += q * col[t]
                for j in range(t + 1, c):
                    add_col(j, t, -(m[t][j] // m[t][t]))
                    if m[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            bad = [j for i in range(t + 1, r) for j in range(t + 1, c) if m[i][j] % m[t][t]]
            if not bad:     # the pivot divides the block below it
                break
            add_col(t, bad[0], 1)
    for i, row in enumerate(m[:min(r, c)]):     # the final sign fix, a row operation
        row[:] = [-x for x in row] if row[i] < 0 else row
    return SmithDecomposition(IntMatrix([row[c:] for row in m[:r]]),
                              IntMatrix([row[:c] for row in m[:r]]),
                              IntMatrix([row[:c] for row in m[r:]]))


def invert_rational_matrix(A: IntMatrix):
    """Exact inverse of a nonsingular integer matrix, as Fraction rows.

    Raises SingularMatrix when det A = 0.
    """
    if not A.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = A.rows
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A.entries)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            raise SingularMatrix("matrix is singular")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                mi, mk = m[i], m[k]
                m[i] = [a - f * b for a, b in zip(mi, mk)]
    return tuple(tuple(row[n:]) for row in m)


def adjugate_inverse(A: IntMatrix):
    """Inverse via cofactor expansion; an independent O(n!) oracle for tests."""
    if not A.is_square:
        raise ValueError("non-square")
    n = A.rows

    def minor_det(rows, skip_r, skip_c):
        sub = [[row[j] for j in range(n) if j != skip_c]
               for i, row in enumerate(rows) if i != skip_r]
        return _recursive_det(sub)

    d = _recursive_det([list(r) for r in A.entries])
    if d == 0:
        raise SingularMatrix("matrix is singular")
    if n == 1:
        return ((Fraction(1, d),),)
    return tuple(
        tuple(Fraction((-1) ** (i + j) * minor_det(A.entries, j, i), d)
              for j in range(n))
        for i in range(n)
    )


def _recursive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
            total += (-1) ** j * x * _recursive_det(sub)
    return total


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and fields
# ---------------------------------------------------------------------------

def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (den monic up to sign)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    q = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        coef = num[k]
        if coef % lead:
            raise ArithmeticError("non-exact polynomial division")
        f = coef // lead
        q[k - dd] = f
        if f:
            for i, d in enumerate(den):
                num[k - dd + i] -= f * d
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients of the n-th cyclotomic polynomial, ascending powers.

    Computed by exact division of x^n - 1 by the product of Phi_d over the
    proper divisors d of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_int(num, cyclotomic_polynomial(d))
    return tuple(num)


class CyclotomicField:
    """The field Q(zeta_N), modelled as Q[x] modulo the N-th cyclotomic polynomial."""

    def __init__(self, conductor: int):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor
        self.modulus = cyclotomic_polynomial(conductor)
        self.degree = len(self.modulus) - 1
        d = self.degree
        # x^k mod Phi_N for 0 <= k < max(N, 2d - 1): every root of unity, and
        # every power a product of two reduced vectors reaches, is one row
        base = [-c for c in self.modulus[:d]]  # x^d = -(lower part of Phi), Phi monic
        row = [1] + [0] * (d - 1)
        powers = []
        for _ in range(max(conductor, 2 * d - 1)):
            powers.append(tuple(row))
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                for i, b in enumerate(base):
                    row[i] += top * b
        self._powers = tuple(powers)
        self._rmo_inverse_cache = {}

    # -- element constructors ------------------------------------------------

    def zero(self) -> "CycNum":
        return CycNum(self, (0,) * self.degree, 1, _normalized=True)

    def one(self) -> "CycNum":
        return self.rational(1)

    def rational(self, q) -> "CycNum":
        q = Fraction(q)
        vec = [0] * self.degree
        vec[0] = q.numerator
        return CycNum(self, vec, q.denominator)

    def element(self, coeffs) -> "CycNum":
        """Element from rational coefficients in powers of zeta; powers are read mod N."""
        coeffs = [Fraction(c) for c in coeffs]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        raw = [0] * self.conductor
        for i, c in enumerate(coeffs):
            raw[i % self.conductor] += int(c * den)
        return CycNum(self, self._reduce(raw), den)

    def root_of_unity(self, a: int) -> "CycNum":
        """zeta_N ** a."""
        return CycNum(self, self._powers[a % self.conductor], 1, _normalized=True)

    def root_minus_one(self, a: int) -> "CycNum":
        """zeta_N**a - 1."""
        vec = list(self._powers[a % self.conductor])
        vec[0] -= 1
        return CycNum(self, vec, 1)

    def inv_root_minus_one(self, a: int) -> "CycNum":
        """(zeta_N**a - 1)**(-1), cached.

        Closed form: for x of multiplicative order k one has
        1/(x - 1) = -(1/k) * sum_{i=0}^{k-2} (k-1-i) x^i,
        since (t^k - 1)/(t - 1) vanishes at x and equals k at t = 1.
        """
        n = self.conductor
        a %= n
        if a == 0:
            raise ZeroDivisionError("zeta^0 - 1 is zero")
        # cached as (num, den): a cached CycNum points back at the field, and that
        # cycle keeps a dropped field and its power table alive until a full gc
        hit = self._rmo_inverse_cache.get(a)
        if hit is None:
            k = n // gcd(a, n)
            raw = [0] * n
            for i in range(k - 1):
                raw[(a * i) % n] = k - 1 - i
            value = CycNum(self, [-x for x in self._reduce(raw)], k)
            hit = self._rmo_inverse_cache[a] = (value.num, value.den)
        return CycNum(self, *hit, _normalized=True)

    def _reduce(self, conv):
        """sum_k conv[k] * x^k mod Phi_N, for len(conv) up to the power table's."""
        d = self.degree
        powers = self._powers
        out = conv[:d]
        for k in range(d, len(conv)):
            c = conv[k]
            if c:
                for i, t in enumerate(powers[k]):
                    if t:
                        out[i] += c * t
        return out

    def __repr__(self):
        return f"CyclotomicField({self.conductor})"


@lru_cache(maxsize=None)
def cyclotomic_field(conductor: int) -> CyclotomicField:
    """Memoized field constructor; one instance per conductor."""
    return CyclotomicField(conductor)


class CycNum:
    """Element of Q(zeta_N): integer coefficient vector over a positive denominator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num, den: int = 1, *, _normalized=False):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num = [-x for x in num]
            den = -den
        if not _normalized:
            g = den
            for x in num:
                if x:
                    g = gcd(g, x)
                    if g == 1:
                        break
            if g > 1:
                num = [x // g for x in num]
                den //= g
        self.field = field
        self.num = tuple(num)
        self.den = den

    # -- helpers ---------------------------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, CycNum):
            return None
        if other.field.conductor != self.field.conductor:
            raise ConductorMismatch(
                f"conductors {self.field.conductor} and {other.field.conductor}; "
                "embed into the lcm conductor first")
        return other

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return CycNum(self.field, [a + b for a, b in zip(self.num, o.num)], self.den)
        g = gcd(self.den, o.den)
        da, db = o.den // g, self.den // g
        return CycNum(self.field,
                      [a * da + b * db for a, b in zip(self.num, o.num)],
                      self.den * da)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycNum(self.field,
                          [x * q.numerator for x in self.num],
                          self.den * q.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        conv = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return CycNum(self.field, self.field._reduce(conv), self.den * o.den)

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises NotRational unless it lies in Q."""
        if any(self.num[1:]):
            raise NotRational(f"nonzero coefficients beyond the constant term: {self.num}")
        return Fraction(self.num[0], self.den)

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return (self.field.conductor == other.field.conductor
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.field.conductor, self.num, self.den))

    def __repr__(self):
        return f"CycNum(N={self.field.conductor}, {self.num}/{self.den})"


def regularized_product(lattice: LatticeData, group: FinAbGroup,
                        chi: Character, wv: WeightVector) -> CycNum:
    """Reference R(chi): the regularized vertex product, one element of Q(zeta_N).

    The base vertex must satisfy chi(g_v0) != 1 or have a neighbor u with
    chi(g_u) != 1; otherwise InvalidBaseVertex is raised.
    """
    if chi.is_trivial:
        raise ValueError("chi must be nontrivial")
    exps = [group.char_exponent(chi, g) for g in group.generator_images]
    if exps[wv.v0] == 0 and all(exps[u] == 0 for u in lattice.neighbors[wv.v0]):
        raise InvalidBaseVertex(
            f"vertex {wv.v0} and all its neighbors are fixed by the character")
    field, degrees = group.field, lattice.degrees
    order = sum(degrees[v] - 2 for v, e in enumerate(exps) if e == 0)
    if order > 0:
        return field.zero()
    if order < 0:
        raise InternalInvariantViolated(
            "negative regularization order; the limit would be infinite")
    value = field.one()
    for v, e in enumerate(exps):
        p = degrees[v] - 2
        if e == 0:
            value = value * Fraction(wv.w[v]) ** p
        elif p:
            factor = field.root_minus_one(e) if p > 0 else field.inv_root_minus_one(e)
            for _ in range(abs(p)):
                value = value * factor
    return value


GAUSS_ORDER_CAP = 500       # |H| bound of gauss_sum_check, whose cost grows like L phi(L)


def gauss_sum_check(lattice: LatticeData, group: FinAbGroup):
    """Both sides of sum_x e(q(x)) = sqrt|H| e((-n - (k,k))/8), exactly, in Q(zeta_L).

    The identity is van der Blij's and Milgram's: e(y) = exp(2 pi i y), q(x) =
    (1/2)(d + k, d) = -q_can(x) mod 1 for a lift d of x, k the characteristic
    vector -e_v - 2, n the number of vertices.  L is the lcm of the denominators
    involved, and each side is one integer vector in Z[x]/(x^L - 1): the left
    counts the values L q(x) mod L; sqrt|H| = s prod sqrt(p) for |H| =
    s^2 prod p, with sqrt 2 = zeta_8 + zeta_8^-1 and sqrt p = sum_a zeta_p^(a^2)
    for p = 1 mod 4, -i times that sum for p = 3 mod 4 (Gauss).  The cost is
    about L phi(L), so a group over GAUSS_ORDER_CAP is refused before any field.
    """
    if group.order > GAUSS_ORDER_CAP:
        raise OrderCapExceeded(group.order, GAUSS_ORDER_CAP)
    values = [-q_can(lattice, group, h) % 1 for h in group.elements()]
    k = lattice.k_vec      # (k, k) = k^T I^{-1} k = -(k . adj(-I) k) / |det I|
    kk = Fraction(-sum(x * y for x, y in zip(k, lattice.solve(k))), lattice.order_h)
    phase = Fraction(-lattice.size - kk, 8) % 1
    s = max(s for s in range(1, isqrt(group.order) + 1) if group.order % (s * s) == 0)
    r = group.order // (s * s)
    primes = prime_divisors(r)
    L = lcm(phase.denominator, *(v.denominator for v in values),
            *(8 if p == 2 else p * (4 if p % 4 == 3 else 1) for p in primes))
    lhs, rhs = [0] * L, [0] * L
    for v in values:
        lhs[v.numerator * (L // v.denominator)] += 1
    rhs[phase.numerator * (L // phase.denominator)] = s
    for p in primes:
        turn = 3 * L // 4 if p % 4 == 3 else 0      # -i = e(3/4)
        exps = (L // 8, -(L // 8)) if p == 2 else [a * a % p * (L // p) + turn for a in range(p)]
        rhs = [sum(rhs[(i - e) % L] for e in exps) for i in range(L)]
    field = cyclotomic_field(L)
    return field.element(lhs), field.element(rhs)


# ---------------------------------------------------------------------------
# Dedekind sums term by term; character sums against their Dedekind values
# ---------------------------------------------------------------------------

def dr_sum_direct(h: int, k: int, x=0, y=0) -> Fraction:
    """s(h, k; x, y) = sum_mu ((t)) ((h t + x)), t = (mu + y)/k, term by term: the oracle.

    No reciprocity.  Over M = k D, D the lcm of the shift denominators, both
    arguments are integers Z/M, and 2M ((Z/M)) = 2 (Z mod M) - M, or 0 when M | Z.
    """
    check_args(h, k, x, y)
    x, y = Fraction(x), Fraction(y)
    D = lcm(x.denominator, y.denominator)
    M = k * D
    X, Y = x.numerator * (D // x.denominator), y.numerator * (D // y.denominator)

    def saw(z):
        return 2 * (z % M) - M if z % M else 0

    total = sum(saw(mu * D + Y) * saw(h * (mu * D + Y) + k * X) for mu in range(k))
    return Fraction(total, 4 * M * M)


def _root_sum(p: int, t: int, factors) -> Fraction:
    """(1/p) sum_{j=1}^{p-1} zeta_p^(jt) prod (zeta_p^(ja) - 1)^k over the factors (a, k).

    The characters of Z/p are the j, with R(j) the product, so this is the
    torsion's read-out at -t: `orbit_table` takes one trace per Galois orbit,
    the j of one order d, as it does for `TorsionTable.at`.  A factor with
    d | a vanishes, and so does its orbit.
    """
    table = orbit_table((p,), [(a,) for a, _ in factors],
                        lambda exps: [(e, k, 1) for e, (_, k) in zip(exps, factors)])
    return table.at((-t % p,))


def fourier_identity_suite(p: int, q: int, t: int = 0):
    """Exact (lhs, rhs) pairs for the root-of-unity sums that reduce to Dedekind sums.

    Each lhs is a sum over the nontrivial p-th roots of unity, evaluated as
    rational traces over Galois orbits (`_root_sum`); each rhs is the matching
    closed form.  Returns a list of (name, lhs, rhs).
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    if gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    return [
        ("single_factor", -_root_sum(p, t, [(1, -1)]),     # 1/(1 - zeta) = -1/(zeta - 1)
         dedekind_symbol(Fraction(2 * t - 1, 2 * p))),
        ("double_factor_twisted", _root_sum(p, t, [(1, -1), (q, -1)]),
         -dr_sum(q, p, Fraction(q + 1 - 2 * t, 2 * p), Fraction(-1, 2))),
        ("double_factor", _root_sum(p, 0, [(1, -1), (q, -1)]),
         -dr_sum(q, p) + Fraction(p - 1, 4 * p)),
        ("absolute_square", _root_sum(p, 0, [(1, -1), (-1, -1)]),
         Fraction(p, 12) - Fraction(1, 12 * p)),
        # cot = (zeta + 1)/(zeta - 1) = (zeta^2 - 1)/(zeta - 1)^2
        ("cotangent_product", _root_sum(p, 0, [(2, 1), (1, -2), (2 * q, 1), (q, -2)]),
         -4 * dr_sum(q, p)),
    ]


# ---------------------------------------------------------------------------
# The Seifert closed forms and the eta route in Fractions
# ---------------------------------------------------------------------------

def seifert_fractions(data: SeifertData) -> dict:
    """e, kappa, n0, rho0, order_h and dedekind_total of `data` in Fractions, each from
    (b, arms) alone, keyed by the SeifertData attribute: the oracle of its integer forms."""
    e = Fraction(data.b) + sum(Fraction(w, a) for a, w in data.arms)
    kappa = Fraction(-2) + sum(1 - Fraction(1, a) for a, _ in data.arms)
    order = prod(a for a, _ in data.arms) * abs(e)
    if order.denominator != 1:
        raise InternalInvariantViolated("group order must be an integer")
    return {"e": e, "kappa": kappa, "n0": floor(kappa / (2 * e)),
            "rho0": (kappa / (2 * e)) % 1, "order_h": int(order),
            "dedekind_total": sum((dr_sum(w, a) for a, w in data.arms), Fraction(0))}


def seifert_casson_walker_fractions(data: SeifertData) -> Fraction:
    """`seifert.seifert_casson_walker` one Fraction operation at a time."""
    f = seifert_fractions(data)
    e = f["e"]
    total = (2 - data.nu + sum(Fraction(1, a * a) for a, _ in data.arms)) / e
    total += e + 3 - 12 * f["dedekind_total"]
    return Fraction(-f["order_h"], 24) * total


def seifert_k2nv_fractions(data: SeifertData) -> Fraction:
    """`seifert.seifert_k2nv` one Fraction operation at a time."""
    f = seifert_fractions(data)
    e = f["e"]
    s = 2 - data.nu + sum(Fraction(1, a) for a, _ in data.arms)
    return s * s / e + e + 5 - 12 * f["dedekind_total"]


def ks_invariant_fractions(data: SeifertData) -> Fraction:
    """The eta-invariant combination of `seifert.ks_route` one Fraction operation at a time."""
    f = seifert_fractions(data)
    e, rho0 = f["e"], f["rho0"]
    gammas = [f["n0"] * w % a for a, w in data.arms]
    inverses = [pow(w, -1, a) for a, w in data.arms]
    total = e + 1 - 4 * e * rho0 * (1 - rho0) + 4 * data.nu * rho0 - 4 * f["dedekind_total"]
    for (a, w), g in zip(data.arms, gammas):
        total -= 8 * dr_sum(w, a, Fraction(g + rho0 * w, a), -rho0)
    if rho0 == 0:
        tail = -sum(dedekind_symbol(Fraction(r * g, a))
                    for (a, _), g, r in zip(data.arms, gammas, inverses))
    else:
        tail = (2 + f["kappa"]) / 2 * (1 - 2 * rho0)
        tail -= sum(Fraction((r * g) % a + rho0, a) % 1
                    for (a, _), g, r in zip(data.arms, gammas, inverses))
    return total + 4 * tail


def ks_route_scaled(data: SeifertData) -> KSReport:
    """`seifert.ks_route` with each degree scaled by L = lcm(alpha_i) and checked to be
    an integer: L*deg = j*E - sum ((j*w_i) mod a_i) L/a_i, with E = e*L and K = kappa*L
    read from `data.e` and `data.kappa`; the minus side's degree is -2 - deg.  The
    invariant is `ks_invariant_fractions`."""
    e, kappa = data.e, data.kappa
    counts, zero_dim = [0, 0], True
    if kappa > 0:
        L = data.alpha
        E, K = int(e * L), int(kappa * L)
        arms = [(a, w, L // a) for a, w in data.arms]
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
    ks = ks_invariant_fractions(data)
    applicable = data.rho0 != 0 and zero_dim
    sw0_ks = ks / 8 + sum(counts) if applicable else None
    return KSReport(ks=ks, plus=counts[0], minus=counts[1],
                    applicable=applicable, sw0_ks=sw0_ks)
