"""Dedekind and Dedekind-Rademacher sums, with reciprocity-based fast evaluation.

The shifted sum s(h, k; x, y) is evaluated two ways: a direct O(k) summation
straight from the definition (the oracle), and one Euclid loop that alternates
argument reduction with the reciprocity law.  The loop works in integers: with
x = X/D and y = Y/D over the lcm D of the shift denominators, each reciprocity
step adds one integer fraction over 12 h k D^2 to a running numerator and
denominator, and one Fraction is built at the end.
Rational shifts only, given as int or Fraction; that is all the geometry ever
needs, and anything else is rejected rather than coerced.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exact import is_int
from .torsion import orbit_table

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def dedekind_symbol(x) -> Fraction:
    """((x)): the sawtooth {x} - 1/2 away from the integers, 0 on them; x an int or a Fraction."""
    _check_rational(x, "argument")
    if x.denominator == 1:
        return _ZERO
    return (x % 1) - _HALF


def dr_sum_direct(h: int, k: int, x=0, y=0) -> Fraction:
    """s(h, k; x, y) = sum_mu ((t)) ((h t + x)), t = (mu + y)/k, term by term: the oracle.

    No reciprocity.  Over M = k D, D the lcm of the shift denominators, both
    arguments are integers Z/M, and 2M ((Z/M)) = 2 (Z mod M) - M, or 0 when M | Z.
    """
    _check_args(h, k, x, y)
    x, y = Fraction(x), Fraction(y)
    D = lcm(x.denominator, y.denominator)
    M = k * D
    X, Y = x.numerator * (D // x.denominator), y.numerator * (D // y.denominator)

    def saw(z):
        return 2 * (z % M) - M if z % M else 0

    total = sum(saw(mu * D + Y) * saw(h * (mu * D + Y) + k * X) for mu in range(k))
    return Fraction(total, 4 * M * M)


def dr_sum(h: int, k: int, x=0, y=0) -> Fraction:
    """s(h, k; x, y) by one Euclid loop over the reciprocity law, in integers.

    A step reduces h mod k (x += (h // k) y) and applies
    s(h, k; x, y) + s(k, h; y, x) = ((x))((y))
        + (h^2 B2({y}) + B2({h y + k x}) + k^2 B2({x})) / (2 h k),
    or -1/4 + (h^2 + k^2 + 1) / (12 h k) when x and y are integers (D = 1).  With
    x = X/D and y = Y/D, X and Y reduced mod D, ((Z/D)) = sigma(Z) / 2D and
    B2({Z/D}) = beta(Z) / 6D^2, where sigma(Z) = 2Z - D (0 at Z = 0) and
    beta(Z) = 6Z^2 - 6ZD + D^2; so the right side is one fraction over 12 h k D^2.
    The loop ends at h = 0 with ((x))((y)).  The steps are summed as one reduced
    integer fraction times 12 D^2, and one Fraction is built at the end.
    """
    _check_args(h, k, x, y)
    x, y = Fraction(x), Fraction(y)
    D = lcm(x.denominator, y.denominator)
    X = x.numerator * (D // x.denominator) % D
    Y = y.numerator * (D // y.denominator) % D

    def sigma(z):
        return 2 * z - D if z else 0

    def beta(z):
        return 6 * z * z - 6 * z * D + D * D

    sign, num, den = 1, 0, 1        # the steps so far, times 12 D^2: num / den, reduced
    if h < 0:               # s(-h, k; -x, y) = -s(h, k; x, y)
        sign, h, X = -1, -h, -X % D
    while True:
        m, h = divmod(h, k)             # s(h, k; x, y) = s(h - mk, k; x + my, y)
        X = (X + m * Y) % D
        if h == 0:                      # ((x))((y)) = 3 sigma(X) sigma(Y) / 12 D^2
            return Fraction(num + 3 * sign * sigma(X) * sigma(Y) * den, 12 * D * D * den)
        if D == 1:                      # x and y integers throughout
            step = h * h + k * k + 1 - 3 * h * k
        else:
            step = (3 * h * k * sigma(X) * sigma(Y) + h * h * beta(Y)
                    + beta((h * Y + k * X) % D) + k * k * beta(X))
        num, den = num * h * k + sign * step * den, den * h * k
        g = gcd(num, den)
        num, den = num // g, den // g
        sign, h, k, X, Y = -sign, k, h, Y, X


def _check_args(h, k, *shifts):
    for name, value in (("h", h), ("k", k)):
        if not is_int(value):
            raise ValueError(f"{name}={value!r} is not an integer")
    for value in shifts:
        _check_rational(value, "shift")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if gcd(h, k) != 1:
        raise ValueError(f"h={h} and k={k} must be coprime")


def _check_rational(value, what):
    if not (is_int(value) or isinstance(value, Fraction)):
        raise ValueError(f"{what} {value!r} is not an integer or a Fraction")


# ---------------------------------------------------------------------------
# Character sums over the p-th roots of unity, against their Dedekind values
# ---------------------------------------------------------------------------

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
