"""Dedekind and Dedekind-Rademacher sums, with reciprocity-based fast evaluation.

The shifted sum s(h, k; x, y) is evaluated by one Euclid loop that alternates
argument reduction with the reciprocity law; its oracle, the direct O(k)
summation, is `reference.dr_sum_direct`.  The loop, `dr_sum_parts`, works in
integers: with x = X/D and y = Y/D over a common denominator D of the shifts,
each reciprocity step adds one integer fraction over 12 h k D^2 to a running
numerator and denominator, and it returns that pair.  `dr_sum` builds one
Fraction from it; the Seifert closed forms add the pairs of several sums in
integers and build one Fraction per value.
Rational shifts only, given as int or Fraction; that is all the geometry ever
needs, and anything else is rejected rather than coerced.  The module imports
nothing from `torsion` or `homology`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exact import is_int

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def dedekind_symbol(x) -> Fraction:
    """((x)): the sawtooth {x} - 1/2 away from the integers, 0 on them; x an int or a Fraction."""
    _check_rational(x, "argument")
    if x.denominator == 1:
        return _ZERO
    return (x % 1) - _HALF


def dr_sum(h: int, k: int, x=0, y=0) -> Fraction:
    """s(h, k; x, y): the argument check, the shifts over their lcm D, `dr_sum_parts`,
    and one Fraction."""
    check_args(h, k, x, y)
    x, y = Fraction(x), Fraction(y)
    D = lcm(x.denominator, y.denominator)
    return Fraction(*dr_sum_parts(h, k, x.numerator * (D // x.denominator),
                                  y.numerator * (D // y.denominator), D))


def dr_sum_parts(h: int, k: int, X: int = 0, Y: int = 0, D: int = 1):
    """s(h, k; X/D, Y/D) as integers (num, den), den > 0, by one Euclid loop over the
    reciprocity law; h, k coprime ints with k >= 1, unchecked, and D >= 1 any common
    denominator of the shifts.

    A step reduces h mod k (x += (h // k) y) and applies
    s(h, k; x, y) + s(k, h; y, x) = ((x))((y))
        + (h^2 B2({y}) + B2({h y + k x}) + k^2 B2({x})) / (2 h k),
    or -1/4 + (h^2 + k^2 + 1) / (12 h k) when x and y are integers (D = 1, once D is
    divided by gcd(X, Y, D)).  With X and Y reduced mod D, ((Z/D)) = sigma(Z) / 2D
    and B2({Z/D}) = beta(Z) / 6D^2, where sigma(Z) = 2Z - D (0 at Z = 0) and
    beta(Z) = 6Z^2 - 6ZD + D^2; so the right side is one fraction over 12 h k D^2.
    The loop ends at h = 0 with ((x))((y)).  The steps are summed as one reduced
    integer fraction times 12 D^2.
    """
    g = gcd(X, Y, D)
    D = D // g
    X, Y = X // g % D, Y // g % D

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
            return num + 3 * sign * sigma(X) * sigma(Y) * den, 12 * D * D * den
        if D == 1:                      # x and y integers throughout
            step = h * h + k * k + 1 - 3 * h * k
        else:
            step = (3 * h * k * sigma(X) * sigma(Y) + h * h * beta(Y)
                    + beta((h * Y + k * X) % D) + k * k * beta(X))
        num, den = num * h * k + sign * step * den, den * h * k
        g = gcd(num, den)
        num, den = num // g, den // g
        sign, h, k, X, Y = -sign, k, h, Y, X


def check_args(h, k, *shifts):
    """Reject anything but integers h, k >= 1, coprime, and int or Fraction shifts."""
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
