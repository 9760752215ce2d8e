"""Dedekind-Rademacher sums: definition oracle, reciprocity, root-of-unity sums."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from swplumb.dedekind import dedekind_symbol, dr_sum, dr_sum_parts
from swplumb.reference import cyclotomic_field, dr_sum_direct, fourier_identity_suite


def test_symbol_values():
    assert dedekind_symbol(Fraction(1, 2)) == 0
    assert dedekind_symbol(3) == 0
    assert dedekind_symbol(Fraction(7, 4)) == Fraction(1, 4)
    assert dedekind_symbol(Fraction(-1, 3)) == Fraction(1, 6)


@pytest.mark.parametrize("bad", [
    0.1,            # the binary float 0.1 before
    "1/3",          # parsed as 1/3 before
    True,           # read as 1, so ((1)) = 0, before
    False,
    1.0,
    None,
    1j,
])
def test_symbol_rejects_malformed_input(bad):
    with pytest.raises(ValueError, match="not an integer or a Fraction"):
        dedekind_symbol(bad)


def test_classical_values():
    assert dr_sum(1, 5) == Fraction(1, 5)
    for k in range(1, 40):
        assert dr_sum(1, k) == Fraction((k - 1) * (k - 2), 12 * k)
    assert dr_sum(2, 3) == Fraction(-1, 18)
    assert dr_sum_direct(2, 3) == Fraction(-1, 18)
    assert dr_sum(2, 5) == 0


def test_shifted_closed_form():
    # s(1,k;0,y) = k/12 + B2({y})/k away from integral y
    assert dr_sum(1, 2, 0, Fraction(1, 2)) == Fraction(1, 8)
    for k in (2, 3, 7, 12):
        for y in (Fraction(1, 2), Fraction(2, 5), Fraction(-1, 3)):
            f = y % 1
            want = Fraction(k, 12) + (f * f - f + Fraction(1, 6)) / k
            assert dr_sum(1, k, 0, y) == want


def test_reciprocity_sweep():
    for k in range(1, 61):
        for h in range(1, k):
            if gcd(h, k) != 1:
                continue
            assert dr_sum(h, k) + dr_sum(k, h) == \
                Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)


def test_integer_kernel_against_dr_sum():
    """dr_sum_parts on the reciprocity sweep's pairs, unshifted and with shifts over
    common denominators that are not the least one (X = Y = 0 mod D among them)."""
    for k in range(1, 61):
        for h in range(1, k):
            if gcd(h, k) != 1:
                continue
            for a, b in ((h, k), (k, h), (-h, k)):
                num, den = dr_sum_parts(a, b)
                assert den > 0 and Fraction(num, den) == dr_sum(a, b)
                x, y = Fraction(a % 7, 7), Fraction(-b % 3, 3)
                for scale in (1, 2, 5):
                    D = 21 * scale
                    num, den = dr_sum_parts(a, b, x.numerator * 3 * scale,
                                            y.numerator * 7 * scale - D, D)
                    assert den > 0 and Fraction(num, den) == dr_sum(a, b, x, y)


def test_shifted_reciprocity_against_oracle():
    rng = random.Random(9)
    done = 0
    while done < 40:
        k = rng.randrange(2, 40)
        h = rng.randrange(1, k)
        if gcd(h, k) != 1:
            continue
        x = Fraction(rng.randrange(-8, 9), rng.randrange(1, 9))
        y = Fraction(rng.randrange(-8, 9), rng.randrange(1, 9))
        lhs = dr_sum(h, k, x, y) + dr_sum(k, h, y, x)
        assert lhs == dr_sum_direct(h, k, x, y) + dr_sum_direct(k, h, y, x)
        done += 1


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 120), st.data())
def test_fast_path_matches_direct(k, data):
    h = data.draw(st.integers(-2 * k, 2 * k))
    if gcd(h, k) != 1:
        return
    x = Fraction(data.draw(st.integers(-10, 10)), data.draw(st.integers(1, 10)))
    y = Fraction(data.draw(st.integers(-10, 10)), data.draw(st.integers(1, 10)))
    assert dr_sum(h, k, x, y) == dr_sum_direct(h, k, x, y)


def fraction_dr_sum_direct(h, k, x=0, y=0):
    """The definition in Fractions, through the sawtooth: the reference of `dr_sum_direct`."""
    x, y = Fraction(x), Fraction(y)
    return sum((dedekind_symbol(t) * dedekind_symbol(h * t + x)
                for t in (Fraction(mu + y, k) for mu in range(k))), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.integers(-200, 200), st.data())
def test_direct_sum_against_fractions(k, h, data):
    if gcd(h, k) != 1:
        return
    shift = st.one_of(st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-90, 90), st.integers(1, 40)))
    x, y = data.draw(shift), data.draw(shift)
    assert dr_sum_direct(h, k, x, y) == fraction_dr_sum_direct(h, k, x, y)


def test_shift_periodicity():
    assert dr_sum(3, 7, Fraction(1, 3), Fraction(1, 5)) == \
        dr_sum(3, 7, Fraction(4, 3), Fraction(-4, 5))


def test_sawtooth_averaging():
    rng = random.Random(3)
    for k in range(1, 31):
        for _ in range(10):
            w = Fraction(rng.randrange(-30, 31), rng.randrange(1, 14))
            total = sum(dedekind_symbol(Fraction(mu + w, k)) for mu in range(k))
            assert total == dedekind_symbol(w)


def test_argument_validation():
    with pytest.raises(ValueError):
        dr_sum(2, 4)
    with pytest.raises(ValueError):
        dr_sum(1, 0)


@pytest.mark.parametrize("fn", [dr_sum, dr_sum_direct])
@pytest.mark.parametrize("args", [
    (2, 3, "1/2"),          # read as 1/2 before
    (True, 3),              # read as h = 1 before
    (1, True),
    (1, 3, 0.1),            # the binary float 0.1 before
    (1.0, 3),               # a TypeError before
    (1, 3.0),
    (1, 3, 0, True),
    (1, 3, 0, None),
    (Fraction(2), 3),
])
def test_rejects_malformed_input(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("h, k", [(True, 3), (2.0, 3), (2, "3"), (2, False)])
def test_dedekind_sum_rejects_non_integers(h, k):
    with pytest.raises(ValueError, match="not an integer"):
        dr_sum(h, k)


def test_integer_and_fraction_shifts_agree():
    assert dr_sum(3, 7, 1, -2) == dr_sum(3, 7, Fraction(1), Fraction(-2)) == dr_sum(3, 7)


def test_long_euclid_chain():
    # consecutive Fibonacci numbers: one Euclid step per index, 1100 steps here
    fib = [0, 1, 1]
    while len(fib) < 1103:
        fib.append(fib[-1] + fib[-2])
    h, k = fib[1101], fib[1102]
    assert len(str(h)) == 230

    def rhs(a, b):
        return Fraction(-1, 4) + Fraction(a * a + b * b + 1, 12 * a * b)

    # s(F_n, F_(n+1)) + s(F_(n-1), F_n) = rhs(F_n, F_(n+1)), s(F_1, F_2) = s(1, 1) = 0
    want = Fraction(0)
    for n in range(2, 1102):
        want = rhs(fib[n], fib[n + 1]) - want
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)     # the default
    try:
        value = dr_sum(h, k)
        back = dr_sum(k, h)
    finally:
        sys.setrecursionlimit(limit)
    assert value == want
    assert value + back == rhs(h, k)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 90), st.data())
def test_negative_h_one_integral_shift(k, data):
    h = -data.draw(st.integers(1, 3 * k))
    if gcd(h, k) != 1:
        return
    integral = data.draw(st.integers(-5, 5))
    shift = Fraction(data.draw(st.integers(-200, 200)), data.draw(st.integers(1, 60)))
    if shift.denominator == 1:
        shift += Fraction(1, 60)
    x, y = (integral, shift) if data.draw(st.booleans()) else (shift, integral)
    assert dr_sum(h, k, x, y) == dr_sum_direct(h, k, x, y)


def reference_fourier_suite(p, q, t):
    """The five left sides of `fourier_identity_suite`, summed term by term in Q(zeta_p)."""
    field = cyclotomic_field(p)

    def rational(total):
        return (total * Fraction(1, p)).as_rational()

    single = twisted = plain = absq = cotangent = field.zero()
    cot = {a: (field.root_of_unity(a) + field.one()) * field.inv_root_minus_one(a)
           for a in range(1, p)}
    for j in range(1, p):
        jq = (j * q) % p
        inv_j = field.inv_root_minus_one(j)
        pair = inv_j * field.inv_root_minus_one(jq)
        zt = field.root_of_unity((j * t) % p)
        single = single + zt * inv_j        # 1/(1 - zeta) = -1/(zeta - 1), negated below
        twisted = twisted + zt * pair
        plain = plain + pair
        absq = absq + inv_j * field.inv_root_minus_one((-j) % p)
        cotangent = cotangent + cot[j] * cot[jq]
    return {"single_factor": -rational(single), "double_factor_twisted": rational(twisted),
            "double_factor": rational(plain), "absolute_square": rational(absq),
            "cotangent_product": rational(cotangent)}


class TestRootOfUnitySums:
    def test_against_the_field_reference(self):
        for p in range(2, 21):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                for t in (0, 1, 2):
                    got = {name: lhs for name, lhs, _ in fourier_identity_suite(p, q, t)}
                    assert got == reference_fourier_suite(p, q, t), (p, q, t)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.integers(-60, 60), st.integers(-70, 70))
    def test_any_residues_against_the_field_reference(self, p, q, t):
        # q and t outside 0..p-1, negative ones among them, read mod p
        if gcd(p, q) != 1:
            return
        got = {name: lhs for name, lhs, _ in fourier_identity_suite(p, q, t)}
        assert got == reference_fourier_suite(p, q % p, t % p)
        assert got == {name: lhs for name, lhs, _ in fourier_identity_suite(p, q % p, t % p)}

    def test_absolute_square_at_five(self):
        pairs = dict((name, (lhs, rhs))
                     for name, lhs, rhs in fourier_identity_suite(5, 1))
        lhs, rhs = pairs["absolute_square"]
        assert lhs == rhs == Fraction(2, 5)

    def test_double_factor_at_three_two(self):
        pairs = dict((name, (lhs, rhs))
                     for name, lhs, rhs in fourier_identity_suite(3, 2))
        lhs, rhs = pairs["double_factor"]
        assert lhs == rhs == Fraction(2, 9)

    def test_cotangent_product_vanishes(self):
        pairs = dict((name, (lhs, rhs))
                     for name, lhs, rhs in fourier_identity_suite(5, 2))
        lhs, rhs = pairs["cotangent_product"]
        assert rhs == -4 * dr_sum(2, 5) == 0
        assert lhs == 0

    def test_full_sweep_small(self):
        for p in range(2, 21):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                for t in (0, 1, 2):
                    for name, lhs, rhs in fourier_identity_suite(p, q, t):
                        assert lhs == rhs, (name, p, q, t)

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier_identity_suite(1, 1)
        with pytest.raises(ValueError):
            fourier_identity_suite(6, 3)
