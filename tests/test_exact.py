"""`exact` integer matrices and their `reference` oracles: Smith form, inverses, Q(zeta_N)."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from swplumb.errors import ConductorMismatch, NotRational, SingularMatrix
from swplumb.exact import IntMatrix
from swplumb.reference import (CycNum, CyclotomicField, adjugate_inverse,
                               cyclotomic_field, cyclotomic_polynomial,
                               invert_rational_matrix, smith_normal_form)


def frac_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class TestSmithNormalForm:
    def test_single_entry(self):
        snf = smith_normal_form(IntMatrix([[-2]]))
        assert snf.diagonal == (2,)
        assert snf.U * IntMatrix([[-2]]) * snf.V == snf.D

    def test_chain_two(self):
        mat = IntMatrix([[-2, 1], [1, -2]])
        snf = smith_normal_form(mat)
        assert snf.diagonal == (1, 3)
        assert snf.U * mat * snf.V == snf.D
        assert abs(mat.det()) == 3

    def test_identity(self):
        snf = smith_normal_form(IntMatrix.identity(3))
        assert snf.diagonal == (1, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_decomposition_properties(self, rows, cols, data):
        entries = [[data.draw(st.integers(-7, 7)) for _ in range(cols)]
                   for _ in range(rows)]
        mat = IntMatrix(entries)
        snf = smith_normal_form(mat)
        assert snf.U * mat * snf.V == snf.D
        assert abs(snf.U.det()) == 1
        assert abs(snf.V.det()) == 1
        diag = snf.diagonal
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        # off-diagonal of D vanishes
        for i in range(snf.D.rows):
            for j in range(snf.D.cols):
                if i != j:
                    assert snf.D[i, j] == 0

    def test_determinant_is_diagonal_product(self):
        mat = IntMatrix([[4, 2, 0], [2, 5, 1], [0, 1, 7]])
        snf = smith_normal_form(mat)
        prod = 1
        for d in snf.diagonal:
            prod *= d
        assert prod == abs(mat.det())


class TestIntMatrixInput:
    """Entries are rejected, never coerced: only `int`, and not `bool`."""

    @pytest.mark.parametrize("bad", [2.0, 2.7, True, False, "3", Fraction(3), Fraction(1, 2)])
    def test_non_int_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            IntMatrix([[1, 0], [bad, 1]])

    def test_int_entries_kept(self):
        mat = IntMatrix([[10 ** 30, -1], (0, 2)])
        assert mat.entries == ((10 ** 30, -1), (0, 2))
        assert (mat.rows, mat.cols) == (2, 2)

    @pytest.mark.parametrize("bad", [[], [[]], [[1, 2], [3]]])
    def test_shape_rejected(self, bad):
        with pytest.raises(ValueError):
            IntMatrix(bad)


class TestSmithPinned:
    """U, D and V are pinned: the spin^c labels of `--all-spinc` are read off U."""

    CASES = [
        # D4 intersection matrix: unit pivots, then the (2, 2) block
        (((-2, 1, 1, 1), (1, -2, 0, 0), (1, 0, -2, 0), (1, 0, 0, -2)),
         ((1, 0, 0, 0), (0, 0, 1, 0), (2, 1, 3, 0), (-2, -1, -2, -1)),
         ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)),
         ((0, 1, 0, 2), (1, 2, -1, 1), (0, 0, 0, 1), (0, 0, 1, 2))),
        # L(25, 7) chain: unit pivots only
        (((-4, 1, 0, 0), (1, -3, 1, 0), (0, 1, -2, 1), (0, 0, 1, -2)),
         ((1, 0, 0, 0), (3, 1, 0, 0), (5, 2, 1, 0), (-7, -3, -2, -1)),
         ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 25)),
         ((0, 0, 0, 1), (1, 0, 0, 4), (0, 1, 0, 11), (0, 0, 1, 18))),
        # non-unit pivots, non-square
        (((4, 6), (6, 4), (2, 8)),
         ((0, 0, 1), (-1, 0, 2), (-2, 1, 1)),
         ((2, 0), (0, 10), (0, 0)),
         ((1, -4), (0, 1))),
        # a pivot that fails to divide the trailing block
        (((2, 0), (0, 3)),
         ((-1, 1), (-3, 2)),
         ((1, 0), (0, 6)),
         ((1, -3), (1, -2))),
    ]

    @pytest.mark.parametrize("mat, u, d, v", CASES)
    def test_pinned_decomposition(self, mat, u, d, v):
        snf = smith_normal_form(IntMatrix(mat))
        assert (snf.U.entries, snf.D.entries, snf.V.entries) == (u, d, v)


class TestRationalInverse:
    def test_single(self):
        assert invert_rational_matrix(IntMatrix([[-2]])) == frac_rows([[Fraction(-1, 2)]])

    def test_chain(self):
        inv = invert_rational_matrix(IntMatrix([[-2, 1], [1, -2]]))
        assert inv == frac_rows([[Fraction(-2, 3), Fraction(-1, 3)],
                                 [Fraction(-1, 3), Fraction(-2, 3)]])

    def test_mixed(self):
        inv = invert_rational_matrix(IntMatrix([[-2, 1], [1, -1]]))
        assert inv == frac_rows([[-1, -1], [-1, -2]])

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            invert_rational_matrix(IntMatrix([[1, 2], [2, 4]]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_matches_adjugate_oracle(self, n, data):
        entries = [[data.draw(st.integers(-5, 5)) for _ in range(n)]
                   for _ in range(n)]
        mat = IntMatrix(entries)
        if mat.det() == 0:
            return
        assert invert_rational_matrix(mat) == adjugate_inverse(mat)


class TestCyclotomicPolynomial:
    def test_small(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    def test_twelve_by_division(self):
        # oracle: multiply Phi_d over all divisors of 12, compare with x^12 - 1
        total = [1]
        for d in (1, 2, 3, 4, 6, 12):
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(total) + len(phi) - 1)
            for i, x in enumerate(total):
                for j, y in enumerate(phi):
                    out[i + j] += x * y
            total = out
        want = [0] * 13
        want[0] = -1
        want[12] = 1
        assert total == want
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


class TestCycNum:
    def test_fourth_root_squares_to_minus_one(self):
        f = cyclotomic_field(4)
        z = f.root_of_unity(1)
        assert z * z == f.rational(-1)

    def test_golden_minimal_polynomial(self):
        f = cyclotomic_field(5)
        x = f.root_of_unity(1) + f.root_of_unity(4)
        assert x * x + x == f.one()

    def test_inverse_cache_keeps_no_cycle(self):
        # a dropped field is freed by reference counting, not left to a full gc
        f = CyclotomicField(7)
        assert f.inv_root_minus_one(3) * f.root_minus_one(3) == f.one()
        assert f.inv_root_minus_one(3) == f.inv_root_minus_one(10)
        ref = weakref.ref(f)
        gc.disable()
        try:
            del f
            assert ref() is None
        finally:
            gc.enable()

    def test_as_rational(self):
        f = cyclotomic_field(5)
        assert f.rational(Fraction(7, 3)).as_rational() == Fraction(7, 3)
        f3 = cyclotomic_field(3)
        assert (f3.root_of_unity(1) + f3.root_of_unity(2)).as_rational() == -1
        with pytest.raises(NotRational):
            f.root_of_unity(1).as_rational()

    def test_zero_division(self):
        f = cyclotomic_field(6)
        with pytest.raises(ZeroDivisionError):
            f.inv_root_minus_one(0)

    def test_conductor_mismatch(self):
        a = cyclotomic_field(3).root_of_unity(1)
        b = cyclotomic_field(4).root_of_unity(1)
        with pytest.raises(ConductorMismatch):
            _ = a + b

    def test_root_sums_vanish(self):
        for n in range(2, 25):
            f = cyclotomic_field(n)
            total = f.zero()
            for k in range(n):
                total = total + f.root_of_unity(k)
            assert total.is_zero, n

    def test_root_laws_across_the_power_table(self):
        # N > 2 phi(N) - 1 here, so roots and products read different rows
        for n in (30, 42, 60):
            f = cyclotomic_field(n)
            assert n > 2 * f.degree - 1
            for a in range(n):
                for b in range(n):
                    assert f.root_of_unity(a) * f.root_of_unity(b) \
                        == f.root_of_unity(a + b), (n, a, b)
                if a:
                    assert f.inv_root_minus_one(a) * f.root_minus_one(a) == f.one()

    def test_inv_root_closed_form(self):
        for n in (8, 12, 15, 30):
            f = cyclotomic_field(n)
            for a in range(1, n):
                assert f.inv_root_minus_one(a) * f.root_minus_one(a) == f.one()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.data())
    def test_field_axioms(self, n, data):
        f = cyclotomic_field(n)

        def element():
            return f.element([Fraction(data.draw(st.integers(-4, 4)),
                                       data.draw(st.integers(1, 3)))
                              for _ in range(f.degree)])

        a, b, c = element(), element(), element()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_scalar_mixing(self):
        f = cyclotomic_field(5)
        z = f.root_of_unity(2)
        assert (z * Fraction(1, 2)) * 2 == z
        assert z * 2 == z + z
