"""Exact arithmetic kernel: integer matrices, Smith normal form, cyclotomic fields.

The Smith normal form has one elimination loop, `smith_elimination`, over
sparse rows.  It returns the diagonal and logs every row and column operation.
Replayed forwards, the logs give the exact U and V of `smith_normal_form`, the
oracle.  Replayed backwards, they give chosen rows of U or columns of V, mod a
modulus if one is given: `homology` reads only those.

Everything here is exact, as everywhere in the package: no floating point.
Rational numbers are `fractions.Fraction`, integer matrices keep
arbitrary-precision entries, and elements of Q(zeta_N) are integer coefficient
vectors over a common denominator, reduced modulo the N-th cyclotomic
polynomial: the reference arithmetic of `torsion.regularized_product`, `verify`
and the Gauss-sum check, never built by the torsion pipeline.  `CycNum` has +,
* and == only; 1/(zeta^a - 1), the one inverse the reference needs, has a
closed form in `CyclotomicField.inv_root_minus_one`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd

from .errors import ConductorMismatch, NotRational, SingularMatrix


def is_int(x) -> bool:
    """An `int` and not a `bool`: the package's one test of integer input, which
    is rejected, never coerced."""
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

class IntMatrix:
    """Dense integer matrix with arbitrary-precision entries (immutable).

    Every entry must be an `int` (not a `bool`): input is rejected, never coerced.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        for row in rows:
            for x in row:
                if not is_int(x):
                    raise ValueError(f"matrix entry {x!r} is not an integer")
        self._set(rows)

    @classmethod
    def _of_rows(cls, rows) -> "IntMatrix":
        """Wrap rows of `int`s built by this package, without checking each entry."""
        self = cls.__new__(cls)
        self._set(tuple(map(tuple, rows)))
        return self

    def _set(self, rows):
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.entries = rows

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of_rows(_identity_rows(n))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = list(zip(*other.entries))
        return IntMatrix._of_rows([[sum(a * b for a, b in zip(row, col)) for col in bt]
                                   for row in self.entries])

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            p = m[k][k]
            for i in range(k + 1, n):
                f = m[i][k]
                mi, mk = m[i], m[k]
                for j in range(k + 1, n):
                    mi[j] = (p * mi[j] - f * mk[j]) // prev
                mi[k] = 0
            prev = p
        return sign * m[n - 1][n - 1]

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


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


def _identity_rows(n):
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _nonzeros(row):
    """The (index, value) pairs of the nonzero entries."""
    return list(compress(enumerate(row), row))


@dataclass(frozen=True)
class SmithLog:
    """The Smith diagonal of a matrix A and the operations that reach it.

    `row_ops` and `col_ops` list the operations in the order they happen, in
    logical indices: (a, b, q) adds q times b to a, so (a, a, -2) negates a,
    and (a, b, 0) swaps a and b.  Applied forwards to the identity they give U
    and the transpose of V, with U A V = D.  Every d_i | d_(i+1); zeros come
    last.
    """

    diagonal: tuple
    row_ops: list
    col_ops: list


def smith_elimination(rows, cols: int) -> SmithLog:
    """Smith normal form over Z of a sparse matrix, as a diagonal and two logs.

    `rows` are {column: nonzero} dicts and are consumed.  The pivot is the
    first unit in row-major order, else the first entry of least |value|;
    rows below the pivot are cleared, then the columns right of it, with a
    remainder that beats the pivot swapped in, and a pivot that does not
    divide the block below it takes a column with an entry it does not divide.
    Every choice reads logical indices, so the operations do not depend on the
    sparsity.  A column swap exchanges two logical labels of the dict keys, and
    the arithmetic runs over nonzeros only.  Rows above the pivot t are
    finished and rows from t on are zero left of t, so whole rows are scanned.
    """
    r, c = len(rows), cols
    m = rows
    key = list(range(c))        # key[j]: the dict key of logical column j
    where = list(range(c))      # where[key[j]] = j
    row_ops, col_ops = [], []

    def swap_cols(j):  # columns t and j
        key[t], key[j] = key[j], key[t]
        where[key[t]], where[key[j]] = t, j
        col_ops.append((t, j, 0))

    t = 0
    while t < min(r, c):
        # the first unit in row-major order, else the least (|value|, i, j)
        for pi in range(t, r):
            row = m[pi]
            values = row.values()
            if 1 in values or -1 in values:
                pj = min(where[k] for k, x in row.items() if x == 1 or x == -1)
                break
        else:
            least = min(((abs(x), i, where[k]) for i in range(t, r) for k, x in m[i].items()),
                        default=None)
            if least is None:
                break
            _, pi, pj = least
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            row_ops.append((t, pi, 0))
        if pj != t:
            swap_cols(pj)
        while True:
            dirty = False
            # rows: row[i] += q * row[t]
            kt, mt = key[t], m[t]
            for i in [i for i in range(t + 1, r) if kt in m[i]]:
                mi = m[i]
                q = -(mi[kt] // mt[kt])
                if q:
                    for k, x in mt.items():
                        y = mi.get(k, 0) + q * x
                        if y:
                            mi[k] = y
                        else:
                            del mi[k]
                    row_ops.append((i, t, q))
                if kt in mi:  # remainder beats the pivot; swap it in
                    m[t], m[i] = mi, mt
                    row_ops.append((t, i, 0))
                    mt = mi
                    dirty = True
            if dirty:
                continue
            # columns: col[j] += q * col[t], over the rows nonzero in column t
            # (only row t, until a column swap brings in another column)
            column = [mt]
            for j in sorted(where[k] for k in mt if where[k] > t):
                kj = key[j]
                q = -(mt[kj] // mt[kt])
                if q:
                    for row in column:
                        y = row.get(kj, 0) + q * row[kt]
                        if y:
                            row[kj] = y
                        else:
                            del row[kj]
                    col_ops.append((j, t, q))
                if kj in mt:
                    swap_cols(j)
                    kt = key[t]
                    column = [row for row in m[t:] if kt in row]
                    dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block (a unit always does)
            p = mt[kt]
            bad = None
            if abs(p) != 1:
                for row in m[t + 1:]:
                    bad = min((where[k] for k, x in row.items() if x % p), default=None)
                    if bad is not None:
                        break
            if bad is None:
                break
            kb = key[bad]
            for row in m[t:]:       # col[t] += col[bad]
                if kb in row:
                    y = row.get(kt, 0) + row[kb]
                    if y:
                        row[kt] = y
                    else:
                        del row[kt]
            col_ops.append((t, bad, 1))
        t += 1

    diagonal = []
    for i in range(min(r, c)):
        d = m[i].get(key[i], 0)
        if d < 0:
            row_ops.append((i, i, -2))
        diagonal.append(abs(d))
    return SmithLog(tuple(diagonal), row_ops, col_ops)


def replay_forward(ops, size: int):
    """The operations applied in order to the rows of the size x size identity."""
    rows = _identity_rows(size)
    for a, b, q in ops:
        if q:
            target = rows[a]
            for j, x in _nonzeros(rows[b]):
                target[j] += q * x
        else:
            rows[a], rows[b] = rows[b], rows[a]
    return rows


def replay_backward(ops, size: int, picked, modulus=None):
    """Rows `picked` of the row-log product U, or columns `picked` of the column-log V.

    x = e_i^T R_k ... R_1 and V e_i = C_1 ... C_k e_i run the log backwards,
    and both turn "a += q b" into x_b += q x_a.  Returned as x[v], the list of
    the picked vectors' entries at v, each reduced mod `modulus` if one is given.
    """
    x = [[0] * len(picked) for _ in range(size)]
    for s, i in enumerate(picked):
        x[i][s] = 1
    for a, b, q in reversed(ops):
        if not q:
            x[a], x[b] = x[b], x[a]
        elif any(x[a]):
            if modulus:
                x[b] = [(y + q * z) % modulus for z, y in zip(x[a], x[b])]
            else:
                x[b] = [y + q * z for z, y in zip(x[a], x[b])]
    return x


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form over Z, with smallest-|pivot| selection: the exact oracle.

    Total on any integer matrix; for singular input the zero diagonal entries
    come last (the divisibility chain d_i | d_(i+1) still holds).  The logs of
    `smith_elimination` are replayed forwards into U and V.
    """
    r, c = A.rows, A.cols
    log = smith_elimination([dict(_nonzeros(row)) for row in A.entries], c)
    d = [[0] * c for _ in range(r)]
    for i, x in enumerate(log.diagonal):
        d[i][i] = x
    return SmithDecomposition(IntMatrix._of_rows(replay_forward(log.row_ops, r)),
                              IntMatrix._of_rows(d),
                              IntMatrix._of_rows(zip(*replay_forward(log.col_ops, c))))


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

