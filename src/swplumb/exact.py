"""Exact integer kernel: integer matrices and the sparse Smith elimination.

The Smith normal form has one elimination loop, `smith_elimination`, over
sparse rows.  It returns the diagonal and logs every row and column operation.
Replayed backwards, the logs give chosen rows of U or columns of V, mod a
modulus if one is given: `homology` reads only those.  Without a modulus they
equal the U and V of `reference.smith_normal_form`, the oracle, a dense
elimination that shares no code with this one but makes the same choices.

Everything here is exact, as everywhere in the package: no floating point.
Integer matrices keep arbitrary-precision entries.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        return cls._of_rows([[int(i == j) for j in range(n)] for i in range(n)])

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
