"""Independent checkers for the benchmark: no swplumb import, exact arithmetic only.

Each function recomputes a quantity the benchmark compares the program's
output against.  Matrices are lists of integer rows; a plumbing tree is given
by its Euler numbers and its edges as index pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def sawtooth(x: Fraction) -> Fraction:
    """((x)): {x} - 1/2 off the integers, 0 on them."""
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum over mu mod k of ((mu/k)) ((h mu/k)), summed term by term."""
    return sum((sawtooth(Fraction(mu, k)) * sawtooth(Fraction(h * mu, k))
                for mu in range(1, k)), Fraction(0))


def intersection_matrix(eulers, edges):
    """I with I_vv = e_v and I_vw = 1 on each edge."""
    n = len(eulers)
    rows = [[0] * n for _ in range(n)]
    for v, e in enumerate(eulers):
        rows[v][v] = e
    for a, b in edges:
        rows[a][b] = rows[b][a] = 1
    return rows


def bareiss_det(rows) -> int:
    """Determinant by fraction-free (Bareiss) elimination with row swaps."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (p * row_i[j] - f * row_k[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1] if n else 1


def solve(rows, rhs_columns):
    """Solve I x = b over Q for each column b; returns the solution columns."""
    n = len(rows)
    k = len(rhs_columns)
    m = [[Fraction(x) for x in rows[i]] + [Fraction(c[i]) for c in rhs_columns]
         for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        pivot_row = [x * inv for x in m[col]]
        m[col] = pivot_row
        for i in range(n):
            f = m[i][col]
            if i != col and f:
                row = m[i]
                for j in range(col, n + k):
                    if pivot_row[j]:
                        row[j] -= f * pivot_row[j]
    return [[m[i][n + c] for i in range(n)] for c in range(k)]


def coker_exponent(rows) -> int:
    """Exponent of coker(I): the least common denominator of the entries of I^-1."""
    n = len(rows)
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    den = 1
    for column in solve(rows, unit):
        for x in column:
            den = den * x.denominator // gcd(den, x.denominator)
    return den


def degrees(n: int, edges):
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def k2_and_lambda(eulers, edges):
    """(K^2 + #V, Casson-Walker) of a negative-definite plumbing tree.

    K^2 = z^T I^-1 z with z_v = e_v + 2 (solve I x = z).  The Casson-Walker
    invariant in Lescop's normalization is
    -|H|/24 * (sum e_v + 3 #V + sum_v (2 - deg v) (I^-1)_vv)
    (Lescop, Global surgery formula, 6.1.1; Nemethi-Nicolaescu 2002, 2.3).
    """
    n = len(eulers)
    rows = intersection_matrix(eulers, edges)
    deg = degrees(n, edges)
    z = [e + 2 for e in eulers]
    special = [v for v in range(n) if deg[v] != 2]
    units = [[int(i == v) for i in range(n)] for v in special]
    sols = solve(rows, [z] + units)
    k2 = sum((zv * xv for zv, xv in zip(z, sols[0])), Fraction(0))
    order = abs(bareiss_det(rows))
    diag = sum(((2 - deg[v]) * col[v] for v, col in zip(special, sols[1:])),
               Fraction(0))
    lam = Fraction(-order, 24) * (sum(eulers) + 3 * n + diag)
    return k2 + n, lam


def fundamental_cycle(eulers, edges):
    """Laufer's algorithm: the least Z > 0 with Z.E_v <= 0 for every vertex v."""
    n = len(eulers)
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    z = [1] * n
    while True:
        v = next((v for v in range(n)
                  if z[v] * eulers[v] + sum(z[w] for w in nbrs[v]) > 0), None)
        if v is None:
            return z
        z[v] += 1


def laufer_chi(eulers, edges) -> int:
    """chi(Z_min) = -(Z.Z + K.Z)/2, with K.E_v = -e_v - 2 (adjunction)."""
    z = fundamental_cycle(eulers, edges)
    rows = intersection_matrix(eulers, edges)
    zz = sum(z[v] * rows[v][w] * z[w] for v in range(len(z)) for w in range(len(z))
             if rows[v][w])
    kz = sum(zv * (-e - 2) for zv, e in zip(z, eulers))
    return -(zz + kz) // 2


def is_rational(eulers, edges) -> bool:
    """Artin and Laufer: the graph is rational iff chi(Z_min) = 1."""
    return laufer_chi(eulers, edges) == 1


def seifert_homology_exponent(b: int, arms) -> int:
    """Exponent of H_1 of the Seifert manifold (b; (alpha_i, omega_i)).

    H_1 = <q_1, ..., q_nu, h | alpha_i q_i + omega_i h, q_1 + ... + q_nu - b h>.
    """
    nu = len(arms)
    rows = [[a if j == i else 0 for j in range(nu)] + [w] for i, (a, w) in enumerate(arms)]
    rows.append([1] * nu + [-b])
    return coker_exponent(rows)
