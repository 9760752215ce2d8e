"""Known values for the benchmark's independent checkers.

Runs under pytest, or alone: python3 bench/test_oracles.py
"""

from fractions import Fraction
from math import gcd

import oracles


def chain(eulers):
    return list(eulers), [(j, j + 1) for j in range(len(eulers) - 1)]


def star(center, arms):
    eulers, edges = [center], []
    for arm in arms:
        prev = 0
        for e in arm:
            eulers.append(e)
            edges.append((prev, len(eulers) - 1))
            prev = len(eulers) - 1
    return eulers, edges


def lens(p, q):
    """The chain of -b_j with p/q = b_1 - 1/(b_2 - ...)."""
    out = []
    while q:
        c = -(-p // q)
        out.append(-c)
        p, q = q, c * q - p
    return chain(out)


A = {n: chain([-2] * n) for n in range(1, 9)}
D = {n: star(-2, [[-2], [-2], [-2] * (n - 3)]) for n in range(4, 9)}
E = {6: star(-2, [[-2], [-2] * 2, [-2] * 2]),
     7: star(-2, [[-2], [-2] * 2, [-2] * 3]),
     8: star(-2, [[-2], [-2] * 2, [-2] * 4])}
POLYGONAL_3333 = star(-2, [[-3]] * 4)
NONSTAR13 = ([-2] * 4 + [-3] + [-2] * 8,
             [(j, j + 1) for j in range(8)] + [(1, 9), (9, 10), (7, 11), (11, 12)])


def test_dedekind_sum_known_values():
    assert oracles.dedekind_sum(1, 3) == Fraction(1, 18)
    assert oracles.dedekind_sum(1, 1) == 0
    for k in range(2, 13):                       # s(1, k) = (k-1)(k-2)/(12k)
        assert oracles.dedekind_sum(1, k) == Fraction((k - 1) * (k - 2), 12 * k)
    for h in range(1, 12):                       # reciprocity
        for k in range(1, 12):
            if gcd(h, k) == 1:
                assert (oracles.dedekind_sum(h, k) + oracles.dedekind_sum(k, h)
                        == Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k))


def test_bareiss_determinant():
    for n, (eulers, edges) in A.items():         # det A_n = (-1)^n (n + 1)
        assert oracles.bareiss_det(oracles.intersection_matrix(eulers, edges)) == (-1) ** n * (n + 1)
    assert oracles.bareiss_det([[0, 1], [1, 0]]) == -1
    assert oracles.bareiss_det([[0, 1, 0], [1, 0, 0], [0, 0, 2]]) == -2
    assert oracles.bareiss_det([[1, 2], [2, 4]]) == 0
    assert abs(oracles.bareiss_det(oracles.intersection_matrix(*E[8]))) == 1
    assert abs(oracles.bareiss_det(oracles.intersection_matrix(*POLYGONAL_3333))) == 54


def test_solve_gives_k2_and_casson_walker():
    assert oracles.solve([[2, 1], [1, 3]], [[3, 4]]) == [[Fraction(1), Fraction(1)]]
    for n, g in A.items():                        # K = 0 on -2 curves; L(n+1, n)
        p = n + 1
        assert oracles.k2_and_lambda(*g) == (n, Fraction(p, 2) * oracles.dedekind_sum(n, p))
    assert oracles.k2_and_lambda(*E[8]) == (8, -1)   # Poincare sphere: lambda = -1
    for p, q in [(7, 3), (12, 5), (25, 7), (31, 1)]:
        s = oracles.dedekind_sum(q, p)
        assert oracles.k2_and_lambda(*lens(p, q)) == (Fraction(2 * (p - 1), p) - 12 * s,
                                                      Fraction(p, 2) * s)


def test_homology_exponent():
    assert oracles.coker_exponent(oracles.intersection_matrix(*D[4])) == 2   # Z2 x Z2
    assert oracles.coker_exponent(oracles.intersection_matrix(*D[5])) == 4   # Z4
    assert oracles.coker_exponent(oracles.intersection_matrix(*A[6])) == 7
    assert oracles.seifert_homology_exponent(-2, [(2, 1), (2, 1), (2, 1)]) == 2
    assert oracles.seifert_homology_exponent(-2, [(2, 1), (2, 1), (3, 2)]) == 4


def test_laufer_rationality():
    assert oracles.fundamental_cycle(*A[5]) == [1] * 5
    for g in list(A.values()) + list(D.values()) + list(E.values()):
        assert oracles.is_rational(*g)
    assert oracles.laufer_chi(*POLYGONAL_3333) == 0
    assert not oracles.is_rational(*POLYGONAL_3333)
    assert not oracles.is_rational(*NONSTAR13)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
