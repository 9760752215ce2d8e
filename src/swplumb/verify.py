"""Acceptance fixture suite: every numbered criterion as a runnable family.

Each fixture family returns a list of `Check(name, passed, detail)` records.
The sweeps and property suites (fixtures 01-03, 05, 07 and 10-20) state their
cases and the condition each must meet; one tally (`_Tally`) counts the checks,
keeps the failed cases and writes the summary, whose detail counts the checks
or lists the first failures.  Fixture 17 returns two summaries, for the round
trips and the arm shortcut.  Fixtures 04, 06, 08 and 09 return one record per
manifold or identity.  `run` prints one [PASS]/[FAIL] line per record and
reports overall success.  The CLI prints the builders' route lists
(`lens_routes`, `seifert_routes`, `brieskorn_routes`), and fixtures 01, 03,
05, 07, 09 and 18 evaluate them, under one pass rule (`failed`).  Every
equality is exact: rationals as Fractions, the root-of-unity sums of fixture
12 as rational traces over Galois orbits, the field axioms (11), the torsion
reference (13) and the Gauss sums (15) in cyclotomic fields.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import dedekind, seifert
from .brieskorn import BrieskornSpec, brieskorn_seifert, classify, \
    closed_form_invariants
from .corpus import (a_chain, dn_seifert, e_star, nonstar_13_vertex,
                     polygonal_seifert, standard_corpus, three_arm_family)
from .errors import NotNegativeDefinite
from .exact import IntMatrix, smith_elimination
from .homology import homology_from_lattice, linking_rows, q_can, spinc_conjugate
from .plumbing import PlumbingGraph, blow_up_edge, blow_up_vertex, build_lattice, \
    casson_walker, k2_plus_nv, numerically_gorenstein
from .reference import GAUSS_ORDER_CAP, adjugate_inverse, cyclotomic_field, \
    cyclotomic_polynomial, dr_sum_direct, fourier_identity_suite, gauss_sum_check, \
    invert_rational_matrix, regularized_product, smith_normal_form
from .report import compute_report, compute_report_from
from .seifert import SeifertData, ks_route, lens_chain, star_graph
from .torsion import WeightVector, delta_at_one_check, swiden_consistency, \
    torsion_table, weight_vector


class Check(NamedTuple):
    """One cross-check.  `passed` is True or False, or None on a note (the eta
    route in `seifert_routes`), which decides nothing; fixtures return no notes."""

    name: str
    passed: bool | None
    detail: str


def failed(checks) -> bool:
    """The one pass rule of a list of checks: some check has `passed is False`."""
    return any(check.passed is False for check in checks)


def _match(tag, lhs, rhs) -> Check:
    return Check(tag, lhs == rhs, f"{lhs} vs {rhs}")


def _pipeline(graph):
    lattice = build_lattice(graph)
    group = homology_from_lattice(lattice)
    return lattice, group


class _Tally:
    """The one counting rule: `check` counts one check, keeps its case if it failed and
    returns `passed`, so that a loop can stop at its first failure."""

    def __init__(self):
        self.count, self.failures = 0, []

    def check(self, passed, case):
        self.count += 1
        if not passed:
            self.failures.append(case)
        return passed

    def summary(self, label) -> Check:
        if self.failures:
            return Check(label, False,
                         f"{len(self.failures)}/{self.count} failed: {self.failures[:4]}")
        return Check(label, True, f"{self.count} checks")


def _sweep(label, cases, holds) -> Check:
    """One check per case, which must satisfy `holds`; a failed case is kept as it is."""
    tally = _Tally()
    for case in cases:
        tally.check(holds(case), case)
    return tally.summary(label)


# -- route lists: a builder's report against its independent routes ------------
# The closed forms are read through their modules, so that one skewed
# definition reaches the CLI and the fixtures alike.

def lens_routes(p, q, report):
    """L(p, q) against its closed forms in the Dedekind sum s(q, p)."""
    s_qp = dedekind.dr_sum(q, p)
    return [
        _match("torsion at 1", report.torsion_at_1, Fraction(p - 1, 4 * p) - s_qp),
        _match("Casson-Walker", report.casson_walker, Fraction(p, 2) * s_qp),
        _match("K^2 + #V", report.k2_plus_nv, Fraction(2 * (p - 1), p) - 12 * s_qp),
    ]


def seifert_routes(data, ks, lattice, group, report):
    """A star graph against the Seifert closed forms, the arm shortcut and the eta route `ks`."""
    checks = [
        _match("Casson-Walker (closed form)", report.casson_walker,
               seifert.seifert_casson_walker(data)),
        _match("K^2 + #V (closed form)", report.k2_plus_nv, seifert.seifert_k2nv(data)),
        _match("torsion at 1 (arm shortcut)", report.torsion_at_1,
               seifert.seifert_torsion_shortcut(data, lattice, group)),
        Check("eta-invariant route", None, f"KS = {ks.ks}, |S0+| = {ks.plus}, "
              f"|S0-| = {ks.minus}, applicable = {ks.applicable}"),
    ]
    if ks.applicable:
        checks.append(_match("sw0 via eta route", report.sw0, ks.sw0_ks))
    return checks


def brieskorn_routes(closed, report):
    """A link against its closed forms `closed`, and the signature identity -sw0 = sigma/8."""
    return [
        _match("|H| (closed form)", report.order_h, closed.order_h),
        _match("torsion at 1 (closed form)", report.torsion_at_1, closed.torsion_closed),
        _match("Casson-Walker (closed form)", report.casson_walker, closed.lambda_closed),
        _match("sw0 (closed form)", report.sw0, closed.sw0),
        Check(f"fiber signature = {closed.sigma_f}; -sw0 vs sigma/8",
              closed.gorenstein_check, f"{-closed.sw0} vs {closed.sigma_f / 8}"),
    ]


def _with_ks(build, keys):
    """(key, data, ks_route(data)) for the Seifert data `build(key)` of each key."""
    for key in keys:
        data = build(key)
        yield key, data, ks_route(data)


def _star_sweep(label, cases, holds) -> Check:
    """One check per case (key, data, ks), kept as `key` when it fails: the Seifert
    route list of data's star graph holds, and so does holds(key, ks, report)."""
    tally = _Tally()
    for key, data, ks in cases:
        lattice, group = _pipeline(star_graph(data))
        report = compute_report_from(lattice, group)
        tally.check(not failed(seifert_routes(data, ks, lattice, group, report))
                    and holds(key, ks, report), key)
    return tally.summary(label)


# -- criterion families -------------------------------------------------------

def lens_sweep():
    """All coprime (p, q) up to 50: closed forms for torsion, lambda, K^2+#V, zero gap."""
    def holds(pq):
        rep = compute_report(lens_chain(*pq))
        return not failed(lens_routes(*pq, rep)) and rep.conjecture_gap == 0

    pairs = [(p, q) for p in range(2, 51) for q in range(1, p) if gcd(p, q) == 1]
    return [_sweep("lens closed forms and zero gap, p <= 50", pairs, holds)]


def a_chain_sweep():
    """Chains of -2 curves up to 29 vertices: 8 sw0 = p - 1."""
    return [_sweep("(-2)-chain monopole count, p <= 30", range(2, 31),
                   lambda p: compute_report(a_chain(p)).sw0 == Fraction(p - 1, 8))]


def d_family():
    """Two routes for the dihedral-type stars: 8 sw0 = p + 2, p = n - 2."""
    return [_star_sweep("dihedral-type stars, both routes, 4 <= n <= 12",
                        _with_ks(dn_seifert, range(4, 13)),
                        lambda n, ks, rep: rep.sw0 == Fraction(n, 8) and ks.applicable)]


def e_family():
    """The three exceptional stars: sw0 = 6/8, 7/8, 1."""
    checks = []
    targets = {6: Fraction(6, 8), 7: Fraction(7, 8), 8: Fraction(1)}
    for kind, want in targets.items():
        got = compute_report(e_star(kind)).sw0
        checks.append(Check(f"exceptional star E{kind}: sw0", got == want,
                            f"{got} vs {want}"))
    # E7 via the eta-invariant route (KS = 7)
    ks = ks_route(SeifertData(-2, [(2, 1), (3, 2), (4, 3)]))
    checks.append(Check("E7 eta-invariant equals 7", ks.ks == 7 and ks.applicable,
                        f"KS = {ks.ks}"))
    # E6 and E8 through the complete-intersection closed forms
    for exps, want_sw, want_sig in [((2, 3, 4), Fraction(3, 4), -6),
                                    ((2, 3, 5), Fraction(1), -8)]:
        rep = closed_form_invariants(BrieskornSpec(exps))
        checks.append(Check(f"intersection link {exps}: signature route",
                            rep.sw0 == want_sw and rep.sigma_f == want_sig
                            and rep.gorenstein_check,
                            f"sw0 = {rep.sw0}, sigma = {rep.sigma_f}"))
    return checks


def three_arm_sweep():
    """Central -3 with three (m, m-1) arms: both routes, zero gap."""
    def holds(m, ks, rep):
        want = (Fraction(3 * m) - Fraction(m, 3) - 2) / 8
        plus_expected = (m - 3) // 6 + 1 if m > 3 else 0
        return (rep.sw0 == want and ks.applicable and ks.plus == plus_expected
                and rep.conjecture_gap == 0)

    return [_star_sweep("three-arm family, both routes, m in {2,4,5,7,8}",
                        _with_ks(three_arm_family, (2, 4, 5, 7, 8)), holds)]


def three_arm_m3():
    """The m = 3 member: eta route inapplicable, torsion route gives 3/4."""
    data = three_arm_family(3)
    rep = compute_report(star_graph(data))
    t1 = rep.torsion_at_1
    lam_over = rep.casson_walker / rep.order_h
    got = rep.sw0
    ks = ks_route(data)
    ok = (t1 == Fraction(5, 9) and lam_over == Fraction(-7, 36)
          and got == Fraction(3, 4)
          and rep.conjecture_gap == 0
          and not ks.applicable)
    return [Check("three-arm family at m = 3 (torsion route only)", ok,
                  f"T(1) = {t1}, lambda/|H| = {lam_over}, sw0 = {got}")]


def polygonal_family():
    """Cone-over-polygon stars: 8 sw0 = 17 + nu - sum(a_i), gap 1."""
    cases = ([3, 4, 5], [3, 3, 3, 3], [2, 2, 2, 2, 2],
             [3, 3, 3, 3, 3], [3, 3, 3, 3, 3, 3])
    return [_star_sweep("polygonal stars: count formula and unit gap",
                        _with_ks(polygonal_seifert, cases),
                        lambda a, ks, rep: (rep.sw0 == Fraction(17 + len(a) - sum(a), 8)
                                            and rep.conjecture_gap == 1 and ks.applicable))]


def nonstar_example():
    """The 13-vertex non-star graph; |H| = 3 gates the transcription."""
    rep = compute_report(nonstar_13_vertex())
    checks = [Check("non-star graph: |H| gate", rep.order_h == 3,
                    f"|H| = {rep.order_h}")]
    if rep.order_h == 3:
        t1 = rep.torsion_at_1
        lam_over = rep.casson_walker / 3
        got = rep.sw0
        k2 = rep.k2_plus_nv
        ok = (lam_over == Fraction(-49, 36) and t1 == Fraction(8, 9)
              and k2 == 10 and got == Fraction(9, 4)
              and rep.conjecture_gap == 1)
        checks.append(Check("non-star graph: invariants and unit gap", ok,
                            f"T(1) = {t1}, lambda/|H| = {lam_over}, "
                            f"K^2+#V = {k2}, sw0 = {got}"))
    return checks


def brieskorn_corpus():
    """Complete-intersection corpus: closed forms vs pipeline, signature check."""
    case_i = [(2, 3, 5), (2, 3, 7), (2, 3, 11), (4, 6, 5), (6, 10, 7),
              (6, 10, 7, 11)]
    case_ii = [(4, 2, 2, 3), (8, 2, 2, 3, 5)]
    checks = []
    for exps in case_i + case_ii:
        spec = BrieskornSpec(exps)
        cls = classify(spec)
        if cls.kind == "not_qhs":
            checks.append(Check(f"{exps}: classification", False, "not a QHS"))
            continue
        closed = closed_form_invariants(spec)
        ok = closed.gorenstein_check
        detail = f"{cls.kind}, |H| = {closed.order_h}, sw0 = {closed.sw0}"
        if closed.order_h <= 10 ** 4:     # the route list, signature check included
            got = compute_report(star_graph(brieskorn_seifert(spec)))
            ok = not failed(brieskorn_routes(closed, got))
            detail += ", pipeline cross-checked"
        checks.append(Check(f"intersection link {exps}", ok, detail))
    return checks


# -- property families --------------------------------------------------------

def _smith_holds(mat, snf) -> bool:
    """U * A * V = D, U and V unimodular, d_i | d_(i+1), zeros last."""
    diag = snf.diagonal
    chain_ok = all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1)
                   if diag[i])
    zeros_last = all(diag[j] == 0 for j in range(len(diag))
                     if any(diag[i] == 0 for i in range(j + 1)))
    return (snf.U * mat * snf.V == snf.D
            and abs(snf.U.det()) == 1 and abs(snf.V.det()) == 1
            and chain_ok and zeros_last)


def _blown_up(graph, size, rng):
    """Seeded vertex and edge blowups of `graph` until it has `size` vertices."""
    k = 0
    while len(graph.ids) < size:
        if graph.edges and rng.random() < 0.5:
            graph = blow_up_edge(graph, rng.choice(graph.edges), f"b{k}")
        else:
            graph = blow_up_vertex(graph, rng.choice(graph.ids), f"b{k}")
        k += 1
    return graph


def snf_and_inverse_props():
    rng = random.Random(20240901)
    tally = _Tally()
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = IntMatrix([[rng.randrange(-6, 7) for _ in range(cols)]
                         for _ in range(rows)])
        snf = smith_normal_form(mat)    # the oracle, against the report path's elimination
        sparse = [{j: x for j, x in enumerate(row) if x} for row in mat.entries]
        tally.check(_smith_holds(mat, snf)
                    and smith_elimination(sparse, cols).diagonal == snf.diagonal, mat.entries)
    for _ in range(25):     # a singular draw counts, and passes
        n = rng.randrange(1, 6)
        mat = IntMatrix([[rng.randrange(-5, 6) for _ in range(n)]
                         for _ in range(n)])
        tally.check(mat.det() == 0 or invert_rational_matrix(mat) == adjugate_inverse(mat),
                    mat.entries)
    fixed = IntMatrix([[-2, 1], [1, -2]])
    tally.check(smith_normal_form(fixed).diagonal == (1, 3), "fixed-chain")
    trees = 0
    while trees < 20:       # tree cofactors and tree solves against the dense inverse
        n = rng.randrange(1, 13)
        order = rng.sample(range(n), n)
        graph = PlumbingGraph([(f"v{i}", rng.randrange(-5, 0)) for i in range(n)],
                              [(f"v{order[i]}", f"v{order[rng.randrange(i)]}")
                               for i in range(1, n)])
        try:
            lattice = build_lattice(graph)
        except NotNegativeDefinite:
            continue
        trees += 1
        scaled = tuple(tuple(-lattice.order_h * x for x in row)
                       for row in invert_rational_matrix(lattice.I))
        b = [v % 7 - 3 for v in range(n)]     # fixed, so the draws below do not depend on it
        tally.check(lattice.adj == scaled and lattice.det == lattice.I.det()
                    and lattice.solve(b) == [sum(a * x for a, x in zip(row, b)) for row in scaled]
                    and lattice.adj_diagonal == tuple(scaled[v][v] for v in range(n)),
                    graph.to_dict())
    # intersection matrices of blown-up trees: the pivot sequences of real input,
    # and the report path's factors and meridian images (U[kept] mod d_i)
    for base, size in ((star_graph(dn_seifert(6)), 40), (e_star(7), 47),
                       (nonstar_13_vertex(), 54), (lens_chain(25, 7), 60)):
        graph = _blown_up(base, size, rng)
        lattice, group = _pipeline(graph)
        snf = smith_normal_form(lattice.I)
        kept = [i for i, d in enumerate(snf.diagonal) if d > 1]
        tally.check(_smith_holds(lattice.I, snf)
                    and group.invariant_factors == tuple(snf.diagonal[i] for i in kept)
                    and group.generator_images == tuple(
                        tuple(snf.U[i, v] % snf.diagonal[i] for i in kept)
                        for v in range(lattice.size)),
                    graph.to_dict())
    return [tally.summary("integer normal form and exact inverse oracles")]


def cyclotomic_props():
    tally = _Tally()
    tally.check(cyclotomic_polynomial(1) == (-1, 1) and cyclotomic_polynomial(4) == (1, 0, 1)
                and cyclotomic_polynomial(12) == (1, 0, -1, 0, 1), "small-polynomials")
    rng = random.Random(77)
    for n in range(2, 25):
        field = cyclotomic_field(n)
        zero_sum = field.zero()
        for k in range(n):
            zero_sum = zero_sum + field.root_of_unity(k)
        tally.check(zero_sum.is_zero, ("root-sum", n))
        a = field.element([Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                           for _ in range(field.degree)])
        b = field.root_of_unity(rng.randrange(n)) + field.rational(2)
        c = field.element([rng.randrange(-3, 4) for _ in range(field.degree)])
        tally.check((a + b) * c == a * c + b * c and a * b == b * a
                    and (a + b) + c == a + (b + c), ("ring-axioms", n))
        tally.check(all(field.inv_root_minus_one(k) * field.root_minus_one(k) == field.one()
                        for k in range(1, n)), ("inverse", n))
    return [tally.summary("cyclotomic field axioms and root sums")]


def dedekind_props():
    tally = _Tally()
    # reciprocity sweep
    for k in range(1, 61):
        for h in range(1, k):
            if gcd(h, k) == 1:
                tally.check(dedekind.dr_sum(h, k) + dedekind.dr_sum(k, h)
                            == Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k),
                            ("reciprocity", h, k))
    # fast path against the direct oracle, shifted arguments included
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randrange(1, 501)
        h = rng.randrange(-2 * k, 2 * k + 1)
        if gcd(h, k) != 1:
            continue
        x = Fraction(rng.randrange(-12, 13), rng.randrange(1, 13))
        y = Fraction(rng.randrange(-12, 13), rng.randrange(1, 13))
        tally.check(dedekind.dr_sum(h, k, x, y) == dr_sum_direct(h, k, x, y),
                    ("oracle", h, k, str(x), str(y)))
    # shift periodicity
    for _ in range(40):
        k = rng.randrange(2, 40)
        h = rng.randrange(1, k)
        if gcd(h, k) != 1:
            continue
        x = Fraction(rng.randrange(-6, 7), rng.randrange(1, 9))
        y = Fraction(rng.randrange(-6, 7), rng.randrange(1, 9))
        tally.check(dedekind.dr_sum(h, k, x, y) == dedekind.dr_sum(h, k, x + 3, y - 2),
                    ("periodicity", h, k))
    # averaging identity for the sawtooth
    for k in range(1, 31):
        for _ in range(10):
            w = Fraction(rng.randrange(-20, 21), rng.randrange(1, 12))
            tally.check(sum(dedekind.dedekind_symbol(Fraction(mu + w, k)) for mu in range(k))
                        == dedekind.dedekind_symbol(w), ("averaging", k, str(w)))
    # root-of-unity sums against their closed forms, one check per suite, which
    # names its failing identities; twist exponents swept low
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            for t in ((0, 1, 2, 3) if p <= 15 else (0,)):
                bad = [name for name, lhs, rhs in fourier_identity_suite(p, q, t)
                       if lhs != rhs]
                tally.check(not bad, (*bad, p, q, t))
    return [tally.summary("Dedekind sums: reciprocity, oracle, root-of-unity identities")]


def torsion_props():
    tally = _Tally()
    for name, graph in standard_corpus():
        lattice, group = _pipeline(graph)
        for v0 in range(lattice.size):
            tally.check(delta_at_one_check(lattice, v0), ("order-count", name, v0))
        if group.order == 1 or group.order > 200:
            continue
        # base-vertex and scale independence
        wv_cache, transform = {}, []
        for chi in group.characters():
            if chi.is_trivial:
                continue
            exps = [group.char_exponent(chi, gi) for gi in group.generator_images]
            values = set()
            for v0 in range(lattice.size):
                if exps[v0] or any(exps[u] for u in lattice.neighbors[v0]):
                    wv = wv_cache.get(v0)
                    if wv is None:
                        wv = wv_cache[v0] = weight_vector(lattice, v0)
                    values.add(regularized_product(lattice, group, chi, wv))
                    if v0 == wv.v0 and len(values) == 1:
                        scaled = WeightVector(v0=wv.v0, m=3 * wv.m,
                                              w=tuple(3 * x for x in wv.w))
                        values.add(regularized_product(lattice, group, chi, scaled))
            tally.check(len(values) == 1, ("independence", name, chi.exponents))
            transform.append((chi, values.pop()))
        # conjugation symmetry: T(h) = T(conjugate of h) on all of H, which by
        # Fourier uniqueness is R(chi) = chibar(c) * R(chibar) for every chi
        tfun, field = torsion_table(lattice, group).invert(), group.field
        for h, t in tfun.items():
            tally.check(t == tfun[spinc_conjugate(lattice, group, h)], ("symmetry", name, h))
            reference = sum((field.root_of_unity(-group.char_exponent(chi, h)) * r
                             for chi, r in transform), field.zero()) * Fraction(1, group.order)
            tally.check(t == reference.as_rational(), ("reference", name, h))
    return [tally.summary("torsion transform: order counting, independence, symmetry, "
                          "reference")]


def swiden_family():
    tally = _Tally()
    for name, graph in standard_corpus():
        lattice, group = _pipeline(graph)
        if group.order > 500 or group.order == 1:
            continue
        for offsets in ([group.identity], list(group.elements())[-1:]):
            tally.check(swiden_consistency(lattice, group, offsets), (name, offsets))
    return [tally.summary("torsion vs quadratic-function identities, |H| <= 500")]


def quadratic_function_family():
    tally = _Tally()
    rng = random.Random(11)
    for name, graph in standard_corpus():
        lattice, group = _pipeline(graph)
        # Gauss sums against sqrt|H| times an eighth root of unity, in Q(zeta_L)
        if group.order <= GAUSS_ORDER_CAP:
            computed, predicted = gauss_sum_check(lattice, group)
            tally.check(computed == predicted, ("gauss", name))
        if group.order > 200 or group.order == 1:
            continue
        elements = list(group.elements())
        qvals = {h: q_can(lattice, group, h) for h in elements}
        # q and b in integers: scaled by the lcm of their denominators
        den, bform_row = linking_rows(lattice, group,
                                      lcm(*(q.denominator for q in qvals.values())))
        qint = {h: q.numerator * (den // q.denominator) for h, q in qvals.items()}

        # quadratic-function law against the linking form, up to the first failing h
        for g in elements:
            qg = qint[g]
            for h, b in zip(elements, bform_row(g)):
                if not tally.check((qint[group.add(g, h)] - qg - qint[h] - b) % den == 0,
                                   ("law", name, g, h)):
                    break
        # lift independence: shift a lift by a column of the intersection matrix
        for h in elements[:6]:
            base = group.lift(h)
            col = rng.randrange(lattice.size)
            shifted = tuple(x + lattice.I[v, col] for v, x in enumerate(base))
            tally.check(qvals[h] == q_can(lattice, group, h, lift=shifted), ("lift", name, h))
        # quadratic form refinement in the integral-cycle case
        if numerically_gorenstein(lattice):
            for h in elements:
                for c in (2, 3):
                    tally.check((qvals[group.scale(c, h)] - c * c * qvals[h]) % 1 == 0,
                                ("form", name, h, c))
        # conjugation is an involution
        for h in elements:
            twice = spinc_conjugate(lattice, group, spinc_conjugate(lattice, group, h))
            tally.check(twice == h, ("involution", name, h))
        # linking form nondegeneracy
        rows = {tuple(bform_row(g)) for g in elements}
        tally.check(len(rows) == group.order, ("nondegenerate", name))
    return [tally.summary("quadratic functions, linking form, Gauss sums")]


def _blowup_invariants(rep):
    return (rep.order_h, rep.k2_plus_nv, rep.casson_walker, rep.torsion_at_1, rep.sw0)


def blowup_family():
    tally = _Tally()
    for name, graph in standard_corpus():
        lattice, group = _pipeline(graph)
        if group.order > 300:
            continue
        base = _blowup_invariants(compute_report_from(lattice, group))
        moved = [blow_up_vertex(graph, graph.ids[0])]
        if graph.edges:
            moved.append(blow_up_edge(graph, graph.edges[0]))
        for g2 in moved:
            tally.check(_blowup_invariants(compute_report(g2)) == base, name)
    return [tally.summary("blowup stability of all invariants")]


def _random_seifert(rng, nu_stop, alpha_stop, lower_b):
    """Seeded arms (a, w), w = 1 where the draw is not coprime to a, and b (lowered
    by nu // 2 if `lower_b`); None when the data is not normalized."""
    nu = rng.randrange(3, nu_stop)
    arms = []
    for _ in range(nu):
        a = rng.randrange(2, alpha_stop)
        w = rng.randrange(1, a)
        arms.append((a, w if gcd(a, w) == 1 else 1))
    b = -rng.randrange(1, 4) - (nu // 2 if lower_b else 0)
    try:
        return SeifertData(b, arms)
    except ValueError:
        return None


def seifert_round_trip():
    """Torsion-free graph routes on random data; the arm shortcut on the star corpus."""
    trips = _Tally()
    rng = random.Random(321)
    while trips.count < 20:
        data = _random_seifert(rng, 6, 13, lower_b=True)
        if data is None:
            continue
        lattice, group = _pipeline(star_graph(data))
        trips.check(seifert.seifert_casson_walker(data) == casson_walker(lattice)
                    and seifert.seifert_k2nv(data) == k2_plus_nv(lattice)
                    and data.order_h == group.order
                    and data.b <= data.e < 0
                    # the graph route on the arms reversed: another tree and vertex order
                    and casson_walker(build_lattice(star_graph(SeifertData(
                        data.b, data.arms[::-1])))) == seifert.seifert_casson_walker(data),
                    (data.b, data.arms))
    # arm-level torsion shortcut against the generic route, star corpus
    shortcut = _Tally()
    star_data = ([dn_seifert(n) for n in (4, 5, 6)]
                 + [three_arm_family(m) for m in (2, 3, 4, 5)]
                 + [polygonal_seifert(a) for a in ([3, 4, 5], [2] * 5)]
                 + [SeifertData(-2, [(2, 1), (3, 2), (4, 3)])])
    for data in star_data:
        lattice, group = _pipeline(star_graph(data))
        table = torsion_table(lattice, group)
        for h in (group.identity, next(reversed(list(group.elements())))):
            shortcut.check(seifert.seifert_torsion_shortcut(data, lattice, group, h)
                           == table.at(h), data.arms)
    return [trips.summary("random Seifert data round trips"),
            shortcut.summary("arm-level torsion shortcut agreement")]


def eta_route_cross_check():
    """Random Seifert data: whenever the eta route applies, the Seifert route list
    (the eta route against the torsion route among them) must hold."""
    def applicable(rng):
        found = 0
        for _ in range(4000):
            if found == 25:
                return
            data = _random_seifert(rng, 5, 9, lower_b=False)
            if data is None or data.order_h > 250:
                continue
            ks = ks_route(data)
            if ks.applicable:
                found += 1
                yield (data.b, data.arms), data, ks

    return [_star_sweep("eta route equals torsion route when applicable",
                        applicable(random.Random(424242)), lambda *_: True)]


def unimodular_family():
    graphs = {"E8": e_star(8),
              "Sigma(2,3,7)": star_graph(brieskorn_seifert(BrieskornSpec((2, 3, 7)))),
              "Sigma(2,3,11)": star_graph(brieskorn_seifert(BrieskornSpec((2, 3, 11))))}

    def holds(name):
        rep = compute_report(graphs[name])
        return rep.order_h == 1 and rep.sw0 == -rep.casson_walker

    return [_sweep("unimodular graphs: monopole count is minus Casson", graphs, holds)]


def nonnegativity_sweep():
    items = standard_corpus() + [(f"link{exps}", star_graph(brieskorn_seifert(BrieskornSpec(exps))))
                                 for exps in [(2, 3, 5), (4, 6, 5), (4, 2, 2, 3)]]
    gaps = ((name, compute_report(graph).conjecture_gap) for name, graph in items)
    return [_sweep("conjectured gap nonnegative across the corpus", gaps,
                   lambda case: case[1] >= 0)]


FIXTURES = (
    ("01-lens-spaces", lens_sweep),
    ("02-minus-two-chains", a_chain_sweep),
    ("03-dihedral-stars", d_family),
    ("04-exceptional-stars", e_family),
    ("05-three-arm-family", three_arm_sweep),
    ("06-three-arm-m3", three_arm_m3),
    ("07-polygonal-stars", polygonal_family),
    ("08-nonstar-graph", nonstar_example),
    ("09-intersection-links", brieskorn_corpus),
    ("10-normal-form-oracles", snf_and_inverse_props),
    ("11-cyclotomic-axioms", cyclotomic_props),
    ("12-dedekind-identities", dedekind_props),
    ("13-torsion-properties", torsion_props),
    ("14-quadratic-identities", swiden_family),
    ("15-linking-and-gauss", quadratic_function_family),
    ("16-blowup-stability", blowup_family),
    ("17-seifert-round-trip", seifert_round_trip),
    ("18-eta-route-random", eta_route_cross_check),
    ("19-unimodular", unimodular_family),
    ("20-nonnegative-gap", nonnegativity_sweep),
)


def fixture_names():
    return tuple(name for name, _ in FIXTURES)


def run(names=None) -> bool:
    """Run the fixture families (all by default); one pass/fail line per check.

    Raises ValueError, before any fixture runs, on a name that is not a fixture.
    """
    wanted = set(names) if names else None
    unknown = sorted(wanted - set(fixture_names())) if wanted else []
    if unknown:
        raise ValueError(f"unknown fixtures: {', '.join(unknown)}")
    all_ok = True
    for name, fn in FIXTURES:
        if wanted and name not in wanted:
            continue
        try:
            checks = fn()
        except Exception as exc:    # an internal fault fails its fixture, not the run
            print(f"[FAIL] {name}: raised {type(exc).__name__}: {exc}")
            all_ok = False
            continue
        for label, passed, detail in checks:
            flag = "PASS" if passed else "FAIL"
            print(f"[{flag}] {name}: {label} ({detail})")
            all_ok = all_ok and passed
    print("result: " + ("all fixtures passed" if all_ok else "FAILURES detected"))
    return all_ok
