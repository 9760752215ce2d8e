"""Torsion transform: regularization, tables, monopole counts, identities."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import floor, gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from swplumb import report, torsion
from swplumb.corpus import (a_chain, e_star, nonstar_13_vertex, standard_corpus,
                            three_arm_family)
from swplumb.errors import InvalidBaseVertex, OrderCapExceeded
from swplumb.homology import Character, spinc_conjugate
from swplumb.plumbing import build_lattice, casson_walker
from swplumb.seifert import (SeifertData, lens_chain, seifert_torsion_shortcut,
                             star_graph)
from swplumb.plumbing import PlumbingGraph
from swplumb.reference import regularized_product
from swplumb.torsion import (WeightVector, delta_at_one_check, moebius_terms,
                             orbit_characters, prime_divisors,
                             swiden_consistency, torsion_table, weight_vector)
from swplumb.verify import _pipeline as pipeline


def graph_report(graph):
    return report.compute_report_from(*pipeline(graph))


class TestWeightVector:
    def test_single_vertex(self):
        lattice, _ = pipeline(a_chain(2))
        wv = weight_vector(lattice, 0)
        assert (wv.m, wv.w) == (2, (1,))

    def test_chain(self):
        lattice, _ = pipeline(a_chain(3))
        assert weight_vector(lattice, 0) == WeightVector(v0=0, m=3, w=(2, 1))

    def test_star_center(self):
        from swplumb.brieskorn import BrieskornSpec, brieskorn_seifert
        graph = star_graph(brieskorn_seifert(BrieskornSpec((2, 3, 5))))
        lattice, _ = pipeline(graph)
        center = lattice.index_of("c")
        wv = weight_vector(lattice, center)
        assert wv.m == 1
        assert wv.w[center] == 30
        ends = [lattice.index_of(i) for i in ("a0v0", "a1v1", "a2v3")]
        assert [wv.w[v] for v in ends] == [15, 10, 6]


class TestRegularizedProduct:
    def test_no_regularization_needed(self):
        lattice, group = pipeline(a_chain(2))
        chi = list(group.characters())[1]
        wv = weight_vector(lattice, 0)
        value = regularized_product(lattice, group, chi, wv)
        # isolated vertex has degree 0: (chi(g) - 1)^(-2) = 1/4
        assert value == group.field.rational(Fraction(1, 4))

    def test_lens_product_shape(self):
        # L(7,3) has one Galois orbit; its polynomial f at zeta^u is R(chi0^u),
        # the product of the two end factors 1/(chi(g_v) - 1)
        lattice, group = pipeline(lens_chain(7, 3))
        field = group.field
        table, seen = recorded_table(lattice, group)
        (c0, _, _), = table.orbits
        (_, _, (num, den)), = seen
        ends = [v for v in range(lattice.size) if lattice.degrees[v] == 1]
        for chi in group.characters():
            if chi.is_trivial:
                continue
            # chi0(h) = zeta_7^(c0 h) and chi(h) = zeta_7^(k h), so chi = chi0^u
            u = chi.exponents[0] * pow(c0[0], -1, 7) % 7
            conjugate = [Fraction(0)] * 7
            for j, x in enumerate(num):
                conjugate[u * j % 7] += Fraction(x, den)
            exps = [group.char_exponent(chi, group.generator_images[v])
                    for v in ends]
            want = field.inv_root_minus_one(exps[0]) \
                * field.inv_root_minus_one(exps[1])
            assert field.element(conjugate) == want
            assert regularized_product(lattice, group, chi,
                                       weight_vector(lattice, ends[0])) == want

    def test_inadmissible_base_vertex(self):
        # on the m=3 family some characters fix the whole central region
        lattice, group = pipeline(star_graph(three_arm_family(3)))
        images = group.generator_images
        found = False
        for chi in group.characters():
            if chi.is_trivial:
                continue
            exps = [group.char_exponent(chi, g) for g in images]
            for v0 in range(lattice.size):
                if exps[v0] == 0 and all(exps[u] == 0
                                         for u in lattice.neighbors[v0]):
                    wv = weight_vector(lattice, v0)
                    with pytest.raises(InvalidBaseVertex):
                        regularized_product(lattice, group, chi, wv)
                    found = True
                    break
            if found:
                break
        assert found

    def test_base_vertex_independence(self):
        for name, graph in standard_corpus():
            lattice, group = pipeline(graph)
            if not 1 < group.order <= 120:
                continue
            for chi in group.characters():
                if chi.is_trivial:
                    continue
                exps = [group.char_exponent(chi, g)
                        for g in group.generator_images]
                values = set()
                for v0 in range(lattice.size):
                    if exps[v0] or any(exps[u] for u in lattice.neighbors[v0]):
                        wv = weight_vector(lattice, v0)
                        values.add(regularized_product(lattice, group, chi, wv))
                assert len(values) == 1, (name, chi)

    def test_scale_independence(self):
        lattice, group = pipeline(star_graph(three_arm_family(2)))
        chi = [c for c in group.characters() if not c.is_trivial][0]
        wv = weight_vector(lattice, 0)
        base = regularized_product(lattice, group, chi, wv)
        for c in (2, 3):
            scaled = WeightVector(v0=wv.v0, m=c * wv.m,
                                  w=tuple(c * x for x in wv.w))
            assert regularized_product(lattice, group, chi, scaled) == base


class TestTorsionTable:
    def test_single_vertex(self):
        # one orbit, d = 2, form c = (1,): 1/(x - 1)^2 = (x/2)^2 = 1/4 in Q[x]/(x^2 - 1)
        lattice, group = pipeline(a_chain(2))
        table, seen = recorded_table(lattice, group)
        assert table.dims == (2,)
        assert [product for *_, product in seen] == [([1, 0], 4)]
        # stored as the residue sums mod q = 2 and q = 1, weighted by mu q common / den
        assert table.den == 4 and table.orbits == (((1,), 2, ((2, [1, 0]), (-1, [1]))),)
        assert table.at(group.identity) == Fraction(1, 8)
        assert table.at((1,)) == Fraction(-1, 8)

    def test_chain_three(self):
        lattice, group = pipeline(a_chain(3))
        assert torsion_table(lattice, group).at(group.identity) == Fraction(2, 9)

    def test_nonstar_graph(self):
        lattice, group = pipeline(nonstar_13_vertex())
        assert torsion_table(lattice, group).at(group.identity) == Fraction(8, 9)

    def test_symmetry_under_conjugation(self):
        # T(h) = T(conjugate of h) for every h; by Fourier uniqueness this is
        # R(chi) = chibar(c) * R(chibar) for every character
        for name, graph in standard_corpus():
            lattice, group = pipeline(graph)
            if not 1 < group.order <= 200:
                continue
            tfun = torsion_table(lattice, group).invert()
            for h, t in tfun.items():
                assert t == tfun[spinc_conjugate(lattice, group, h)], (name, h)


def small_corpus():
    """Standard-corpus pipelines with 1 < |H| <= 60, cyclic or not."""
    for name, graph in standard_corpus():
        lattice, group = pipeline(graph)
        if 1 < group.order <= 60:
            yield name, lattice, group


class TestFourierInversion:
    def test_spinc_table_is_the_torsion_function(self):
        noncyclic = set()
        for name, lattice, group in small_corpus():
            lam_over_h = casson_walker(lattice) / group.order
            rows = report.compute_report_from(lattice, group, all_spinc=True).spinc_table
            want = [(h, t - lam_over_h)
                    for h, t in torsion_table(lattice, group).invert().items()]
            assert list(rows) == want, name
            assert all(type(v) is Fraction for _, v in rows), name
            if group.rank > 1:
                noncyclic.add(name)
        assert {"D4", "3arm(m=2)", "polygonal(2^5)"} <= noncyclic

    def test_all_spinc_runs_one_forward_transform(self, monkeypatch):
        calls = []
        real = torsion.orbit_table

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # wherever the transform can be reached from the report
        monkeypatch.setattr(torsion, "orbit_table", counted)
        monkeypatch.setattr(report, "orbit_table", counted, raising=False)
        lattice, group = pipeline(star_graph(three_arm_family(2)))
        assert report.compute_report_from(lattice, group, all_spinc=True).spinc_table
        assert len(calls) == 1


def reference_torsion(lattice, group):
    """{h: T(h)} as (1/|H|) sum_chi chibar(h) * regularized_product(chi), in Q(zeta_N).

    as_rational certifies that every value is rational.
    """
    field = group.field
    transform = []
    for chi in group.characters():
        if not chi.is_trivial:
            vstar = next(v for v, g in enumerate(group.generator_images)
                         if group.char_exponent(chi, g))
            wv = weight_vector(lattice, vstar)
            transform.append((chi, regularized_product(lattice, group, chi, wv)))
    return {h: (sum((field.root_of_unity(-group.char_exponent(chi, h)) * value
                     for chi, value in transform), field.zero())
                * Fraction(1, group.order)).as_rational()
            for h in group.elements()}


def seeded_seifert(count=150, max_order=60):
    """Seeded normalized Seifert data with 0-5 arms and 1 < |H| <= max_order."""
    rng = random.Random(2)
    out = []
    while len(out) < count:
        arms = []
        for _ in range(rng.randrange(6)):
            a = rng.randrange(2, 7)
            arms.append((a, rng.choice([w for w in range(1, a) if gcd(a, w) == 1])))
        b = -floor(sum(Fraction(w, a) for a, w in arms)) - 1 - rng.randrange(2)
        data = SeifertData(b, arms)
        if 1 < data.order_h <= max_order:
            out.append(data)
    return out


class TestOrbitTableAgainstReference:
    # one trace per Galois orbit against one Q(zeta_N) product per character

    def test_corpus(self):
        # and the stored form against the per-point trace formula, at every point
        groups = set()
        for name, graph in standard_corpus():
            lattice, group = pipeline(graph)
            if 1 < group.order <= 120:
                table, seen = recorded_table(lattice, group)
                assert_stored_form(table, seen)
                values = table.invert()
                assert values == reference_torsion(lattice, group), name
                for h in group.elements():
                    assert values[h] == table.at(h) == per_orbit_torsion(table, seen, group, h)
                groups.add(group.invariant_factors)
        assert {(12,), (25,), (2, 2), (3, 9), (4, 12), (2, 2, 2, 2)} <= groups

    def test_seeded_seifert(self):
        orders, noncyclic = set(), 0
        for data in seeded_seifert():
            lattice, group = pipeline(star_graph(data))
            want = reference_torsion(lattice, group)
            assert torsion_table(lattice, group).invert() == want, data
            for h, t in want.items():
                assert seifert_torsion_shortcut(data, lattice, group, h) == t, (data, h)
            orders.add(group.order)
            noncyclic += group.rank > 1
        assert {8, 9, 12, 27, 36, 48} <= orders
        assert noncyclic >= 10
        assert {len(data.arms) for data in seeded_seifert()} == set(range(6))


def orbit_trace(num, e) -> int:
    """The trace sum_j num[j] c_d(j - e) of x^-e num in Q[x]/(x^d - 1), d = len(num),
    one point at a time: the oracle of the table's residue sums."""
    return sum(m * q * sum(num[e % q::q]) for q, m in moebius_terms(len(num)))


def recorded_table(lattice, group):
    """The torsion table, and (d, factors, orbit_product's value) for each orbit in order."""
    real, seen = torsion.orbit_product, []

    def recording(d, factors):
        seen.append((d, list(factors), real(d, factors)))
        return seen[-1][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torsion, "orbit_product", recording)
        table = torsion_table(lattice, group)
    return table, seen


def assert_stored_form(table, seen):
    """Each orbit's weighted residue sums, read at e over `den`, give its trace at every e."""
    products = [product for *_, product in seen if product is not None]
    assert len(products) == len(table.orbits) and table.den == lcm(*(den for _, den in products))
    for (_, d, sums), (num, den) in zip(table.orbits, products):
        assert len(num) == d and [len(s) for _, s in sums] == [q for q, _ in moebius_terms(d)]
        for e in range(d):
            assert Fraction(sum(w * s[e % len(s)] for w, s in sums), table.den) \
                == Fraction(orbit_trace(num, e), den), (d, e)


def per_orbit_torsion(table, seen, group, h):
    """T(h) as a sum of one Fraction per orbit, each per-point trace over its own denominator
    (`assert_stored_form` pairs the orbits with their products).

    Each orbit's form c of order d is read back as its character k_i = c_i d_i / d
    and evaluated by the group, not by the form.
    """
    total, products = Fraction(0), [product for *_, product in seen if product is not None]
    for (c, d, _), (num, den) in zip(table.orbits, products):
        k = [x * m // d for x, m in zip(c, group.invariant_factors)]
        assert [x * d // m for x, m in zip(k, group.invariant_factors)] == list(c)
        e = group.char_exponent(Character(tuple(k)), h) * d // group.exponent
        total += Fraction(orbit_trace(num, e), den)
    return total / group.order


STAR_ARMS = [(a, w) for a in range(2, 8) for w in range(1, a) if gcd(a, w) == 1]


def star_bs(arms):
    """The two central Euler numbers of a star: -floor(sum w/a) - 1 and one below."""
    top = -floor(sum(Fraction(w, a) for a, w in arms)) - 1
    return top, top - 1


def small_star_table():
    """(sorted arms, b) for each multiset of 3-5 arms from STAR_ARMS and b in
    `star_bs` with 1 < |H| <= 60.  In integers: with A the product of the
    orders and S = sum w A / a, floor(sum w/a) = S // A and |H| = |b A + S|."""
    table = []
    for n in range(3, 6):
        for arms in combinations_with_replacement(STAR_ARMS, n):
            big_a = prod(a for a, _ in arms)
            s = sum(w * (big_a // a) for a, w in arms)
            table += [(arms, b) for b in (-(s // big_a) - 1, -(s // big_a) - 2)
                      if 1 < abs(b * big_a + s) <= 60]
    return table


SMALL_STARS = small_star_table()


@st.composite
def small_stars(draw):
    """Seifert stars with 3-5 arms of order <= 7 and 1 < |H| <= 60: an admissible
    multiset of arms and b from SMALL_STARS, then an order of the arms."""
    arms, b = draw(st.sampled_from(SMALL_STARS))
    return SeifertData(b, draw(st.permutations(arms)))


def test_small_star_table_keeps_what_the_order_filter_keeps():
    # all of it on three arms, and each entry on four and five
    def kept(arms, b):
        return 1 < SeifertData(b, arms).order_h <= 60

    three = {(arms, b) for arms in combinations_with_replacement(STAR_ARMS, 3)
             for b in star_bs(arms) if kept(arms, b)}
    assert three == {(arms, b) for arms, b in SMALL_STARS if len(arms) == 3}
    assert all(b in star_bs(arms) and kept(arms, b) for arms, b in SMALL_STARS)


def scan_orbits(dims):
    """{(orbit, d)}: the Galois orbits of the nontrivial characters of prod Z/d_i, by a scan.

    Every character is visited in lexicographic order, and each one not yet
    seen starts a new orbit {u k : u a unit mod d}: O(|H|) work, the oracle of
    `orbit_characters`.
    """
    strides = [prod(dims[i + 1:]) for i in range(len(dims))]
    seen = bytearray(prod(dims))      # visited characters, by lexicographic position
    orbits, pos = set(), 0            # the trivial character sits at 0
    while (pos := seen.find(0, pos + 1)) >= 0:
        k = tuple(pos // s % m for s, m in zip(strides, dims))
        d = lcm(*(m // gcd(m, x) for x, m in zip(k, dims)))    # the order of k
        orbit = frozenset(tuple(u * x % m for x, m in zip(k, dims))
                          for u in range(1, d) if gcd(u, d) == 1)
        for member in orbit:
            seen[sum(x * s for x, s in zip(member, strides))] = 1
        orbits.add((orbit, d))
    return orbits


def abelian_groups(limit, max_factor=None, max_rank=None):
    """Invariant factors d_1 | d_2 | ... (d_1 >= 2) of the abelian groups of order <= limit."""
    out = []

    def grow(dims, order):
        if len(dims) == max_rank:
            return
        for m in range(dims[-1] if dims else 2, min(limit // order, max_factor or limit) + 1):
            if not dims or m % dims[-1] == 0:
                out.append(dims + (m,))
                grow(dims + (m,), order * m)

    grow((), 1)
    return out


def totients(limit):
    """[phi(n) for n <= limit], by a sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for n in range(p, limit + 1, p):
                phi[n] -= phi[n] // p
    return phi


class TestOrbitCharacters:
    """One character per Galois orbit, found as a cyclic subgroup, against the scan."""

    def test_equals_the_scan(self):
        groups = set(abelian_groups(3000, max_factor=24, max_rank=3)) | set(abelian_groups(128))
        assert len(abelian_groups(3000, max_factor=24, max_rank=3)) == 185
        assert {(3, 3, 6), (2, 4, 8), (2, 2, 2, 2, 2), (2, 2, 4, 8), (12, 12, 12)} <= groups
        for dims in groups:
            found = list(orbit_characters(dims))
            got = {(frozenset(tuple(u * x % m for x, m in zip(k, dims))
                              for u in range(1, d) if gcd(u, d) == 1), d) for k, d in found}
            assert len(got) == len(found), dims
            assert got == scan_orbits(dims), dims

    def test_every_group_up_to_order_3000(self):
        # each representative has its order d, and the orbits, phi(d) characters
        # each, cover the |H| - 1 nontrivial characters
        phi = totients(3000)
        groups = abelian_groups(3000)
        assert len(groups) == 6492
        for dims in groups:
            total = 0
            for k, d in orbit_characters(dims):
                assert lcm(*(m // gcd(m, x) for x, m in zip(k, dims))) == d, (dims, k)
                total += phi[d]
            assert total == prod(dims) - 1, dims

    def test_cyclic_group_one_orbit_per_divisor(self):
        for n in (2, 12, 97, 360, 999983):
            found = list(orbit_characters((n,)))
            assert sorted(n // gcd(k, n) for (k,), _ in found) \
                == sorted(d for _, d in found) == [d for d in range(2, n + 1) if n % d == 0]
        assert list(orbit_characters(())) == []

    def test_prime_divisors_and_moebius_terms(self):
        assert prime_divisors(1) == [] and prime_divisors(360) == [2, 3, 5]
        assert prime_divisors(999983) == [999983]
        assert moebius_terms(12) == [(12, 1), (6, -1), (4, -1), (2, 1)]


def reference_orbit_product(d, factors):
    """The orbit kernel with one multiplication per factor: the reference of `orbit_product`.

    (numerators, denominator) of prod (t^w * x^a - 1)^p at t = 1 in Q[x]/(x^d - 1),
    or None when the product vanishes.
    """
    if sum(p for a, p, _ in factors if a == 0) > 0:
        return None
    scalar = prod((Fraction(w) ** p for a, p, w in factors if a == 0), start=Fraction(1))
    f, den = [scalar.numerator] + [0] * (d - 1), scalar.denominator
    for a, p, _ in factors:
        if a == 0:
            continue
        for _ in range(p):
            f = [x - y for x, y in zip(f[-a:] + f[:-a], f)]
        for _ in range(-p):
            k, out = d // gcd(a, d), [0] * d
            for r in range(d // k):
                run = [f[(r + a * i) % d] for i in range(k)]
                value, total = sum((-i % k) * x for i, x in enumerate(run)), sum(run)
                for i in range(k):
                    out[(r + a * i) % d] = value
                    value += total - k * run[(i + 1) % k]
            f, den = out, den * k
    return f, den


def blown_up(graph, at):
    """The graph with a -1 leaf on each vertex of `at`, whose Euler numbers drop by one.

    The same manifold; the leaf's meridian equals its neighbor's, so every
    character gives the leaf (power -1) and a vertex of degree 2 made degree 3
    (power +1) one exponent.
    """
    bumped = {vid: e - at.count(vid) for vid, e in graph.vertices}
    leaves = [(f"leaf{i}", -1) for i in range(len(at))]
    return PlumbingGraph(list(bumped.items()) + leaves,
                         list(graph.edges) + [(vid, f"leaf{i}") for i, vid in enumerate(at)])


class TestNetPowerKernel:
    """`orbit_product` nets the powers of one exponent; every trace is unchanged."""

    def assert_traces_equal(self, seen):
        for d, factors, got in seen:
            want = reference_orbit_product(d, factors)
            assert (got is None) == (want is None), (d, factors)
            if got is None:
                continue
            for e in range(d):
                assert Fraction(orbit_trace(got[0], e), got[1]) \
                    == Fraction(orbit_trace(want[0], e), want[1]), (d, factors, e)

    def test_blown_up_tree_cancels_leaf_and_node(self):
        base = lens_chain(25, 7)
        inner = [vid for vid, _ in base.vertices][1:-1]
        graph = blown_up(base, inner + inner[:1])
        lattice, group = pipeline(graph)
        table, seen = recorded_table(lattice, group)
        cancelling = [(d, factors) for d, factors, _ in seen
                      if any(a and (a, -p) in {(b, q) for b, q, _ in factors}
                             for a, p, _ in factors)]
        assert len(cancelling) == len(seen) > 0
        self.assert_traces_equal(seen)
        base_lattice, base_group = pipeline(base)
        assert table.at(group.identity) == torsion_table(base_lattice, base_group).at(
            base_group.identity)
        assert table.invert() == reference_torsion(lattice, group)

    def test_corpus(self):
        for name, graph in standard_corpus():
            if 1 < build_lattice(graph).order_h <= 120:
                _, seen = recorded_table(*pipeline(graph))
                self.assert_traces_equal(seen)

    def test_repeated_exponents(self):
        # a and d - a, a net power of zero, and repeated negative powers
        for d, factors in [(7, [(3, -1, 1), (3, 1, 1), (4, -1, 1)]),
                           (12, [(4, -2, 1), (4, 1, 1), (6, -1, 1), (6, -1, 1), (0, 0, 5)]),
                           (9, [(3, 1, 1), (6, -1, 1), (3, -1, 1), (1, -2, 1), (0, -1, 2),
                                (0, 1, 3)])]:
            self.assert_traces_equal([(d, factors, torsion.orbit_product(d, factors))])


class TestResidueTables:
    """`at` and `invert` read one stored form, the weighted residue sums, against the
    per-point trace formula, as on the corpus and on random stars."""

    def test_lens_1009(self):
        lattice, group = pipeline(lens_chain(1009, 3))
        table, seen = recorded_table(lattice, group)
        assert_stored_form(table, seen)
        values = table.invert()
        assert list(values) == list(group.elements())
        for h, t in values.items():
            assert t == table.at(h), h
        for h in [(0,), (1,), (504,), (1008,)]:
            assert values[h] == table.at(h) == per_orbit_torsion(table, seen, group, h)



class TestCommonDenominator:
    """`at` and `invert` sum integer traces over the lcm of the orbit denominators."""

    def test_trivial_group(self):
        for graph in (e_star(8), star_graph(SeifertData(-2, [(2, 1), (3, 2), (5, 4)]))):
            lattice, group = pipeline(graph)
            table = torsion_table(lattice, group)
            assert group.order == 1 and table.dims == () and table.orbits == ()
            assert table.den == 1
            assert table.at(group.identity) == 0
            assert table.invert() == {(): 0}
            assert type(table.at(group.identity)) is Fraction

    @settings(max_examples=40, deadline=None)
    @given(small_stars())
    def test_random_stars(self, data):
        lattice, group = pipeline(star_graph(data))
        table, seen = recorded_table(lattice, group)
        assert table.dims == group.invariant_factors
        assert_stored_form(table, seen)
        want = reference_torsion(lattice, group)
        values = table.invert()
        assert list(values) == list(group.elements())
        for h in group.elements():
            assert values[h] == table.at(h) == per_orbit_torsion(table, seen, group, h) \
                == want[h], h


class TestPipelineBuildsNoField:
    def test_no_cyclotomic_field(self, monkeypatch):
        from swplumb import cli, reference

        def refuse_field(self, conductor):
            raise AssertionError(f"Q(zeta_{conductor}) built on the pipeline")

        reference.cyclotomic_field.cache_clear()    # a cached field would skip __init__
        monkeypatch.setattr(reference.CyclotomicField, "__init__", refuse_field)
        noncyclic = dict(standard_corpus())["3arm(m=4)"]
        for graph in (noncyclic, lens_chain(97, 5)):
            assert report.compute_report(graph, all_spinc=True).spinc_table
        data = three_arm_family(2)
        argv = ["seifert", "--b", str(data.b)]
        for alpha, omega in data.arms:
            argv += ["--arm", f"{alpha}/{omega}"]
        assert cli.main(argv) == cli.EXIT_OK


def refuse(*args, **kwargs):
    raise AssertionError("reached above the |H| cap")


class TestOrderCapBeforeField:
    # the one cap sits in homology_from_lattice: the layers below it take no
    # cap of their own, and are never reached when |H| is above it

    def test_torsion_table(self, monkeypatch):
        monkeypatch.setattr(report, "torsion_table", refuse)
        with pytest.raises(OrderCapExceeded) as exc:
            report.compute_report(lens_chain(4001, 2), max_order=10)
        assert (exc.value.order, exc.value.cap) == (4001, 10)

    def test_seifert_shortcut(self, monkeypatch, capsys):
        from swplumb import cli, seifert
        monkeypatch.setattr(seifert, "seifert_torsion_shortcut", refuse)
        monkeypatch.setattr(cli, "compute_report_from", refuse)
        data = three_arm_family(8)
        order = build_lattice(star_graph(data)).order_h
        argv = ["seifert", "--b", str(data.b), "--max-order", str(order - 1)]
        for alpha, omega in data.arms:
            argv += ["--arm", f"{alpha}/{omega}"]
        assert cli.main(argv) == cli.EXIT_CAP
        assert str(order) in capsys.readouterr().err


class TestMonopoleCount:
    def test_single_vertex(self):
        assert graph_report(a_chain(2)).sw0 == Fraction(1, 8)

    def test_three_arm_m3(self):
        assert graph_report(star_graph(three_arm_family(3))).sw0 \
            == Fraction(5, 9) + Fraction(7, 36)

    def test_dihedral(self):
        from swplumb.corpus import dn_seifert
        assert graph_report(star_graph(dn_seifert(4))).sw0 == Fraction(1, 2)


class TestConjectureGap:
    def test_lens_chains_close(self):
        for p, q in [(2, 1), (5, 3), (11, 4), (12, 7)]:
            assert graph_report(lens_chain(p, q)).conjecture_gap == 0

    def test_three_arm_family_closes(self):
        for m in (2, 4, 5):
            assert graph_report(star_graph(three_arm_family(m))).conjecture_gap == 0

    def test_nonstar_graph_gap_one(self):
        assert graph_report(nonstar_13_vertex()).conjecture_gap == 1


class TestQuadraticIdentities:
    def test_single_vertex(self):
        lattice, group = pipeline(a_chain(2))
        assert swiden_consistency(lattice, group)

    def test_lens_four_all_offsets(self):
        lattice, group = pipeline(lens_chain(4, 1))
        assert swiden_consistency(lattice, group, list(group.elements()))

    def test_klein_four(self):
        from swplumb.corpus import dn_seifert
        lattice, group = pipeline(star_graph(dn_seifert(4)))
        assert swiden_consistency(lattice, group)

    @pytest.mark.parametrize("graph", [lens_chain(25, 7), lens_chain(12, 5)])
    def test_one_torsion_value_off_by_one_over_order(self, graph, monkeypatch):
        """The integer-scaled check still sees a change of 1/|H| in one value of T."""
        lattice, group = pipeline(graph)
        assert swiden_consistency(lattice, group, list(group.elements()))
        invert = torsion.TorsionTable.invert
        target = next(h for h in group.elements() if any(h))

        def shifted(table):
            values = invert(table)
            values[target] += Fraction(1, group.order)
            return values

        monkeypatch.setattr(torsion.TorsionTable, "invert", shifted)
        assert not swiden_consistency(lattice, group)
        assert not swiden_consistency(lattice, group, [target])


class TestOrderCountAtOne:
    def test_single_vertex(self):
        lattice, _ = pipeline(a_chain(2))
        assert delta_at_one_check(lattice, 0)

    def test_chain(self):
        lattice, _ = pipeline(a_chain(3))
        assert delta_at_one_check(lattice, 0)
        assert delta_at_one_check(lattice, 1)

    def test_every_corpus_vertex(self):
        for name, graph in standard_corpus():
            lattice = build_lattice(graph)
            for v0 in range(lattice.size):
                assert delta_at_one_check(lattice, v0), (name, v0)
