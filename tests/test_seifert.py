"""Seifert data, star graphs, closed forms, eta-invariant route, arm shortcut."""

from fractions import Fraction

import random
from math import floor, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from swplumb import seifert
from swplumb.corpus import dn_seifert, polygonal_seifert, three_arm_family
from swplumb.dedekind import dr_sum, dr_sum_parts
from swplumb.errors import InternalInvariantViolated
from swplumb.homology import homology_from_lattice
from swplumb.plumbing import build_lattice, casson_walker, k2_plus_nv
from swplumb.reference import (ks_invariant_fractions, ks_route_scaled,
                               seifert_casson_walker_fractions, seifert_fractions,
                               seifert_k2nv_fractions)
from swplumb.report import compute_report_from
from swplumb.seifert import (KSReport, SeifertData, hj_expand, ks_route, lens_chain,
                             seifert_casson_walker, seifert_k2nv,
                             seifert_torsion_shortcut, star_graph)
from swplumb.torsion import torsion_table


def pipeline(data):
    lattice = build_lattice(star_graph(data))
    return lattice, homology_from_lattice(lattice)


class TestContinuedFractions:
    def test_examples(self):
        assert hj_expand(2, 1) == [2]
        assert hj_expand(3, 2) == [2, 2]
        assert hj_expand(5, 3) == [2, 3]
        assert hj_expand(4, 1) == [4]
        assert hj_expand(7, 5) == [2, 2, 3]

    def test_entries_at_least_two(self):
        from math import gcd
        for a in range(2, 40):
            for w in range(1, a):
                if gcd(a, w) == 1:
                    assert all(c >= 2 for c in hj_expand(a, w))

    def test_value_in_fractions(self):
        for a in range(2, 40):
            for w in range(1, a):
                if gcd(a, w) == 1:
                    chain = hj_expand(a, w)
                    value = Fraction(chain[-1])
                    for c in reversed(chain[:-1]):
                        value = c - 1 / value
                    assert value == Fraction(a, w)

    def test_validation(self):
        with pytest.raises(ValueError):
            hj_expand(4, 2)
        with pytest.raises(ValueError):
            hj_expand(3, 3)

    @pytest.mark.parametrize("p, q", [
        (7, True),          # a bool is not read as 1
        (True, 0),
        (7.0, 3),           # a float is rejected, not passed to gcd
        (7, 3.0),
        ("7", 3),
        (Fraction(7), 3),
    ])
    def test_lens_input_rejects_non_integers(self, p, q):
        with pytest.raises(ValueError, match="integer"):
            lens_chain(p, q)
        with pytest.raises(ValueError, match="integer"):
            hj_expand(p, q)


class TestStarGraph:
    def test_dihedral_four(self):
        graph = star_graph(dn_seifert(4))
        assert len(graph.vertices) == 4
        assert all(e == -2 for _, e in graph.vertices)

    def test_three_arm_m2(self):
        graph = star_graph(three_arm_family(2))
        eulers = dict(graph.vertices)
        assert eulers["c"] == -3
        assert sum(1 for _, e in graph.vertices if e == -2) == 3

    def test_e7_shape(self):
        graph = star_graph(SeifertData(-2, [(2, 1), (3, 2), (4, 3)]))
        assert len(graph.vertices) == 7
        assert all(e == -2 for _, e in graph.vertices)

    def test_lens_chains(self):
        assert [e for _, e in lens_chain(2, 1).vertices] == [-2]
        assert [e for _, e in lens_chain(3, 2).vertices] == [-2, -2]
        assert [e for _, e in lens_chain(4, 1).vertices] == [-4]


class TestSeifertData:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeifertData(-2, [(2, 1), (4, 2), (3, 1)])  # non-coprime arm
        with pytest.raises(ValueError):
            SeifertData(0, [(2, 1), (2, 1), (2, 1)])   # degree not negative
        with pytest.raises(ValueError):
            SeifertData(-2, [(1, 0), (2, 1), (2, 1)])  # trivial arm

    @pytest.mark.parametrize("b, arms", [
        (-2.7, [(2, 1), (3, 1), (5, 1)]),      # stored b = -2 before
        (-2.0, [(2, 1), (3, 1), (5, 1)]),
        (True, [(2, 1), (3, 1), (5, 1)]),
        ("-2", [(2, 1), (3, 1), (5, 1)]),
        (-2, [(2.9, 1), (3, 1), (5, 1)]),      # the arm (2, 1) before
        (-2, [(2, 1), ("5", 1), (3, 1)]),
        (-2, [(2, 1), (3, Fraction(1)), (5, 1)]),
        (-2, [(2, 1), (3, False), (5, 1)]),
    ])
    def test_rejects_non_integers(self, b, arms):
        with pytest.raises(ValueError, match="integer"):
            SeifertData(b, arms)

    def test_degree_bounds(self):
        for data in (dn_seifert(5), three_arm_family(4),
                     polygonal_seifert([3, 4, 5])):
            assert data.b <= data.e < 0

    def test_group_order(self):
        data = three_arm_family(3)
        assert data.order_h == 27
        lattice, group = pipeline(data)
        assert group.order == 27


class TestClosedForms:
    def test_casson_walker_cross_route(self):
        for data in (dn_seifert(4), dn_seifert(7),
                     SeifertData(-2, [(2, 1), (3, 2), (4, 3)]),
                     three_arm_family(3), polygonal_seifert([3, 3, 3, 3])):
            lattice = build_lattice(star_graph(data))
            assert seifert_casson_walker(data) == casson_walker(lattice)

    def test_k2nv_cross_route(self):
        for data in (dn_seifert(4), three_arm_family(2),
                     polygonal_seifert([2, 2, 2, 2, 2])):
            lattice = build_lattice(star_graph(data))
            assert seifert_k2nv(data) == k2_plus_nv(lattice)

    def test_three_arm_m2_value(self):
        assert seifert_k2nv(three_arm_family(2)) == Fraction(10, 3)

    def test_three_arm_m3_value(self):
        data = three_arm_family(3)
        assert seifert_casson_walker(data) / data.order_h == Fraction(-7, 36)

    def test_alternative_absorption(self):
        """The central term absorbed into any one arm k, as unnormalized rotations:
        beta_k = -omega_k - b alpha_k and beta_i = -omega_i otherwise."""
        samples = TestShortcutDifferential.seeded_data(120)
        assert any(data.dedekind_total for data in samples)
        for data in samples:
            for k in range(data.nu):
                betas = [-w - data.b * a if i == k else -w
                         for i, (a, w) in enumerate(data.arms)]
                assert sum(dr_sum(beta, a) for (a, _), beta in zip(data.arms, betas)) \
                    == -data.dedekind_total
                assert seifert_casson_walker(data) == beta_casson_walker(data, betas)


def beta_casson_walker(data, betas):
    """The Casson-Walker closed form over unnormalized rotations beta_i."""
    e = data.e
    total = (2 - data.nu + sum(Fraction(1, a * a) for a, _ in data.arms)) / e + e + 3
    total += 12 * sum(dr_sum(beta, a) for (a, _), beta in zip(data.arms, betas))
    return Fraction(-data.order_h, 24) * total


class TestOneComputationPerArm:
    """Each arm is expanded once, and s(omega_i, alpha_i) is summed once per datum."""

    DATA = ((-3, [(2, 1), (3, 2), (5, 2), (7, 3)]), (-2, [(3, 1), (5, 4), (7, 6)]))

    @pytest.mark.parametrize("b, arms", DATA)
    def test_one_expansion_per_arm(self, monkeypatch, b, arms):
        calls = []

        def counting(alpha, omega):
            calls.append((alpha, omega))
            return hj_expand(alpha, omega)

        monkeypatch.setattr(seifert, "hj_expand", counting)
        data = SeifertData(b, arms)
        lattice, group = pipeline(data)
        seifert_torsion_shortcut(data, lattice, group)
        assert calls == list(data.arms)

    @pytest.mark.parametrize("b, arms", DATA)
    def test_one_unshifted_dedekind_sum_per_arm(self, monkeypatch, b, arms):
        unshifted = []

        def counting(h, k, *shifts):
            if not shifts:
                unshifted.append((h, k))
            return dr_sum_parts(h, k, *shifts)

        monkeypatch.setattr(seifert, "dr_sum_parts", counting)
        data = SeifertData(b, arms)
        seifert_casson_walker(data)
        seifert_k2nv(data)
        ks_route(data)
        assert unshifted == [(w, a) for a, w in data.arms]


class TestEtaRoute:
    def test_dihedral_count(self):
        for n in (4, 6, 9):
            report = ks_route(dn_seifert(n))
            assert report.applicable
            assert report.plus == 0 and report.minus == 0
            assert 8 * report.sw0_ks == n  # p + 2 with p = n - 2

    def test_e7_value(self):
        report = ks_route(SeifertData(-2, [(2, 1), (3, 2), (4, 3)]))
        assert report.ks == 7
        assert report.applicable and report.sw0_ks == Fraction(7, 8)

    def test_three_arm_counts(self):
        for m in (2, 4, 5, 7, 8):
            report = ks_route(three_arm_family(m))
            want_plus = (m - 3) // 6 + 1 if m > 3 else 0
            assert report.plus == want_plus, m
            assert report.minus == 0
            assert report.applicable
            assert 8 * report.sw0_ks == Fraction(3 * m) - Fraction(m, 3) - 2

    def test_three_arm_m3_inapplicable(self):
        report = ks_route(three_arm_family(3))
        assert not report.applicable
        assert report.sw0_ks is None

    def test_polygonal_two_point_count(self):
        report = ks_route(polygonal_seifert([3, 4, 5]))
        assert report.plus == 1 and report.minus == 1
        assert report.applicable

    def test_matches_torsion_route_when_applicable(self):
        for data in (dn_seifert(5), three_arm_family(4),
                     polygonal_seifert([3, 3, 3, 3])):
            report = ks_route(data)
            assert report.applicable
            assert report.sw0_ks == compute_report_from(*pipeline(data)).sw0


def reference_ks_route(data):
    """The eta route with every degree a Fraction: one j at a time over the
    multiples with 0 <= j*ell <= kappa, counted by where j*ell falls."""
    ell, kappa = data.e, data.kappa
    counts, dims = [0, 0], []
    if kappa > 0:
        for j in range(floor(kappa / ell), 1):
            t = j * ell
            if 0 <= t < kappa / 2:
                side = 0
                deg = t - sum(Fraction(j * w, a) % 1 for a, w in data.arms)
            elif kappa / 2 < t <= kappa:
                side = 1
                deg = (kappa - t) - sum(Fraction((a - 1 - j * w) % a, a)
                                        for a, w in data.arms)
            else:
                continue
            if deg.denominator != 1:
                raise InternalInvariantViolated("smooth degree must be an integer")
            if deg >= 0:
                counts[side] += 1
                dims.append(deg)
    ks = ks_invariant_fractions(data)
    applicable = data.rho0 != 0 and all(d == 0 for d in dims)
    return KSReport(ks=ks, plus=counts[0], minus=counts[1], applicable=applicable,
                    sw0_ks=ks / 8 + sum(counts) if applicable else None)


@st.composite
def seifert_data(draw, max_alpha=13):
    """Normalized Seifert data with 3-5 arms of order <= max_alpha and e < 0."""
    arms = draw(st.lists(st.integers(2, max_alpha).flatmap(lambda a: st.tuples(
        st.just(a), st.sampled_from([w for w in range(1, a) if gcd(a, w) == 1]))),
        min_size=3, max_size=5))
    b = -floor(sum(Fraction(w, a) for a, w in arms)) - 1 - draw(st.integers(0, 2))
    return SeifertData(b, arms)


class TestEtaRouteAgainstFractions:
    """ks_route's integer enumeration against the Fraction reference, and every integer
    form against its oracle in `reference`."""

    @settings(max_examples=150, deadline=None)
    @given(seifert_data())
    @example(SeifertData(-2, [(2, 1), (3, 1), (5, 1)]))      # kappa < 0
    @example(SeifertData(-2, [(2, 1), (3, 1), (6, 1)]))      # kappa = 0
    @example(SeifertData(-2, [(3, 1), (5, 4), (7, 6)]))      # rho0 = 0, 17 multiples
    @example(SeifertData(-1, [(2, 1), (6, 1), (7, 2)]))      # rho0 = 0
    @example(SeifertData(-3, [(2, 1), (3, 1), (5, 2), (8, 7), (9, 8)]))  # 311 per side
    def test_whole_report(self, data):
        assert ks_route(data) == reference_ks_route(data)
        assert_integer_forms_match(data)

    def test_examples_cover_the_branches(self):
        kappa_nonpositive = SeifertData(-2, [(2, 1), (3, 1), (6, 1)])
        assert kappa_nonpositive.kappa == 0
        rho0_zero = SeifertData(-2, [(3, 1), (5, 4), (7, 6)])
        assert rho0_zero.kappa > 0 and rho0_zero.rho0 == 0
        report = ks_route(rho0_zero)
        assert not report.applicable and report.sw0_ks is None

    def test_positive_dimensional_component(self):
        # rho0 != 0, but a counted multiple on each side has a degree above 0
        data = SeifertData(-1, [(4, 1), (6, 1), (8, 1), (5, 1), (4, 1)])
        report = ks_route(data)
        assert data.rho0 != 0 and (report.plus, report.minus) == (18, 18)
        assert not report.applicable and report.sw0_ks is None
        assert report == reference_ks_route(data)

    @pytest.mark.parametrize("route", [ks_route_scaled, reference_ks_route])
    def test_non_integral_degree_raises(self, route):
        # ell off by -1/L: L * deg moves by -j, not a multiple of L for 0 < |j| < L
        data = SeifertData(-2, [(3, 1), (5, 4), (7, 6)])
        object.__setattr__(data, "e", data.e - Fraction(1, data.alpha))
        with pytest.raises(InternalInvariantViolated, match="integer"):
            route(data)


def assert_integer_forms_match(data):
    """Every integer form of the Seifert side equals its Fraction oracle, value and type."""
    for name, want in seifert_fractions(data).items():
        got = getattr(data, name)
        assert got == want and type(got) is type(want), (data, name)
    for got, want in ((seifert_casson_walker(data), seifert_casson_walker_fractions(data)),
                      (seifert_k2nv(data), seifert_k2nv_fractions(data))):
        assert got == want and type(got) is Fraction, data
    report = ks_route(data)
    assert report == ks_route_scaled(data), data
    assert report.ks == ks_invariant_fractions(data) and type(report.ks) is Fraction
    assert report.sw0_ks is None or type(report.sw0_ks) is Fraction
    return report


class TestIntegerFormsAgainstFractions:
    """SeifertData's properties, the closed forms and ks_route, all in integers, against
    their Fraction forms in `reference`; `test_whole_report` does the same on the
    hypothesis draws."""

    def test_seeded_sweep(self):
        """6000 data of 0-5 arms with alpha_i < 15 and b from -4 to -1."""
        rng = random.Random(3)
        done, kappa_positive, minus = 0, 0, 0
        while done < 6000:
            arms = []
            for _ in range(rng.randrange(6)):
                a = rng.randrange(2, 15)
                arms.append((a, rng.choice([w for w in range(1, a) if gcd(a, w) == 1])))
            b = rng.randrange(-4, 0)
            if b + sum(Fraction(w, a) for a, w in arms) >= 0:
                continue
            data = SeifertData(b, arms)
            report = assert_integer_forms_match(data)
            done += 1
            kappa_positive += data.kappa > 0
            minus += report.minus > 0
        assert kappa_positive > 2000 and minus > 200

    def test_few_and_many_arms(self):
        cases = [SeifertData(b, arms) for b, arms in FEW_ARMS]
        cases += TestShortcutDifferential.seeded_data(120)
        assert {data.nu for data in cases} == set(range(6))
        for data in cases:
            assert_integer_forms_match(data)


class TestArmShortcut:
    def test_matches_generic_route(self):
        for data in (dn_seifert(4), three_arm_family(3),
                     polygonal_seifert([3, 4, 5]),
                     SeifertData(-2, [(2, 1), (3, 2), (4, 3)])):
            lattice, group = pipeline(data)
            assert seifert_torsion_shortcut(data, lattice, group) == \
                torsion_table(lattice, group).at(group.identity)

    def test_three_arm_m3_value(self):
        data = three_arm_family(3)
        lattice, group = pipeline(data)
        assert seifert_torsion_shortcut(data, lattice, group) == Fraction(5, 9)

    def test_nontrivial_offset(self):
        data = dn_seifert(4)
        lattice, group = pipeline(data)
        table = torsion_table(lattice, group)
        for h in group.elements():
            assert seifert_torsion_shortcut(data, lattice, group, h) == \
                table.at(h)


FEW_ARMS = [
    (-3, []),
    (-1, [(5, 2)]),
    (-2, [(7, 3)]),
    (-1, [(3, 1), (4, 1)]),
    (-2, [(5, 2), (7, 4)]),
    (-4, [(2, 1), (2, 1)]),
]


class TestFewArms:
    """Fewer than three arms: a single vertex or a chain, i.e. a lens space."""

    @pytest.mark.parametrize("b, arms", FEW_ARMS)
    def test_every_route_agrees(self, b, arms):
        data = SeifertData(b, arms)
        assert data.nu == len(arms)
        lattice, group = pipeline(data)
        assert group.order == data.order_h
        cw, k2, ks = seifert_casson_walker(data), seifert_k2nv(data), ks_route(data)
        values = [data.e, data.kappa, data.rho0, cw, k2, ks.ks]
        assert cw == casson_walker(lattice) and k2 == k2_plus_nv(lattice)
        table = torsion_table(lattice, group)
        for h in (group.identity, next(reversed(list(group.elements())))):
            shortcut = seifert_torsion_shortcut(data, lattice, group, h)
            assert shortcut == table.at(h)
            values.append(shortcut)
        if ks.applicable:
            assert ks.sw0_ks == compute_report_from(lattice, group).sw0
            values.append(ks.sw0_ks)
        assert all(type(v) is Fraction for v in values)


class TestShortcutDifferential:
    """The arm shortcut against the generic table on seeded random Seifert data."""

    @staticmethod
    def seeded_data(count, seed=20020613, max_order=60):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            nu = (0, 1, 2, 3, 4, 5, 3, 4)[len(out) % 8]
            arms = []
            for _ in range(nu):
                a = rng.randrange(2, 7)
                arms.append((a, rng.choice([w for w in range(1, a) if gcd(a, w) == 1])))
            shift = sum(Fraction(w, a) for a, w in arms)
            b = -int(shift) - 1 - rng.randrange(2)
            data = SeifertData(b, sorted(arms))
            if data.order_h <= max_order:
                out.append(data)
        return out

    def test_shortcut_equals_table(self):
        samples = self.seeded_data(120)
        assert sum(1 for data in samples if data.nu >= 3) >= len(samples) // 2
        assert {data.nu for data in samples} == set(range(6))
        for data in samples:
            lattice, group = pipeline(data)
            table = torsion_table(lattice, group)
            last = next(reversed(list(group.elements())))
            for h in (group.identity, last):
                assert seifert_torsion_shortcut(data, lattice, group, h) == \
                    table.at(h), (data, h)
