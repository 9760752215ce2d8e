"""The three workloads: seeded inputs, the calls of one item, and their checks.

Every item makes the public calls of the swplumb subcommand it mirrors, in the
same order.  `tr.call` wraps a call in a span when tracing is on and is a plain
call otherwise; `tr.extra` is a call only the traced run makes, which times an
inner public function on its own.  Checks compare each output with values the
benchmark computes itself (`oracles`) or with properties the invariants must
have; none compares with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, prod

import swplumb as sp
from swplumb.report import compute_report_from, report_to_json

import oracles


class Tracer:
    """Times public calls in spans when on; calls straight through when off."""

    def __init__(self, on: bool):
        self.on = on
        self.item = -1
        self.spans = []       # [item, name, start_s, end_s, cpu_ms, extra]

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        return self._span(name, False, fn, args, kwargs)

    def extra(self, name, fn, *args, **kwargs):
        """A call only the traced run makes: an inner public function on its own."""
        return self._span(name, True, fn, args, kwargs)

    def _span(self, name, extra, fn, args, kwargs):
        start, cpu = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([self.item, name, start, time.perf_counter(),
                               (time.process_time() - cpu) * 1e3, extra])


class Item:
    """One input of a workload: a label, the call sequence and its checks."""

    def __init__(self, label, run, check, *args, prepare=None):
        self.label, self.run_fn, self.check_fn, self.args = label, run, check, args
        self.prepare = prepare or (lambda: None)

    def run(self, tr):
        return self.run_fn(tr, *self.args)

    def check(self, out):
        return self.check_fn(out, *self.args)


# ---------------------------------------------------------------------------
# The shared graph path: lattice, homology, report, JSON
# ---------------------------------------------------------------------------

def report_path(tr, graph, all_spinc):
    """build_lattice -> homology_from_lattice -> compute_report_from, as `_compute` does.

    The traced run first touches `group.field` on its own, then times
    torsion_table before compute_report_from (cold field caches, its cost in
    the untraced path) and again after it (warm, as inside compute_report_from),
    together with casson_walker and k2_plus_nv.  The spin^c table's time is the
    compute_report_from span minus the warm inner spans.
    """
    lattice = tr.call("plumbing.build_lattice", sp.build_lattice, graph)
    group = tr.call("homology.homology_from_lattice", sp.homology_from_lattice, lattice)
    if tr.on:
        tr.call("exact.cyclotomic_field", getattr, group, "field")
        tr.extra("torsion.torsion_table", sp.torsion_table, lattice, group)
    report = tr.call("report.compute_report_from", compute_report_from, lattice, group,
                     all_spinc=all_spinc)
    if tr.on:
        tr.extra("torsion.torsion_table.warm", sp.torsion_table, lattice, group)
        tr.extra("plumbing.casson_walker", sp.casson_walker, lattice)
        tr.extra("plumbing.k2_plus_nv", sp.k2_plus_nv, lattice)
    return lattice, group, report


def to_json(tr, report) -> str:
    """The `--format json` output of a report."""
    return json.dumps(tr.call("report.report_to_json", report_to_json, report),
                      sort_keys=True)


def output(lattice, group, report, text, **routes):
    return {"lattice": lattice, "group": group, "report": report, "json": text,
            "routes": routes}


def signature(out) -> str:
    """Everything an item printed; equal signatures need no second check."""
    return out["json"] + repr(sorted(out["routes"].items()))


def arrays(graph):
    """Euler numbers and index edges of a PlumbingGraph, for the oracles."""
    index = {vid: i for i, vid in enumerate(graph.ids)}
    return list(graph.euler_numbers), [(index[a], index[b]) for a, b in graph.edges]


class Problems(list):
    def expect(self, cond, what):
        if not cond:
            self.append(what)


def report_checks(out, eulers, edges) -> Problems:
    """|H| = |det I|, K^2 + #V and lambda by the benchmark's own solve, gap 0 if rational."""
    bad = Problems()
    report = out["report"]
    rows = oracles.intersection_matrix(eulers, edges)
    k2, lam = oracles.k2_and_lambda(eulers, edges)
    bad.expect(report.order_h == abs(oracles.bareiss_det(rows)), "|H| != |det I|")
    bad.expect(prod(report.invariant_factors) == report.order_h,
               "invariant factors do not multiply to |H|")
    bad.expect(report.k2_plus_nv == k2, f"K^2+#V {report.k2_plus_nv} != solve {k2}")
    bad.expect(report.casson_walker == lam, f"lambda {report.casson_walker} != solve {lam}")
    bad.expect(report.sw0 == report.torsion_at_1 - report.casson_walker / report.order_h,
               "sw0 != T(1) - lambda/|H|")
    if oracles.is_rational(eulers, edges):
        bad.expect(report.conjecture_gap == 0, "rational graph with nonzero gap")
    bad.expect(sp.report_from_json(json.loads(out["json"])) == report,
               "JSON output does not round-trip")
    return bad


def spinc_checks(out) -> Problems:
    """Sum -lambda, h = 0 row sw0, conjugation symmetry, T(0) - T(h) = q(h) mod 1."""
    bad = Problems()
    lattice, group, report = out["lattice"], out["group"], out["report"]
    table = dict(report.spinc_table)
    zero = group.identity
    bad.expect(len(table) == report.order_h, "spin^c table misses offsets")
    bad.expect(sum(table.values()) == -report.casson_walker, "spin^c sum != -lambda")
    bad.expect(table[zero] == report.sw0, "spin^c row h = 0 != sw0")
    for h, value in table.items():
        bad.expect(table[sp.spinc_conjugate(lattice, group, h)] == value,
                   f"spin^c row {h} differs from its conjugate")
        bad.expect((table[zero] - value - sp.spinc_quadratic(lattice, group, zero, h)) % 1 == 0,
                   f"T(0) - T({h}) != q({h}) mod 1")
    return bad


# ---------------------------------------------------------------------------
# lens_prime: `swplumb lens p q` with p prime
# ---------------------------------------------------------------------------

# Thirteen primes so the median item is one prime's; one item costs 0.2-1.1 s.
LENS_PRIMES = (97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)


def lens_item(tr, p, q):
    graph = tr.call("seifert.graph_build", sp.lens_chain, p, q)
    lattice, group, report = report_path(tr, graph, all_spinc=False)
    s = tr.call("dedekind.dr_sum", sp.dr_sum, q, p)
    closed = (Fraction(p - 1, 4 * p) - s, Fraction(p, 2) * s,
              Fraction(2 * (p - 1), p) - 12 * s)
    return output(lattice, group, report, to_json(tr, report), closed=closed)


def lens_check(out, p, q):
    bad = Problems()
    r = out["report"]
    s = oracles.dedekind_sum(q, p)
    bad.expect(r.order_h == p, "|H| != p")
    bad.expect(r.torsion_at_1 == Fraction(p - 1, 4 * p) - s, "T(1) != (p-1)/4p - s(q,p)")
    bad.expect(r.casson_walker == Fraction(p, 2) * s, "lambda != (p/2) s(q,p)")
    bad.expect(r.k2_plus_nv == Fraction(2 * (p - 1), p) - 12 * s,
               "K^2+#V != 2(p-1)/p - 12 s(q,p)")
    bad.expect(r.conjecture_gap == 0, "lens space with nonzero gap")
    bad.expect(out["routes"]["closed"] == (r.torsion_at_1, r.casson_walker, r.k2_plus_nv),
               "program's closed forms disagree with its report")
    bad.expect(sp.report_from_json(json.loads(out["json"])) == r, "JSON output does not round-trip")
    return bad


def lens_q(rng, p):
    """A seeded q whose chain has at most 8 vertices, so torsion stays the cost."""
    while True:
        q = rng.randrange(1, p)
        if len(hj_chain(p, q)) <= 8:
            return q


def lens_inputs(rng):
    return [Item(f"L({p},{q})", lens_item, lens_check, p, q)
            for p in LENS_PRIMES for q in [lens_q(rng, p)]]


# ---------------------------------------------------------------------------
# seifert_census: `swplumb seifert ... --all-spinc` and `swplumb brieskorn ...`
# ---------------------------------------------------------------------------

# Squarefree orders, so H is cyclic; each twice, so fields recur and the
# median item sits in a dense part of the cost distribution.  Up to 36: one
# item of prime order 47 costs 0.4-0.65 s, and a few such items would set the
# round's time alone.
CYCLIC_ORDERS = tuple(h for h in range(2, 37) if all(h % (d * d) for d in range(2, 7)))
# (|H|, exp H) of the non-cyclic slots: the largest exponent a non-cyclic group has.
NONCYCLIC = ((4, 2), (8, 4), (9, 3), (16, 8), (18, 6), (27, 9), (32, 16), (36, 18),
             (44, 22), (48, 24))
PRIME_POWERS = {2: (2, 4, 8), 3: (3, 9), 5: (5,), 7: (7,), 11: (11,), 13: (13,)}
SEIFERT_ARMS = tuple((a, w) for a in range(2, 10) for w in range(1, a) if gcd(a, w) == 1)
# prod(alpha) <= E_CAP |H|, i.e. |e| >= 1/E_CAP: the eta route enumerates about
# 1/|e| bundle multiples, so a tiny |e| would make one item cost seconds.
E_CAP = 200
# (d, b3): exponents (d b1, d b2, b3), |H| = b3^(d-1); d = 1 draws b3 as well.
BRIESKORN_SLOTS = ((1, None), (1, None), (2, 3), (2, 5), (2, 7), (2, 11), (2, 13),
                   (3, 5), (3, 7))
# The A_(n-1) links: every one fails today (two arms after dropping trivial
# isotropy; a float in the (2,2,2) closed form).  Fixed, so the failed share
# is the same for every seed.
FAULTY_TUPLES = ((2, 2, 2), (2, 2, 3), (2, 2, 5))


def arm_count(order, wanted):
    """The most arms, up to `wanted`, whose pairwise coprime orders prime to |H| fit E_CAP."""
    primes = [p for p in PRIME_POWERS if order % p]
    return max(n for n in range(3, min(wanted, len(primes)) + 1)
               if prod(primes[:n]) <= E_CAP * order)


def cyclic_seifert(rng, order, nu):
    """nu arms of pairwise coprime orders prime to |H|; the omegas solve |H| = order by CRT."""
    primes = [p for p in PRIME_POWERS if order % p]
    while True:
        alphas = [rng.choice(PRIME_POWERS[p]) for p in rng.sample(primes, nu)]
        big_p = prod(alphas)
        if big_p <= E_CAP * order:
            break
    arms = sorted((a, -order * pow(big_p // a, -1, a) % a) for a in alphas)
    return -(order + sum(w * (big_p // a) for a, w in arms)) // big_p, tuple(arms)


def noncyclic_pools():
    """Every sorted triple of arms with orders up to 9, by the non-cyclic slot it fills.

    Enumerated rather than drawn, so that set-up costs the same for every seed.
    """
    pools = {slot: [] for slot in NONCYCLIC}
    for arms in combinations_with_replacement(SEIFERT_ARMS, 3):
        big_p = prod(a for a, _ in arms)
        shift = sum(w * (big_p // a) for a, w in arms)   # big_p * sum(w/a)
        for order, exponent in NONCYCLIC:
            if (order + shift) % big_p == 0:
                b = -(order + shift) // big_p            # |e| * big_p == order
                if oracles.seifert_homology_exponent(b, arms) == exponent:
                    pools[order, exponent].append((b, arms))
    return pools


def brieskorn_exponents(rng, d, b3):
    while True:
        b1, b2 = rng.sample(range(2, 10), 2)
        third = rng.randrange(2, 14) if b3 is None else b3
        if gcd(b1, b2) == gcd(b1, third) == gcd(b2, third) == 1:
            return (d * b1, d * b2, third)


def seifert_item(tr, b, arms):
    data = tr.call("seifert.graph_build", sp.SeifertData, b, arms)
    graph = tr.call("seifert.graph_build", sp.star_graph, data)
    lattice, group, report = report_path(tr, graph, all_spinc=True)
    ks = tr.call("seifert.ks_route", sp.ks_route, data)
    cw = tr.call("seifert.closed_forms", sp.seifert_casson_walker, data)
    k2 = tr.call("seifert.closed_forms", sp.seifert_k2nv, data)
    shortcut = tr.call("seifert.seifert_torsion_shortcut", sp.seifert_torsion_shortcut,
                       data, lattice, group)
    return output(lattice, group, report, to_json(tr, report), ks=ks, cw=cw, k2=k2,
                  shortcut=shortcut)


def seifert_check(out, b, arms):
    r, routes = out["report"], out["routes"]
    bad = report_checks(out, *arrays(out["lattice"].graph))
    bad += spinc_checks(out)
    bad.expect(r.order_h == abs(prod(a for a, _ in arms) * (b + sum(Fraction(w, a)
                                                              for a, w in arms))),
               "|H| != |e| prod(alpha)")
    bad.expect(out["group"].exponent == oracles.seifert_homology_exponent(b, arms),
               "exp(H) differs from the Seifert presentation")
    bad.expect(routes["cw"] == r.casson_walker, "Seifert closed-form lambda disagrees")
    bad.expect(routes["k2"] == r.k2_plus_nv, "Seifert closed-form K^2+#V disagrees")
    bad.expect(routes["shortcut"] == r.torsion_at_1, "arm shortcut T(1) disagrees")
    ks = routes["ks"]
    if ks.applicable:
        bad.expect(ks.sw0_ks == r.sw0, "eta route sw0 disagrees")
    return bad


def brieskorn_item(tr, exponents):
    spec = tr.call("brieskorn.classify", sp.BrieskornSpec, exponents)
    kind = tr.call("brieskorn.classify", sp.classify, spec).kind
    if kind == "not_qhs":
        raise sp.NotQHS(f"{exponents} is not a rational homology sphere")
    closed = tr.call("brieskorn.closed_form_invariants", sp.closed_form_invariants, spec)
    data = tr.call("brieskorn.brieskorn_seifert", sp.brieskorn_seifert, spec)
    graph = tr.call("seifert.graph_build", sp.star_graph, data)
    lattice, group, report = report_path(tr, graph, all_spinc=True)
    return output(lattice, group, report, to_json(tr, report), closed=closed)


def brieskorn_check(out, exponents):
    r, closed = out["report"], out["routes"]["closed"]
    bad = report_checks(out, *arrays(out["lattice"].graph))
    bad += spinc_checks(out)
    bad.expect(closed.order_h == r.order_h, "closed-form |H| disagrees")
    bad.expect(closed.torsion_closed == r.torsion_at_1, "closed-form T(1) disagrees")
    bad.expect(closed.lambda_closed == r.casson_walker, "closed-form lambda disagrees")
    bad.expect(closed.sw0 == r.sw0, "closed-form sw0 disagrees")
    bad.expect(-r.sw0 == closed.sigma_f / 8, "sw0 != -sigma/8")
    if exponents[:2] == (2, 2):     # the A_(n-1) lens space
        n = exponents[2]
        bad.expect(r.order_h == n and r.sw0 == Fraction(n - 1, 8), "A_(n-1) values wrong")
    return bad


def census_inputs(rng):
    data = [cyclic_seifert(rng, h, arm_count(h, 3 + i % 3))
            for i, h in enumerate(CYCLIC_ORDERS * 2)]
    pools = noncyclic_pools()
    data += [rng.choice(pools[slot]) for slot in NONCYCLIC]
    items = [Item(f"{i}:seifert{d}", seifert_item, seifert_check, *d)
             for i, d in enumerate(data)]
    tuples = [brieskorn_exponents(rng, d, b3) for d, b3 in BRIESKORN_SLOTS]
    items += [Item(f"{i}:brieskorn{t}", brieskorn_item, brieskorn_check, t)
              for i, t in enumerate(tuples + list(FAULTY_TUPLES), start=len(items))]
    return items


# ---------------------------------------------------------------------------
# blown_up: `swplumb graph FILE` on small-|H| graphs inflated by blowups
# ---------------------------------------------------------------------------

def chain(eulers):
    return list(eulers), [(j, j + 1) for j in range(len(eulers) - 1)]


def star(center, arms):
    """Central curve `center`; each arm a chain of the given Euler numbers."""
    eulers, edges = [center], []
    for arm in arms:
        prev = 0
        for e in arm:
            eulers.append(e)
            edges.append((prev, len(eulers) - 1))
            prev = len(eulers) - 1
    return eulers, edges


def hj_chain(p, q):
    """Euler numbers of the lens chain: p/q as a negative continued fraction."""
    out = []
    while q:
        c = -(-p // q)
        out.append(-c)
        p, q = q, c * q - p
    return out


def blowup_bases(rng):
    q11, q13, dn = rng.randrange(1, 11), rng.randrange(1, 13), rng.randrange(4, 10)
    nonstar = ([-2] * 4 + [-3] + [-2] * 8,     # 9-chain, pendant 2-chains at c2 and c8
               [(j, j + 1) for j in range(8)] + [(1, 9), (9, 10), (7, 11), (11, 12)])
    return [
        (f"L(11,{q11})", chain(hj_chain(11, q11))),
        (f"L(13,{q13})", chain(hj_chain(13, q13))),
        (f"D{dn}", star(-2, [[-2], [-2], [-2] * (dn - 3)])),
        ("E6", star(-2, [[-2], [-2] * 2, [-2] * 2])),
        ("E7", star(-2, [[-2], [-2] * 2, [-2] * 3])),
        ("E8", star(-2, [[-2], [-2] * 2, [-2] * 4])),
        ("nonstar13", nonstar),
        ("polygonal(3,3,3,3)", star(-2, [[-3]] * 4)),
        ("polygonal(3,4,5)", star(-1, [[-3], [-4], [-5]])),
    ]


def blow_up(rng, eulers, edges, size):
    """Seeded vertex and edge blowups until the graph has `size` vertices."""
    eulers, edges = list(eulers), list(edges)
    while len(eulers) < size:
        new = len(eulers)
        if not edges or rng.random() < 0.5:
            v = rng.randrange(new)
            eulers[v] -= 1
            edges.append((v, new))
        else:
            a, b = edges.pop(rng.randrange(len(edges)))
            eulers[a] -= 1
            eulers[b] -= 1
            edges += [(a, new), (new, b)]
        eulers.append(-1)
    return eulers, edges


def graph_document(eulers, edges):
    return {"vertices": [{"id": f"v{i}", "euler": e} for i, e in enumerate(eulers)],
            "edges": [[f"v{a}", f"v{b}"] for a, b in edges]}


def graph_item(tr, doc, base):
    graph = tr.call("plumbing.from_dict", sp.PlumbingGraph.from_dict, doc)
    lattice, group, report = report_path(tr, graph, all_spinc=False)
    return output(lattice, group, report, to_json(tr, report))


def graph_check(out, doc, base):
    bad = Problems()
    r = out["report"]
    eulers, edges = arrays(out["lattice"].graph)
    bad.expect(r.order_h == abs(oracles.bareiss_det(oracles.intersection_matrix(eulers, edges))),
               "|H| != |det I|")
    bad.expect(r == base.reference(), f"invariants differ from the base graph {base.name}")
    bad += base.problems
    bad.expect(sp.report_from_json(json.loads(out["json"])) == r, "JSON output does not round-trip")
    return bad


class BaseGraph:
    """A base manifold; its report is computed once and checked like a census item."""

    def __init__(self, name, eulers, edges):
        self.name, self.eulers, self.edges = name, eulers, edges
        self._report, self.problems = None, []

    def reference(self):
        if self._report is None:
            out = graph_item(Tracer(False), graph_document(self.eulers, self.edges), self)
            self.problems = [f"base graph {self.name}: {p}"
                             for p in report_checks(out, self.eulers, self.edges)]
            self._report = out["report"]
        return self._report


# Fifteen items, sizes spread evenly over 60-100 vertices, so the median item
# is the 80-vertex one whatever the seed.
BLOWN_UP_ITEMS = 15


def blown_up_inputs(rng):
    bases = [BaseGraph(name, *g) for name, g in blowup_bases(rng)]
    items = []
    for i in range(BLOWN_UP_ITEMS):
        base = bases[i % len(bases)]
        size = 60 + 40 * i // (BLOWN_UP_ITEMS - 1)
        doc = graph_document(*blow_up(rng, base.eulers, base.edges, size))
        items.append(Item(f"{i}:{base.name}+{size - len(base.eulers)}", graph_item, graph_check,
                          doc, base, prepare=base.reference))
    return items


WORKLOADS = {
    "lens_prime": lens_inputs,
    "seifert_census": census_inputs,
    "blown_up": blown_up_inputs,
}
