"""Links of generic diagonal complete intersections with exponents (a_1,...,a_n).

The link is a rational homology sphere exactly when the base genus vanishes;
in that case the exponent tuple normalizes to one of two coprimality patterns,
each with closed forms for the torsion at the identity, the Casson-Walker
invariant and the Milnor fiber signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, prod

from .dedekind import dr_sum
from .errors import InternalInvariantViolated, NotQHS
from .exact import is_int
from .seifert import SeifertData


@dataclass(frozen=True)
class BrieskornSpec:
    """Exponents a_i >= 2 (n >= 3) of one diagonal complete intersection link."""

    exponents: tuple

    def __init__(self, exponents):
        exps = tuple(exponents)
        for a in exps:
            if not is_int(a):
                raise ValueError(f"exponent {a!r} is not an integer")
        if len(exps) < 3:
            raise ValueError("need at least three exponents")
        if any(a < 2 for a in exps):
            raise ValueError("every exponent must be at least 2")
        object.__setattr__(self, "exponents", exps)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @cached_property
    def a(self) -> int:
        return lcm(*self.exponents)

    @property
    def big_a(self) -> int:
        return prod(self.exponents)

    @cached_property
    def q(self):
        return tuple(self.a // ai for ai in self.exponents)

    @cached_property
    def alphas(self):
        exps = self.exponents
        return tuple(self.a // lcm(*(aj for j, aj in enumerate(exps) if j != i))
                     for i in range(self.n))

    @cached_property
    def s(self):
        a, big = self.a, self.big_a
        vals = [Fraction(big * al, a * ai) for ai, al in zip(self.exponents, self.alphas)]
        if any(v.denominator != 1 for v in vals):
            raise InternalInvariantViolated("arm multiplicities must be integers")
        return tuple(int(v) for v in vals)

    @property
    def genus(self) -> Fraction:
        g = Fraction(2 + (self.n - 2) * Fraction(self.big_a, self.a) - sum(self.s), 2)
        return g

    @property
    def e(self) -> Fraction:
        return -Fraction(self.big_a, self.a * self.a)

    @cached_property
    def classification(self) -> Classification:
        """The normal form, computed once per spec (see `classify`)."""
        if self.genus != 0:
            return Classification("not_qhs", None, None)
        exps = self.exponents
        evens = [i for i, ai in enumerate(exps) if ai % 2 == 0]
        if len(evens) == 3:
            vals = sorted(((ai & -ai).bit_length() - 1, i) for i, ai in enumerate(exps)
                          if ai % 2 == 0)
            (v1, _), (v2, _), (vc, ic) = vals
            if v1 != 1 or v2 != 1:
                raise InternalInvariantViolated("unexpected two-power pattern at genus zero")
            c = (exps[ic] & -exps[ic]).bit_length() - 1
            order = [ic] + [i for i in evens if i != ic] + [i for i in range(self.n)
                                                            if i not in evens]
            bs = tuple(exps[i] >> ((exps[i] & -exps[i]).bit_length() - 1) for i in order)
            _require(all(b % 2 == 1 for b in bs), "odd parts must be odd")
            _require(_pairwise_coprime(bs), "odd parts must be pairwise coprime")
            return Classification("case_ii", c, bs)
        pairs = [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                 if gcd(exps[i], exps[j]) > 1]
        if not pairs:
            return Classification("case_i", 1, exps)
        _require(len(pairs) == 1, "at most one non-coprime pair at genus zero")
        i, j = pairs[0]
        d = gcd(exps[i], exps[j])
        bs = (exps[i] // d, exps[j] // d) + tuple(
            exps[k] for k in range(self.n) if k not in (i, j))
        _require(_pairwise_coprime(bs), "normalized parts must be pairwise coprime")
        _require(all(gcd(d, b) == 1 for b in bs[2:]), "pair factor must avoid the tail")
        return Classification("case_i", d, bs)


@dataclass(frozen=True)
class Classification:
    """Normal form of a rational homology sphere exponent tuple."""

    kind: str          # "case_i" | "case_ii" | "not_qhs"
    d: int | None      # shared pair factor (case i) or two-power c (case ii)
    bs: tuple | None   # normalized coprime parts, aligned with the kind


def classify(spec: BrieskornSpec) -> Classification:
    """Decide rational homology sphere-ness and extract the coprime normal form."""
    return spec.classification


def _qhs_classification(spec: BrieskornSpec) -> Classification:
    """The classification of a rational homology sphere; NotQHS otherwise."""
    if spec.classification.kind == "not_qhs":
        raise NotQHS(f"{spec.exponents} has positive base genus")
    return spec.classification


def _pairwise_coprime(vals) -> bool:
    return all(gcd(vals[i], vals[j]) == 1
               for i in range(len(vals)) for j in range(i + 1, len(vals)))


def _require(cond, msg):
    if not cond:
        raise InternalInvariantViolated(msg)


def order_of_h(spec: BrieskornSpec) -> int:
    """Closed-form order of the first homology group."""
    cls = _qhs_classification(spec)
    if cls.kind == "case_i":
        return prod(b ** (cls.d - 1) for b in cls.bs[2:])
    big_b = prod(cls.bs)
    value = Fraction(2 ** cls.d * big_b ** 3, (cls.bs[0] * cls.bs[1] * cls.bs[2]) ** 2)
    if value.denominator != 1:
        raise InternalInvariantViolated("group order must be an integer")
    return int(value)


def brieskorn_seifert(spec: BrieskornSpec) -> SeifertData:
    """Normalized Seifert data of the link, arms with trivial isotropy dropped."""
    _qhs_classification(spec)
    alphas, counts, qs = spec.alphas, spec.s, spec.q
    omegas = [-pow(qi, -1, al) % al for al, qi in zip(alphas, qs)]     # 0 where al = 1
    b = spec.e - sum(si * Fraction(w, al)
                     for si, w, al in zip(counts, omegas, alphas) if al > 1)
    if b.denominator != 1:
        raise InternalInvariantViolated("central Euler number must be an integer")
    arms = []
    for al, w, si in zip(alphas, omegas, counts):
        if al > 1:
            arms.extend([(al, w)] * si)
    data = SeifertData(int(b), arms)
    if data.e != spec.e:
        raise InternalInvariantViolated("orbifold Euler number mismatch")
    return data


@dataclass(frozen=True)
class BrieskornReport:
    """Closed-form invariants and the signature-vs-monopole consistency flag."""

    order_h: int
    torsion_closed: Fraction
    lambda_closed: Fraction
    sigma_f: Fraction
    sw0: Fraction
    gorenstein_check: bool


def closed_form_invariants(spec: BrieskornSpec) -> BrieskornReport:
    """Torsion, Casson-Walker, fiber signature and the monopole count, in closed form.

    All sums run over the normal-form ordering of the classification; the arm
    data there is (alpha_j, multiplicity s_j) with rotation numbers inverse to
    a / a_j modulo alpha_j.
    """
    cls = _qhs_classification(spec)
    order = order_of_h(spec)
    n = spec.n
    big_b = prod(cls.bs)

    if cls.kind == "case_i":
        d, bs = cls.d, cls.bs
        exps_nf = (d * bs[0], d * bs[1]) + bs[2:]
        alphas = bs
        counts = (1, 1) + (d,) * (n - 2)
        a_full = d * big_b
        lam_scale = Fraction(big_b, 24)
        fiber_scale = Fraction(1, 3 * big_b)
        drop = -d * (n - 2)
        sq_drop = (n - 2) * d * d * big_b * big_b
        sq_scale = big_b * big_b
        tail = -Fraction(1, 24 * big_b)
        t1 = Fraction(big_b * d * (d - 1), 24) * sum(1 - Fraction(1, b * b)
                                                     for b in bs[2:])
    else:
        c, bs = cls.d, cls.bs
        exps_nf = (2 ** c * bs[0], 2 * bs[1], 2 * bs[2]) + bs[3:]
        alphas = (2 ** (c - 1) * bs[0],) + bs[1:]
        counts = (2, 2, 2) + (4,) * (n - 3)
        a_full = 2 ** c * big_b
        half = 2 ** (c - 1) * big_b
        lam_scale = Fraction(half, 48)
        fiber_scale = Fraction(1, 3 * Fraction(2) ** (c - 2) * big_b)
        drop = -4 * (n - 2)
        sq_drop = (n - 2) * 2 ** (2 * c) * big_b * big_b
        sq_scale = Fraction(2) ** (2 * c - 4) * big_b * big_b
        tail = -Fraction(1, 3 * 2 ** (c + 1) * big_b)
        t1 = (Fraction(half, 8)
              + Fraction(half, 24) * sum(Fraction(s * (s - 1), 2)
                                         * (1 - Fraction(1, al * al))
                                         for s, al in zip(counts, alphas)))

    qs = tuple(a_full // ai for ai in exps_nf)
    sums = [dr_sum(pow(qj, -1, al), al) if al > 1 else 0 for qj, al in zip(qs, alphas)]
    # the two rotation conventions must give the same sums
    for qj, al, total in zip(qs, alphas, sums):
        if al > 1 and dr_sum(qj % al, al) != total:
            raise InternalInvariantViolated("inverse-rotation sum mismatch")
    dedekind_total = sum(s * total for s, total in zip(counts, sums))

    minus_lambda = (-lam_scale
                    * (drop + sum(Fraction(s, al * al)
                                  for s, al in zip(counts, alphas)))
                    + tail + Fraction(1, 8) + Fraction(1, 2) * dedekind_total)
    sigma = (-1
             + fiber_scale * (1 - sq_drop
                              + sq_scale * sum(Fraction(s * s, al * al)
                                               for s, al in zip(counts, alphas)))
             - 4 * dedekind_total)
    sw = t1 + minus_lambda
    return BrieskornReport(
        order_h=order,
        torsion_closed=t1,
        lambda_closed=-minus_lambda * order,
        sigma_f=sigma,
        sw0=sw,
        gorenstein_check=(-sw == sigma / 8),
    )
