"""One-manifold invariant report: assembly, JSON round trip, table rendering."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .homology import DEFAULT_ORDER_CAP, FinAbGroup, homology_from_lattice
from .plumbing import (LatticeData, PlumbingGraph, build_lattice, casson_walker,
                       k2_plus_nv, numerically_gorenstein)
from .torsion import torsion_table


@dataclass(frozen=True)
class InvariantReport:
    """Everything the pipeline computes for one plumbed manifold."""

    order_h: int
    invariant_factors: tuple
    k2_plus_nv: Fraction
    casson_walker: Fraction
    torsion_at_1: Fraction
    sw0: Fraction
    conjecture_gap: Fraction
    numerically_gorenstein: bool
    spinc_table: tuple | None = None   # ((h_sigma, sw0), ...) over all of H


def compute_report(graph: PlumbingGraph, *, max_order: int = DEFAULT_ORDER_CAP,
                   all_spinc: bool = False) -> InvariantReport:
    lattice = build_lattice(graph)
    group = homology_from_lattice(lattice, max_order=max_order)
    return compute_report_from(lattice, group, all_spinc=all_spinc)


def compute_report_from(lattice: LatticeData, group: FinAbGroup, *,
                        all_spinc: bool = False) -> InvariantReport:
    """The one place sw0, the gap and the spin^c rows are derived.

    sw0 = T(1) - lambda/|H| and the gap sw0 - (K^2 + #V)/8 for the canonical
    structure; with all_spinc, sw0 of h * sigma_can is T(h) - lambda/|H|, one
    Fraction per row from the integer totals that `TorsionTable.invert` reads.
    """
    k2 = k2_plus_nv(lattice)
    lam = casson_walker(lattice)
    table = torsion_table(lattice, group)
    t1 = table.at(group.identity)
    lam_over_h = lam / group.order
    sw = t1 - lam_over_h
    gap = sw - k2 / 8
    spinc = None
    if all_spinc:      # T(h) - lambda/|H| over n ld from the table's integer totals t/n
        n, rows = table.totals()
        ln, ld = lam_over_h.numerator, lam_over_h.denominator
        spinc = tuple((h, Fraction(t * ld - ln * n, n * ld)) for h, t in rows)
    return InvariantReport(
        order_h=group.order,
        invariant_factors=group.invariant_factors,
        k2_plus_nv=k2,
        casson_walker=lam,
        torsion_at_1=t1,
        sw0=sw,
        conjecture_gap=gap,
        numerically_gorenstein=numerically_gorenstein(lattice),
        spinc_table=spinc,
    )


# ---------------------------------------------------------------------------
# Serialization: rationals always as num/den pairs, never floats
# ---------------------------------------------------------------------------

def _frac_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _frac_from_json(d) -> Fraction:
    return Fraction(d["num"], d["den"])


def report_to_json(report: InvariantReport) -> dict:
    doc = {
        "order_h": report.order_h,
        "invariant_factors": list(report.invariant_factors),
        "k2_plus_nv": _frac_json(report.k2_plus_nv),
        "casson_walker": _frac_json(report.casson_walker),
        "torsion_at_1": _frac_json(report.torsion_at_1),
        "sw0": _frac_json(report.sw0),
        "conjecture_gap": _frac_json(report.conjecture_gap),
        "numerically_gorenstein": report.numerically_gorenstein,
    }
    if report.spinc_table is not None:
        doc["spinc_table"] = [{"h": list(h), "sw0": _frac_json(v)}
                              for h, v in report.spinc_table]
    return doc


def report_from_json(doc: dict) -> InvariantReport:
    spinc = None
    if "spinc_table" in doc:
        spinc = tuple((tuple(row["h"]), _frac_from_json(row["sw0"]))
                      for row in doc["spinc_table"])
    return InvariantReport(
        order_h=doc["order_h"],
        invariant_factors=tuple(doc["invariant_factors"]),
        k2_plus_nv=_frac_from_json(doc["k2_plus_nv"]),
        casson_walker=_frac_from_json(doc["casson_walker"]),
        torsion_at_1=_frac_from_json(doc["torsion_at_1"]),
        sw0=_frac_from_json(doc["sw0"]),
        conjecture_gap=_frac_from_json(doc["conjecture_gap"]),
        numerically_gorenstein=doc["numerically_gorenstein"],
        spinc_table=spinc,
    )


def render_table(report: InvariantReport) -> str:
    rows = [
        ("|H|", str(report.order_h)),
        ("invariant factors", " ".join(str(d) for d in report.invariant_factors) or "-"),
        ("K^2 + #V", str(report.k2_plus_nv)),
        ("lambda", str(report.casson_walker)),
        ("T(1)", str(report.torsion_at_1)),
        ("sw0(canonical)", str(report.sw0)),
        ("gap sw0 - (K^2+#V)/8", str(report.conjecture_gap)),
        ("numerically Gorenstein", "yes" if report.numerically_gorenstein else "no"),
    ]
    width = max(len(k) for k, _ in rows)
    lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
    if report.spinc_table is not None:
        lines.append("")
        lines.append("sw0 over all spin-c offsets:")
        for h, v in report.spinc_table:
            label = "(" + ",".join(str(x) for x in h) + ")"
            lines.append(f"  h = {label.ljust(12)} sw0 = {v}")
    return "\n".join(lines)
