"""Command-line interface: graph ingestion, manifold builders, verification runs.

The builders print the route lists of `verify`.  Exit codes: 0 success, 1
invalid input or usage (a --max-order below 1 included), 2 the |H| cap
(--max-order, checked on |det I| before the group is built) was exceeded, 3 a
route cross-check (a `verify.Check` whose `passed` is False; a note, with
None, decides nothing) disagreed, a verify fixture failed or an internal
invariant failed.  Rational values are printed as exact fractions; JSON output
carries num/den pairs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import gcd

from .brieskorn import BrieskornSpec, brieskorn_seifert, classify, \
    closed_form_invariants
from .dedekind import dr_sum
from .errors import InternalInvariantViolated, NotRational, OrderCapExceeded, \
    SwplumbError
from .homology import DEFAULT_ORDER_CAP, homology_from_lattice
from .plumbing import PlumbingGraph, build_lattice
from .reference import dr_sum_direct
from .report import compute_report_from, render_table, report_to_json
from .seifert import SeifertData, ks_route, lens_chain, star_graph
from . import verify as verify_mod
from .verify import Check, brieskorn_routes, failed, lens_routes, seifert_routes

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on EXIT_INPUT; its own 2 is the cap code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _line(check: Check) -> str:
    """`name: detail`, flagged [MATCH] or [MISMATCH] unless the check is a note."""
    if check.passed is None:
        return f"{check.name}: {check.detail}"
    return f"{check.name}: {check.detail}  [{'MATCH' if check.passed else 'MISMATCH'}]"


def _max_order(text: str) -> int:
    """A --max-order value: a positive integer, else a usage error (EXIT_INPUT)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _compute(graph, args):
    lattice = build_lattice(graph)
    group = homology_from_lattice(lattice, max_order=args.max_order)
    report = compute_report_from(lattice, group, all_spinc=args.all_spinc)
    return report, lattice, group


def _print_report(report, args, checks=(), title="route cross-checks") -> int:
    """Print the report and its route cross-checks; EXIT_MISMATCH when one failed."""
    lines = [f"  {_line(check)}" for check in checks]
    if args.format == "json":
        doc = report_to_json(report)
        if lines:
            doc["cross_checks"] = lines
        print(json.dumps(doc, sort_keys=True))
    else:
        print(render_table(report))
        if lines:
            print(f"\n{title}:", *lines, sep="\n")
    return EXIT_MISMATCH if failed(checks) else EXIT_OK


def _cmd_graph(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: {args.path} line {exc.lineno} col {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_INPUT
    graph = PlumbingGraph.from_dict(doc)
    report, _, _ = _compute(graph, args)
    return _print_report(report, args)


def _cmd_lens(args) -> int:
    p, q = args.p, args.q
    if not (0 < q < p) or gcd(p, q) != 1:
        print(f"error: need coprime 0 < q < p, got p={p} q={q}", file=sys.stderr)
        return EXIT_INPUT
    report, _, _ = _compute(lens_chain(p, q), args)
    return _print_report(report, args, lens_routes(p, q, report),
                         "route cross-checks (lens closed forms)")


def _cmd_seifert(args) -> int:
    arms = []
    for spec in args.arm:
        try:
            a_txt, w_txt = spec.split("/")
            arms.append((int(a_txt), int(w_txt)))
        except ValueError:
            print(f"error: arm {spec!r} is not of the form alpha/omega",
                  file=sys.stderr)
            return EXIT_INPUT
    try:
        data = SeifertData(args.b, arms)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report, lattice, group = _compute(star_graph(data), args)
    checks = seifert_routes(data, ks_route(data), lattice, group, report)
    return _print_report(report, args, checks, "route cross-checks (Seifert closed forms)")


def _cmd_brieskorn(args) -> int:
    try:
        spec = BrieskornSpec(args.exponents)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    cls = classify(spec)
    if cls.kind == "not_qhs":
        print(f"error: {tuple(args.exponents)} is not a rational homology "
              f"sphere (base genus {spec.genus})", file=sys.stderr)
        return EXIT_INPUT
    closed = closed_form_invariants(spec)
    report, _, _ = _compute(star_graph(brieskorn_seifert(spec)), args)
    return _print_report(report, args, brieskorn_routes(closed, report),
                         f"route cross-checks (classification {cls.kind}, "
                         f"parameter {cls.d}, parts {cls.bs})")


def _cmd_dedekind(args) -> int:
    h, k = args.h, args.k
    if k < 1 or gcd(h, k) != 1:
        print(f"error: need coprime h, k with k >= 1, got h={h} k={k}",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        x, y = Fraction(args.x), Fraction(args.y)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: bad shift argument: {exc}", file=sys.stderr)
        return EXIT_INPUT
    fast = dr_sum(h, k, x, y)
    direct = dr_sum_direct(h, k, x, y)
    oracle = Check("direct summation oracle", fast == direct, str(direct))
    if args.format == "json":
        print(json.dumps({
            "h": h, "k": k,
            "x": {"num": x.numerator, "den": x.denominator},
            "y": {"num": y.numerator, "den": y.denominator},
            "value": {"num": fast.numerator, "den": fast.denominator},
            "oracle_agrees": oracle.passed,
        }, sort_keys=True))
    else:
        print(f"s({h},{k};{x},{y}) = {fast}")
        print(_line(oracle))
    return EXIT_OK if oracle.passed else EXIT_MISMATCH


def _cmd_verify(args) -> int:
    if args.list:
        for name in verify_mod.fixture_names():
            print(name)
        return EXIT_OK
    return EXIT_OK if verify_mod.run() else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swplumb",
        description="Exact torsion / Casson-Walker / monopole-count invariants "
                    "of negative-definite plumbed 3-manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--max-order", type=_max_order, default=DEFAULT_ORDER_CAP,
                       help="cap on |H| for character sums (default 10^6)")
        p.add_argument("--all-spinc", action="store_true",
                       help="also list sw0 for every spin-c offset")

    p_graph = sub.add_parser("graph", help="invariants of a plumbing graph JSON file")
    p_graph.add_argument("path")
    common(p_graph)
    p_graph.set_defaults(func=_cmd_graph)

    p_lens = sub.add_parser("lens", help="lens space from coprime p, q")
    p_lens.add_argument("p", type=int)
    p_lens.add_argument("q", type=int)
    common(p_lens)
    p_lens.set_defaults(func=_cmd_lens)

    p_seif = sub.add_parser("seifert", help="Seifert manifold from normalized data")
    p_seif.add_argument("--b", type=int, required=True)
    p_seif.add_argument("--arm", action="append", required=True,
                        metavar="ALPHA/OMEGA")
    common(p_seif)
    p_seif.set_defaults(func=_cmd_seifert)

    p_brie = sub.add_parser("brieskorn",
                            help="diagonal complete intersection link")
    p_brie.add_argument("exponents", type=int, nargs="+")
    common(p_brie)
    p_brie.set_defaults(func=_cmd_brieskorn)

    p_ded = sub.add_parser("dedekind", help="Dedekind-Rademacher sum")
    p_ded.add_argument("h", type=int)
    p_ded.add_argument("k", type=int)
    p_ded.add_argument("--x", default="0", help="rational shift, e.g. 1/2")
    p_ded.add_argument("--y", default="0")
    p_ded.add_argument("--format", choices=("table", "json"), default="table")
    p_ded.set_defaults(func=_cmd_dedekind)

    p_ver = sub.add_parser("verify", help="run the acceptance fixture suite")
    p_ver.add_argument("--list", action="store_true",
                       help="print fixture names without running")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def _attach_negative_shifts(argv):
    """`--x -2/5` as `--x=-2/5`: argparse would take `-2/5` for an option."""
    out = []
    for token in argv:
        if out and out[-1] in ("--x", "--y") and re.match(r"-[\d.]", token):
            token = out.pop() + "=" + token
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_shifts(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except OrderCapExceeded as exc:
        print(f"error: {exc} (raise --max-order to proceed)", file=sys.stderr)
        return EXIT_CAP
    except (InternalInvariantViolated, NotRational) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (SwplumbError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
