"""Mutation checks: each mutant of src/swplumb must fail the tests named for it.

    python tests/mutate.py              # every mutation
    python tests/mutate.py rerooting    # those whose name contains "rerooting"

A mutation is one exact text edit (file, old, new) of a module in
src/swplumb, with the test files that must catch it.  For each, src/ and
tests/ are copied to a temporary directory, the edit is applied, and pytest
runs the named tests there against the mutated copy through PYTHONPATH, with
one fixed hypothesis seed, so that each run draws the same examples and takes
about the same time.  A mutant whose tests pass survives.  Every survivor is reported, and the run
exits 1 if one is not in EQUIVALENT, which says why no test can catch it.

Standard library only.  pytest does not collect this file (it is not named
test_*.py); tests/test_mutations.py checks that each `old` text occurs
exactly once, so that the list fails loudly when the code moves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "swplumb"
HYPOTHESIS_SEED = 0     # every run draws the same property-test examples


class Mutation(NamedTuple):
    name: str
    file: str       # module under src/swplumb
    old: str
    new: str
    tests: tuple    # test files, relative to tests/


MUTATIONS = [
    # the orbit kernel and its stored form (torsion.orbit_product, residue_sums, at, invert)
    Mutation("orbit running-sum index", "torsion.py",
             "value += total - k * run[(i + 1) % k]", "value += total - k * run[i]",
             ("test_torsion.py",)),
    Mutation("Moebius sign", "torsion.py",
             "terms += [(q // p, -m) for q, m in terms]",
             "terms += [(q // p, m) for q, m in terms]",
             ("test_torsion.py",)),
    Mutation("orbit trace offset", "torsion.py",
             "w * s[e % len(s)]", "w * s[(e + 1) % len(s)]",
             ("test_torsion.py",)),
    Mutation("orbit shift direction", "torsion.py",
             "zip(f[-a:] + f[:-a], f)", "zip(f[a:] + f[:a], f)",
             ("test_torsion.py",)),
    Mutation("read-out without the per-orbit scales", "torsion.py",
             "(mu * q * (common // den), ", "(mu * q, ",
             ("test_torsion.py",)),
    Mutation("net power: the last factor's p for the sum", "torsion.py",
             "net[a] = net.get(a, 0) + p", "net[a] = p",
             ("test_torsion.py",)),
    Mutation("residue table read at e + 1", "torsion.py",
             "t + table[e] for", "t + table[(e + 1) % d] for",
             ("test_torsion.py",)),
    Mutation("residue sums one slice late", "torsion.py",
             "return [sum(num[r::q]) for", "return [sum(num[r + 1::q]) for",
             ("test_torsion.py",)),
    # one character per Galois orbit as a cyclic subgroup (torsion.orbit_characters)
    Mutation("orbit generator p^(a - b + 1) for p^(a - b)", "torsion.py",
             "ranges[s] = (p ** (a[s] - b),)", "ranges[s] = (p ** (a[s] - b + 1),)",
             ("test_torsion.py",)),
    Mutation("coordinates before s bounded like those after", "torsion.py",
             "p ** max(0, x - b + (j < s))", "p ** max(0, x - b)",
             ("test_torsion.py",)),
    Mutation("p-part embedded without d_i / p^a_i", "torsion.py",
             "y * (m // p ** x)", "y",
             ("test_torsion.py",)),
    # the orbit's character as a linear form on H (torsion.orbit_table, TorsionTable.at)
    Mutation("orbit form k_i for k_i d / d_i", "torsion.py",
             "c = tuple(x * d // m for x, m in zip(k, dims))", "c = k",
             ("test_torsion.py",)),
    Mutation("form values not reduced mod d", "torsion.py",
             "sum(map(mul, c, g)) % d for g in images", "sum(map(mul, c, g)) for g in images",
             ("test_torsion.py",)),
    Mutation("read-out at -h", "torsion.py",
             "e = sum(map(mul, c, h))", "e = -sum(map(mul, c, h))",
             ("test_torsion.py",)),
    # the Smith elimination and its logs (exact.py, homology.py)
    Mutation("last unit as pivot", "exact.py",
             "pj = min(where[k] for k, x in row.items() if x == 1 or x == -1)",
             "pj = max(where[k] for k, x in row.items() if x == 1 or x == -1)",
             ("test_smith_differential.py", "test_homology.py")),
    Mutation("backward update on the wrong side", "exact.py",
             "x[b] = [(y + q * z) % modulus for z, y in zip(x[a], x[b])]",
             "x[a] = [(y + q * z) % modulus for z, y in zip(x[b], x[a])]",
             ("test_homology.py", "test_smith_log.py")),
    Mutation("final sign fix not logged", "exact.py",
             "row_ops.append((i, i, -2))", "pass",
             ("test_homology.py", "test_smith_log.py")),
    Mutation("column check removed", "homology.py",
             'raise InternalInvariantViolated(f"a column of I does not die in Z/{d}")', "pass",
             ("test_smith_log.py",)),
    Mutation("lift check removed", "homology.py",
             'raise InternalInvariantViolated(f"generator {s} is not the class of its lift")',
             "pass",
             ("test_homology.py",)),
    Mutation("wrong lift column", "homology.py",
             "columns.append([x // d for x in image])",
             "columns.append([2 * x // d for x in image])",
             ("test_homology.py",)),
    # the tree layer (plumbing.py)
    Mutation("wrong running product in the solve", "plumbing.py",
             "sofar[p] *= dets[x]", "sofar[p] *= below[x]",
             ("test_plumbing.py",)),
    Mutation("rerooting: B[v] for B[p]", "plumbing.py",
             "upb[v] = below[p] // dets[v] * up[p]", "upb[v] = below[v] // dets[v] * up[p]",
             ("test_plumbing.py",)),
    Mutation("rerooting: det - for det +", "plumbing.py",
             "up[v] = (det + below[v] * upb[v])", "up[v] = (det - below[v] * upb[v])",
             ("test_plumbing.py",)),
    Mutation("rerooting: D[p] for D[v]", "plumbing.py",
             "upb[v] = below[p] // dets[v]", "upb[v] = below[p] // dets[p]",
             ("test_plumbing.py",)),
    Mutation("rerooting: up[v] for up[p]", "plumbing.py",
             "// dets[v] * up[p]", "// dets[v] * up[v]",
             ("test_plumbing.py",)),
    Mutation("rerooting: B[v] dropped from the diagonal", "plumbing.py",
             "diagonal = tuple(b * u for b, u in zip(below, up))", "diagonal = tuple(up)",
             ("test_plumbing.py",)),
    # the Seifert routes, Dedekind sums and their oracles (seifert.py, dedekind.py,
    # reference.py)
    Mutation("K + jE on the minus side", "seifert.py",
             "deg = -2 - deg", "deg = -2 + deg",
             ("test_seifert.py",)),
    Mutation("integrality check removed", "reference.py",
             "                if rest:\n", "                if False:\n",
             ("test_seifert.py",)),
    Mutation("plus side from n0", "seifert.py",
             "range(data.n0 + 1, 1)", "range(data.n0, 1)",
             ("test_seifert.py",)),
    Mutation("minus side up to floor(K/2E)", "seifert.py",
             "-(-K // (2 * E)))", "K // (2 * E))",
             ("test_seifert.py",)),
    Mutation("zero-dimension flag ignores the degree", "seifert.py",
             "zero_dim = zero_dim and deg == 0", "zero_dim = zero_dim",
             ("test_seifert.py",)),
    Mutation("degree floor term as a ceiling", "seifert.py",
             "sum(j * w // a for a, w in arms)", "sum(-(-j * w // a) for a, w in arms)",
             ("test_seifert.py",)),
    Mutation("rho0 numerator sign", "seifert.py",
             "Fraction(self.K - 2 * self.E * self.n0, 2 * self.E)",
             "Fraction(2 * self.E * self.n0 - self.K, 2 * self.E)",
             ("test_seifert.py",)),
    Mutation("Dedekind total added in Casson-Walker", "seifert.py",
             "3 * L * E) * s.denominator - 12", "3 * L * E) * s.denominator + 12",
             ("test_seifert.py",)),
    Mutation("Casson-Walker Dedekind part times 4", "seifert.py",
             "3 * L * E) * s.denominator - 12", "3 * L * E) * s.denominator - 4",
             ("test_seifert.py",)),
    Mutation("Dedekind total added in K^2 + #V", "seifert.py",
             "5 * L * E) * s.denominator - 12", "5 * L * E) * s.denominator + 12",
             ("test_seifert.py",)),
    Mutation("Dedekind total added in the eta invariant", "seifert.py",
             "(-4 * s.numerator, s.denominator)", "(4 * s.numerator, s.denominator)",
             ("test_seifert.py",)),
    Mutation("eta tail sawtooth ((0)) read as -1/2", "seifert.py",
             "for a, _, _, m in rows if m)", "for a, _, _, m in rows)",
             ("test_seifert.py",)),
    Mutation("Dedekind kernel keeps a common factor of X, Y and D", "dedekind.py",
             "g = gcd(X, Y, D)", "g = 1",
             ("test_dedekind.py", "test_seifert.py")),
    Mutation("continuant step c * num + den", "seifert.py",
             "num, den = c * num - den, num", "num, den = c * num + den, num",
             ("test_seifert.py",)),
    Mutation("gammas from n0 + 1", "seifert.py",
             "self.n0 * w % a", "(self.n0 + 1) * w % a",
             ("test_seifert.py",)),
    Mutation("beta(Y) for beta(X) in dr_sum", "dedekind.py",
             "k * k * beta(X)", "k * k * beta(Y)",
             ("test_dedekind.py",)),
    Mutation("dr_sum's final ((x))((y)) over 4 D^2 read over 12 D^2", "dedekind.py",
             "num + 3 * sign * sigma(X)", "num + sign * sigma(X)",
             ("test_dedekind.py",)),
    Mutation("root sum read at +t", "reference.py",
             "(-t % p,)", "(t % p,)",
             ("test_dedekind.py",)),
    Mutation("root-sum orbit weight 2", "reference.py",
             "(e, k, 1)", "(e, k, 2)",
             ("test_dedekind.py",)),
    Mutation("Dedekind symbol accepts bool", "dedekind.py",
             "if not (is_int(value) or isinstance(value, Fraction)):",
             "if not (isinstance(value, int) or isinstance(value, Fraction)):",
             ("test_dedekind.py",)),
    # the Gauss sum, the linking form and the caps (reference.py, homology.py, cli.py)
    Mutation("Gauss sum without -i", "reference.py",
             "turn = 3 * L // 4 if p % 4 == 3 else 0", "turn = 0",
             ("test_homology.py",)),
    Mutation("Gauss sum sign -s", "reference.py",
             "rhs[phase.numerator * (L // phase.denominator)] = s",
             "rhs[phase.numerator * (L // phase.denominator)] = -s",
             ("test_homology.py",)),
    Mutation("sqrt 2 as zeta_8 + zeta_8^3", "reference.py",
             "exps = (L // 8, -(L // 8))", "exps = (L // 8, 3 * (L // 8))",
             ("test_homology.py",)),
    Mutation("Gauss cap at 5000", "reference.py",
             "GAUSS_ORDER_CAP = 500 ", "GAUSS_ORDER_CAP = 5000 ",
             ("test_homology.py",)),
    Mutation("linking rows without mod D", "homology.py",
             "for x, y in zip(gb, h)) % den", "for x, y in zip(gb, h))",
             ("test_homology.py",)),
    Mutation("spin^c rows shifted by +lambda/|H|", "report.py",
             "Fraction(t * ld - ln * n, n * ld)", "Fraction(t * ld + ln * n, n * ld)",
             ("test_torsion.py",)),
    Mutation("--max-order 0 accepted", "cli.py",
             "    if value < 1:\n", "    if value < 0:\n",
             ("test_cli.py",)),
    # the structural guards, each a filter over the one scan of the sources
    # (tests/test_stdlib_only.py, tests/test_root_calls.py)
    Mutation("torsion imports the reference module", "torsion.py",
             "    wv = weight_vector(lattice, v0)\n",
             "    from .reference import CycNum\n    wv = weight_vector(lattice, v0)\n",
             ("test_stdlib_only.py",)),
    Mutation("seifert imports a private name of torsion", "seifert.py",
             "from .torsion import orbit_table\n", "from .torsion import _valuation, orbit_table\n",
             ("test_stdlib_only.py",)),
    Mutation("a group built outside homology", "seifert.py",
             "orbit_table(group.invariant_factors, images",
             "orbit_table(FinAbGroup(group.invariant_factors, (), ()).invariant_factors, images",
             ("test_stdlib_only.py",)),
    Mutation("a route check built in the CLI", "cli.py",
             "checks = seifert_routes(data, ks_route(data), lattice, group, report)\n",
             "checks = seifert_routes(data, ks_route(data), lattice, group, report)"
             " + [Check('x', None, '')]\n",
             ("test_stdlib_only.py",)),
    Mutation("reference imports Smith code from exact", "reference.py",
             "from .exact import IntMatrix\n", "from .exact import IntMatrix, replay_backward\n",
             ("test_stdlib_only.py",)),
    Mutation("a float function from math", "reference.py",
             "from math import floor, gcd, isqrt, lcm, prod\n",
             "from math import floor, gcd, isqrt, lcm, prod, sqrt\n",
             ("test_stdlib_only.py",)),
    Mutation("a root of unity outside the reference's oracles", "reference.py",
             "return field.element(lhs), field.element(rhs)",
             "return field.element(lhs), field.element(rhs) * field.root_of_unity(0)",
             ("test_root_calls.py",)),
    Mutation("dedekind imports homology", "dedekind.py",
             "from .exact import is_int\n", "from .exact import is_int\nfrom . import homology\n",
             ("test_stdlib_only.py",)),
    Mutation("a float literal in the order cap", "homology.py",
             "max_order < 1:", "max_order < 1.0:",
             ("test_stdlib_only.py",)),
    Mutation("a foreign import in the CLI", "cli.py",
             "    out = []\n", "    import numpy\n    out = []\n",
             ("test_stdlib_only.py",)),
    # the cross-check records and the route lists (verify.py), which the CLI
    # prints: its exit code and the fixtures read the one pass rule
    Mutation("exit code only when every check failed", "verify.py",
             "any(check.passed is False for check in checks)",
             "all(check.passed is False for check in checks)",
             ("test_cli.py",)),
    Mutation("eta-route note as a failed check", "verify.py",
             'Check("eta-invariant route", None,', 'Check("eta-invariant route", False,',
             ("test_cli.py",)),
    Mutation("signature check always passes", "verify.py",
             "closed.gorenstein_check, f", "True, f",
             ("test_cli.py",)),
    Mutation("lens Casson-Walker with p/4", "verify.py",
             "Fraction(p, 2) * s_qp", "Fraction(p, 4) * s_qp",
             ("test_cli.py",)),
    Mutation("eta route compared with T(1)", "verify.py",
             "report.sw0, ks.sw0_ks", "report.torsion_at_1, ks.sw0_ks",
             ("test_cli.py",)),
    Mutation("Brieskorn Casson-Walker against the closed torsion", "verify.py",
             "closed.lambda_closed", "closed.torsion_closed",
             ("test_cli.py",)),
    # the one counting rule of the fixture families (verify._Tally)
    Mutation("counts each check twice", "verify.py",
             "self.count += 1", "self.count += 2",
             ("test_acceptance.py",)),
    Mutation("drops a failed case", "verify.py",
             "self.failures.append(case)", "pass",
             ("test_acceptance.py",)),
]

EQUIVALENT = {
    "root-sum orbit weight 2":
        "the weight is read only for a factor with d | a when the orders still cancel; "
        "no factor list of fourier_identity_suite has d | a with a negative power",
}


def run(mutation: Mutation) -> bool:
    """True when the mutant survives: the named tests pass on the mutated copy."""
    with tempfile.TemporaryDirectory(prefix="swplumb-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        path = work / "src" / "swplumb" / mutation.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutation.old) != 1:
            raise SystemExit(f"{mutation.name}: the old text does not occur exactly once "
                             f"in {mutation.file}")
        path.write_text(text.replace(mutation.old, mutation.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             f"--hypothesis-seed={HYPOTHESIS_SEED}",
             *(str(Path("tests") / t) for t in mutation.tests)],
            cwd=work, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise SystemExit(f"{mutation.name}: pytest exited {done.returncode}\n"
                         f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return done.returncode == 0


def main(argv) -> int:
    chosen = [m for m in MUTATIONS if not argv or any(a in m.name for a in argv)]
    start = time.monotonic()
    survivors = []
    for mutation in chosen:
        survived = run(mutation)
        print(f"{'SURVIVED' if survived else 'killed  '}  {mutation.name}", flush=True)
        if survived:
            survivors.append(mutation.name)
    unexpected = [name for name in survivors if name not in EQUIVALENT]
    print(f"{len(chosen)} mutations, {len(chosen) - len(survivors)} killed, "
          f"{len(survivors)} survived ({len(unexpected)} not listed as equivalent), "
          f"{time.monotonic() - start:.0f} s")
    for name in survivors:
        print(f"  {name}: {EQUIVALENT.get(name, 'NOT EQUIVALENT: add a test that kills it')}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
