"""Output identity of the CLI between this tree and another: same invocations, same bytes.

    python tests/compare_cli.py OTHER_SRC     # OTHER_SRC: the src/ directory of the other tree

Each tree runs one fixed list of `swplumb` invocations in a child process of
its own, calling `cli.main` in process with stdout and stderr captured: the
corpus graphs and three blown-up documents, in both formats, with and without
`--all-spinc`; a missing file; `lens`, `seifert` and `brieskorn`, invalid
inputs among them; `dedekind`; `verify --list` and `verify`.  The graph
documents are written once, from this tree's corpus, to one temporary
directory that both trees read, so the paths in the output agree too.  Every
difference in stdout, stderr or exit code is printed, and the run exits 1.

Standard library only.  pytest does not collect this file (it is not named
test_*.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = (["--format", "table"], ["--format", "json"])
SPINC = ([], ["--all-spinc"])
BLOWN_UP = (("E6", 40, 1), ("D6", 60, 2), ("L(25,7)", 50, 3))   # base, vertices, seed
SEIFERT = (
    ["--b", "-2", "--arm", "2/1", "--arm", "3/1", "--arm", "5/1"],
    ["--b", "-1", "--arm", "2/1", "--arm", "3/1", "--arm", "7/1"],
    ["--b", "-2", "--arm", "3/1", "--arm", "3/1", "--arm", "3/1"],
    ["--b", "-3", "--arm", "2/1", "--arm", "4/3", "--arm", "5/2", "--arm", "7/3"],
    ["--b", "-2", "--arm", "2/1", "--arm", "2/1", "--arm", "2/1", "--arm", "2/1"],
    ["--b", "-1", "--arm", "2/1", "--arm", "3/2", "--arm", "5/4"],      # not negative definite
    ["--b", "-2", "--arm", "4/2", "--arm", "3/1", "--arm", "5/1"],      # not coprime
    ["--b", "-2", "--arm", "2/1"],
    ["--b", "x", "--arm", "2/1"],
)
BRIESKORN = ([2, 3, 5], [2, 3, 7], [2, 3, 11], [2, 3, 13], [2, 5, 7], [3, 4, 5], [2, 2, 3],
             [2, 2, 5], [2, 3, 6], [2, 4, 6], [3, 3, 3], [1, 2, 3], [2, 3], [0, 3, 5],
             [2, 3, 5, 7])
DEDEKIND = (["1", "3"], ["5", "12"], ["7", "25"], ["3", "7", "--x", "1/2"],
            ["2", "9", "--x", "-2/5", "--y", "1/3"], ["4", "0"], ["1", "3", "--x", "a"],
            ["5", "12", "--format", "json"])


def invocations(docs: Path) -> list:
    """The argument lists, in order; `docs` holds one JSON document per graph."""
    argvs = []
    for path in sorted(docs.glob("*.json")):
        argvs += [["graph", str(path)] + f + s for f in FORMATS for s in SPINC]
    argvs += [["graph", str(docs / "missing.json")] + f for f in FORMATS]
    for p in range(1, 14):
        argvs += [["lens", str(p), str(q)] + f for q in range(1, p) if gcd(p, q) == 1
                  for f in FORMATS]
    argvs += [["lens", "25", "7", "--all-spinc"], ["lens", "12", "5", "--all-spinc"] + FORMATS[1],
              ["lens", "4", "2"], ["lens", "0", "1"], ["lens", "5", "0"], ["lens", "-3", "1"],
              ["lens", "101", "3", "--max-order", "50"], ["lens", "7", "3", "--max-order", "0"]]
    argvs += [["seifert"] + a + f for a in SEIFERT for f in FORMATS]
    argvs += [["seifert"] + SEIFERT[3] + ["--all-spinc"]]
    argvs += [["brieskorn"] + list(map(str, e)) + f for e in BRIESKORN for f in FORMATS]
    argvs += [["brieskorn", "2", "3", "7", "--all-spinc"]]
    argvs += [["dedekind"] + a for a in DEDEKIND]
    return argvs + [["verify", "--list"], ["verify"]]


def blown_up_document(doc: dict, size: int, rng: random.Random) -> dict:
    """Seeded vertex and edge blowups of a graph document until it has `size` vertices."""
    vertices = [dict(v) for v in doc["vertices"]]
    edges = [list(e) for e in doc["edges"]]
    euler = {v["id"]: v for v in vertices}
    while len(vertices) < size:
        new = f"b{len(vertices)}"
        if edges and rng.random() < 0.5:
            a, b = edges.pop(rng.randrange(len(edges)))
            euler[a]["euler"] -= 1
            euler[b]["euler"] -= 1
            edges += [[a, new], [new, b]]
        else:
            v = rng.choice(vertices)
            v["euler"] -= 1
            edges.append([v["id"], new])
        euler[new] = {"id": new, "euler": -1}
        vertices.append(euler[new])
    return {"vertices": vertices, "edges": edges}


def write_documents(docs: Path) -> None:
    """This tree's corpus graphs and the blown-up documents, one JSON file each."""
    sys.path.insert(0, str(ROOT / "src"))
    from swplumb.corpus import standard_corpus
    corpus = {name: graph.to_dict() for name, graph in standard_corpus()}
    named = [(f"corpus{i:02d}", doc) for i, doc in enumerate(corpus.values())]
    named += [(f"blown{i}", blown_up_document(corpus[base], size, random.Random(seed)))
              for i, (base, size, seed) in enumerate(BLOWN_UP)]
    for name, doc in named:
        (docs / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")


def collect(src: str, docs: Path) -> list:
    """[argv, stdout, stderr, exit code] for every invocation, from the tree at `src`."""
    sys.path.insert(0, src)
    from swplumb import cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"swplumb comes from {cli.__file__}, not {src}")
    results = []
    for argv in invocations(docs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse rejects the arguments
                code = exc.code
            except Exception as exc:        # an uncaught fault is an output too
                code = f"uncaught {type(exc).__name__}: {exc}"
        results.append([argv, out.getvalue(), err.getvalue(), code])
    return results


def run_tree(src: Path, docs: Path) -> list:
    done = subprocess.run([sys.executable, __file__, "--collect", str(src), str(docs)],
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"the invocations failed to run against {src}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def main(argv) -> int:
    if argv[:1] == ["--collect"]:
        json.dump(collect(argv[1], Path(argv[2])), sys.stdout)
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="swplumb-compare-") as tmp:
        docs = Path(tmp)
        write_documents(docs)
        mine, other = run_tree(ROOT / "src", docs), run_tree(Path(argv[0]), docs)
    differences = 0
    for a, b in zip(mine, other):
        for label, x, y in zip(("stdout", "stderr", "exit code"), a[1:], b[1:]):
            if x != y:
                differences += 1
                print(f"{' '.join(a[0])}: {label} differs\n  this tree: {x!r:.300}\n"
                      f"  other:     {y!r:.300}")
    if len(mine) != len(other):
        differences += 1
        print(f"{len(mine)} invocations here, {len(other)} in the other tree")
    print(f"{len(mine)} invocations, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
