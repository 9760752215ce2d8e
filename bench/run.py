"""Benchmark of swplumb: one seeded workload per run, end to end or traced.

    python3 bench/run.py --workload lens_prime --seed 1 --seconds 30 --trace 0

The run generates its inputs from the seed, then repeats whole rounds (every
input once, in a seeded order) until `--seconds` have passed.  Each round
starts with empty field caches, so every round does the same work.  Outputs
are checked after each item, outside its timing.  The last line of standard
output is the result; the line before it, and `bench/out/`, hold the details.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5          # set-up is measured in this many fresh processes
OUT_DIR = HERE / "out"


def cpu_seconds() -> float:
    """CPU time of this process, its threads and the children it waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def load_workload(name: str, seed: int):
    """Import swplumb from the checkout's src/ and generate the workload's inputs."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    if not Path(workloads.sp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"swplumb comes from {workloads.sp.__file__}, not this checkout")
    return workloads, workloads.WORKLOADS[name](random.Random(f"{name}/{seed}"))


def per_layer_units():
    """The per-layer metrics every traced run reports, with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def character_counts(lattice, group):
    """(nonzero characters, coefficient multiplications) of the per-character sum.

    Computed from the group and the graph, not counted inside the program: a
    character's regularized product vanishes when the fixed vertices carry a
    positive order sum(deg v - 2); otherwise it multiplies sum |deg v - 2|
    factors over the free vertices, each costing phi(N)^2 coefficient products.
    """
    n, degrees = lattice.size, lattice.degrees
    phi = sum(1 for k in range(1, group.exponent + 1) if gcd(k, group.exponent) == 1)
    nonzero = mults = 0
    for chi in group.characters(group.order):
        if chi.is_trivial:
            continue
        fixed = [group.char_exponent(chi, g) == 0 for g in group.generator_images]
        if sum(degrees[v] - 2 for v in range(n) if fixed[v]) > 0:
            continue
        nonzero += 1
        mults += sum(abs(degrees[v] - 2) for v in range(n) if not fixed[v]) * phi * phi
    return nonzero, mults


def item_trace(spans, out, cpu_ms):
    """A traced item's CPU time as the untraced run spends it, and its counts.

    The traced-only calls are left out.  compute_report_from ran after the
    cold torsion_table had filled the field caches, so the torsion inside it
    is counted at its cold cost instead, as in the untraced run.
    """
    ms = {s[1]: s[4] for s in spans}
    extra = sum(s[4] for s in spans if s[5])
    cold_minus_warm = (ms.get("torsion.torsion_table", 0.0)
                       - ms.get("torsion.torsion_table.warm", 0.0))
    nonzero, mults = character_counts(out["lattice"], out["group"])
    table = out["report"].spinc_table
    counts = {"plumbing.vertices": out["lattice"].size,
              "torsion.characters": out["group"].order,
              "torsion.characters_nonzero": nonzero, "torsion.coeff_mults": mults,
              "report.spinc_terms": len(table) * nonzero if table else 0}
    return cpu_ms - extra + cold_minus_warm, counts


def layer_totals(spans, counts):
    """Per-layer totals over one round: span CPU ms by name, and the counts."""
    ms = {}
    for _, name, _, _, cpu_ms, _ in spans:
        ms[name] = ms.get(name, 0.0) + cpu_ms
    totals = {f"{k}.ms": v for k, v in ms.items() if not k.endswith(".warm")}
    totals["report.spinc_table.ms"] = ms.get("report.compute_report_from", 0.0) - sum(
        ms.get(k, 0.0) for k in ("torsion.torsion_table.warm", "plumbing.casson_walker",
                                 "plumbing.k2_plus_nv"))
    for c in counts:
        for k, v in c.items():
            totals[k] = totals.get(k, 0) + v
    return totals


# ---------------------------------------------------------------------------
# Host readings
# ---------------------------------------------------------------------------

def steal_seconds():
    """Cumulative steal time of the host's CPUs, from /proc/stat (None if absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def calibration_ms() -> float:
    """CPU time of a fixed pure-Python loop: host speed, apart from the program."""
    start = time.process_time()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return (time.process_time() - start) * 1e3


def setup_seconds(workload: str, seed: int) -> list:
    """Wall time of fresh processes that import swplumb and generate the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def fresh_caches(sp):
    """Empty the process-wide field caches, as a new `swplumb` process starts.

    Looked up by name: a later kernel may keep these functions without caches.
    """
    for name in ("cyclotomic_field", "cyclotomic_polynomial"):
        getattr(getattr(sp, name, None), "cache_clear", lambda: None)()


def field_cache_counts(sp):
    info = getattr(getattr(sp, "cyclotomic_field", None), "cache_info", None)
    return (info().misses, info().hits) if info else (0, 0)


def per_input_median(samples, key):
    """Each input's median over the rounds: a few slow or fast rounds move none of them."""
    return [statistics.median(s[key]) for s in samples.values()]


def measure(wl, items, seconds, tracer):
    sp = wl.sp
    verified = {}                 # label -> signature of the output already checked
    problems, failures = [], {}
    samples, traced_cpu = {}, {}  # label -> {"wall_s": [...], "cpu_ms": [...]}, one per round
    attempted = failed = rounds = 0
    per_round, fields = [], []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        fresh_caches(sp)
        built0, reused0 = field_cache_counts(sp)
        round_spans, round_counts = len(tracer.spans), []
        for item in items:
            tracer.item = attempted
            attempted += 1
            item_spans = len(tracer.spans)
            w0, c0 = time.perf_counter(), cpu_seconds()
            try:
                out = item.run(tracer)
            except Exception as exc:      # a program fault: counted, reported, run goes on
                failed += 1
                failures.setdefault(item.label, f"{type(exc).__name__}: {exc}")
                continue
            c1, w1 = cpu_seconds(), time.perf_counter()
            mine = samples.setdefault(item.label, {"wall_s": [], "cpu_ms": []})
            mine["wall_s"].append(w1 - w0)
            mine["cpu_ms"].append((c1 - c0) * 1e3)
            sig = wl.signature(out)
            if verified.get(item.label) != sig:
                bad = item.check(out)
                if bad:
                    problems.append(f"{item.label}: {'; '.join(bad)}")
                verified[item.label] = sig
            if tracer.on:
                ms, counts = item_trace(tracer.spans[item_spans:], out, mine["cpu_ms"][-1])
                traced_cpu.setdefault(item.label, []).append(ms)
                round_counts.append(counts)
        built1, reused1 = field_cache_counts(sp)
        fields.append((built1 - built0, reused1 - reused0))
        if tracer.on:
            per_round.append(layer_totals(tracer.spans[round_spans:], round_counts))
        rounds += 1
    return {"samples": samples, "traced_cpu": traced_cpu, "attempted": attempted,
            "failed": failed, "rounds": rounds, "problems": problems,
            "failures": failures, "per_round": per_round, "fields": fields,
            "elapsed_s": time.perf_counter() - start}


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lens_prime", "seifert_census", "blown_up"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate the inputs, then exit (set-up probe)")
    args = parser.parse_args(argv)

    try:
        wl, items = load_workload(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import swplumb from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    own_setup_s = time.perf_counter() - t0
    if args.setup_only:
        return 0
    random.Random(args.seed).shuffle(items)

    steal0, calib0 = steal_seconds(), calibration_ms()
    setups = [] if args.trace else setup_seconds(args.workload, args.seed)
    p0 = time.perf_counter()
    for item in items:
        item.prepare()
    prepare_s = time.perf_counter() - p0

    tracer = wl.Tracer(bool(args.trace))
    run = measure(wl, items, args.seconds, tracer)
    calib1, steal1 = calibration_ms(), steal_seconds()

    all_cpu = [x for s in run["samples"].values() for x in s["cpu_ms"]]
    completed = len(all_cpu)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items_per_round": len(items), "rounds": run["rounds"],
        "completed": completed, "elapsed_s": run["elapsed_s"],
        "own_setup_s": own_setup_s, "setup_samples_s": setups, "prepare_s": prepare_s,
        "failures": run["failures"], "problems": run["problems"][:20],
        "host": {"steal_s": None if steal0 is None else steal1 - steal0,
                 "calibration_cpu_ms_start": calib0, "calibration_cpu_ms_end": calib1,
                 "cpus": os.cpu_count(), "python": sys.version.split()[0]},
        "swplumb": wl.sp.__file__,
    }
    if completed >= 100:          # ten samples beyond p90
        detail["item_cpu_ms_p90"] = statistics.quantiles(all_cpu, n=10, method="inclusive")[8]
    if args.trace:
        layers = {k: statistics.median(r.get(k, 0.0) for r in run["per_round"])
                  for k in sorted({k for r in run["per_round"] for k in r})}
        built, reused = zip(*run["fields"])
        layers["exact.fields_built"] = statistics.median(built)
        layers["exact.fields_reused"] = statistics.median(reused)
        layers["trace.item_cpu_ms_p50"] = statistics.median(
            statistics.median(v) for v in run["traced_cpu"].values())
        detail["layers_per_round"] = layers
        metrics = {k: {"value": layers[k], "unit": unit}
                   for k, unit in per_layer_units().items()}
    else:
        metrics = {
            "items_per_s": {"value": len(run["samples"])
                            / sum(per_input_median(run["samples"], "wall_s")),
                            "unit": "1/s"},
            "item_cpu_ms_p50": {"value": statistics.median(
                per_input_median(run["samples"], "cpu_ms")),
                                "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    for line in run["problems"][:20]:
        print(f"check failed: {line}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics, "samples": run["samples"],
                   "spans": tracer.spans}, fh)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not run["problems"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
