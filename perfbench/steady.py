#!/usr/bin/env python3
"""Steadiness and repeatability checks for the benchmark.

    python3 perfbench/steady.py spread --workload W [--runs 10] [--first-seed 1]
        Run one workload N times, each with another seed, and print each
        end-to-end metric's median, quartiles and spread (quartile distance
        over median) beside its bound in BENCHMARK.json.

    python3 perfbench/steady.py counts [--seed 7]
        Run the traced mode twice on every workload with the same seed and
        check that the deterministic per-layer counts repeat exactly.

Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that count work rather than time it: the same seed
# must give the same value.
COUNTS = [
    "solver.steps",
    "solver.resolutions",
    "spec.incr_steps",
    "kb.h_consults",
    "kb.h_pruned",
    "kb.h_scans",
    "table.hits",
    "table.misses",
    "table.invalidations",
    "table.fallbacks",
    "wal.bytes_per_commit",
    "checkpoint.bytes_per_commit",
    "server.writes_per_reply",
]


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(args):
    spec = bench()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for i in range(args.runs):
        r = run(args.workload, args.first_seed + i, spec["run_seconds"], 0)
        if not r["correct"]:
            sys.exit(f"seed {args.first_seed + i}: incorrect output")
        results.append(r)
        print(f"seed {args.first_seed + i}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: failed share {sorted(shares)} over {args.runs} runs")
    print(f"{'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:<14} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
              f"{(q3 - q1) / med:>7.3f} {bound:>6}")


def counts(args):
    spec = bench()
    differ = []
    for w in spec["workloads"]:
        first, second = (run(w["name"], args.seed, spec["run_seconds"], 1) for _ in range(2))
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            print(f"{w['name']:<17} {name:<28} {a:>14} {b:>14}")
            if a != b:
                differ.append((w["name"], name, a, b))
    if differ:
        sys.exit(f"counts differ between two runs of seed {args.seed}: {differ}")
    print(f"every count repeats exactly with seed {args.seed}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    c = sub.add_parser("counts")
    c.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    spread(args) if args.cmd == "spread" else counts(args)


if __name__ == "__main__":
    main()
