#!/usr/bin/env python3
"""Interleaved A/B (or A/A) runs of the benchmark, judged by BENCHMARK.json.

    python3 bench/e2e/aa_check.py [--runs 5] [--seed 2026] BUILD_A [BUILD_B]

BUILD_A and BUILD_B are build directories holding hanayo_bench (for
example .bench_build/e2e of the parent commit and of the change); with one
directory both sides run the same binary, which is the A/A check. Every
workload runs --runs untraced times per side, each for BENCHMARK.json's
run_seconds, interleaved pair by pair with the side that goes first
alternating; the two runs of a pair share a seed.
For each end-to-end metric the script prints each side's median and
quartiles, their spread (quartile distance over median) and the difference
of the medians. It exits non-zero when a run fails its output checks or,
for A/A, when two medians differ by more than the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def run_once(build, workload, seed, seconds):
    cmd = [str(Path(build) / "hanayo_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed} on {build} failed "
                 f"(exit {out.returncode}):\n{out.stdout[-2000:]}{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("builds", nargs="+", metavar="BUILD")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=2026)
    args = p.parse_args()
    if len(args.builds) > 2 or args.runs < 2:
        p.error("one or two build directories, and --runs >= 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    a = args.builds[0]
    b = args.builds[-1]
    same = a == b

    failed = False
    for w in workloads:
        runs = {"A": [], "B": []}
        for i in range(args.runs):
            seed = args.seed + i
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                runs[side].append(run_once(a if side == "A" else b, w, seed,
                                           seconds))
        print(f"== {w}: {args.runs} runs per side, {seconds:g} s each")
        print(f"   {'metric':<16} {'side':<4} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7}   {'B/A-1':>7} {'bound':>6}")
        for m in spec["end_to_end"]:
            name = m["name"]
            stats = {s: summary([r[name] for r in runs[s]]) for s in "AB"}
            pooled = summary([r[name] for s in "AB" for r in runs[s]])
            delta = stats["B"][0] / stats["A"][0] - 1.0 if stats["A"][0] else 0.0
            verdict = ""
            if abs(delta) > m["bound"]:
                verdict = "DIFFERS" if same else (
                    "worse" if (delta > 0) == (m["better"] == "lower") else "better")
                failed = failed or same
            for s in "AB":
                med, q1, q3, spread = stats[s]
                tail = (f"   {delta:+7.3f} {m['bound']:6.3f} {verdict}"
                        if s == "B" else "")
                print(f"   {name:<16} {s:<4} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f}{tail}")
            print(f"   {name:<16} {'all':<4} {pooled[0]:12.6g} "
                  f"{pooled[1]:12.6g} {pooled[2]:12.6g} {pooled[3]:7.3f}")
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
