#!/usr/bin/env python3
"""Smoke test of hanayo_bench (registered with ctest by CMakeLists.txt).

    python3 smoke.py <path/to/hanayo_bench> <path/to/BENCHMARK.json>

Runs every workload for about a second, untraced and traced, and fails
unless each run passes its output checks and prints exactly the metrics
BENCHMARK.json names for that run type, each with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path


def main():
    binary, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            cmd = [binary, "--workload", w, "--seed", "7", "--smoke"]
            if traced:
                cmd += ["--trace", f"smoke-{w}.trace.json"]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=170)
            lines = out.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{w}/{key}: no JSON result line "
                                f"(exit {out.returncode}) {out.stderr[-500:]}")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{w}/{key}: result keys {sorted(result)}")
            if out.returncode != 0 or result.get("correct") is not True:
                problems.append(f"{w}/{key}: output checks failed "
                                f"(exit {out.returncode})")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got)
                               if want[k] != got[k])
                problems.append(f"{w}/{key}: missing {missing}, extra "
                                f"{extra}, wrong unit {units}")
            print(f"{w:<13} {key:<10} correct={result.get('correct')} "
                  f"metrics={len(got)}")
    for msg in problems:
        print("FAIL", msg)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
