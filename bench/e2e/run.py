#!/usr/bin/env python3
"""Build hanayo_bench from source, then run one workload of the benchmark.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build (Release, -march=native; see CMakeLists.txt) goes to
.bench_build/e2e under the repository root; the first run configures and
compiles, later runs only check that the binary is current (under a lock,
so concurrent first runs build once). --trace 1
writes the Chrome trace to .bench_build/e2e/traces/ and reports the
per-layer metrics instead of the end-to-end ones. Standard output ends with
the benchmark's JSON result line; build output goes to standard error.
"""

import argparse
import fcntl
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "hanayo_bench"
RUN_TIMEOUT_S = 175  # one run must end within 180 s once built


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not BINARY.exists():  # first run, or an earlier build failed
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "hanayo_bench", "-j", "4"],
                       check=True, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
