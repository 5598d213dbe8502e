#!/usr/bin/env python3
"""Per-function shares of a pcprof sample file.

    python3 scripts/pcprof/symbolize.py pcprof.txt [--top 25] [--require PREFIX]

Reads the memory map and program counters that libpcprof.so (pcprof.c)
wrote, maps every sample into the file it was executing, looks the address
up in that file's symbol table (`nm -C`), and prints each function's share
of all samples, largest first. Argument lists are dropped from the names,
so every instantiation of a template shows under its own template
arguments and all overloads of one name add up. A file without a symbol
table (a stripped system library) counts as one entry, "[libc.so.6]".

--require PREFIX exits with status 1 unless some sample resolves to a
function whose name starts with PREFIX (for example "hanayo::"): a check
that the profile really covers the program's own code. A file without
samples also exits 1.

Addresses inside a shared object or position-independent executable are
turned into file addresses as pc - map start + map offset, which is right
for the usual GNU ld layout where each segment's file offset equals its
virtual address; a fixed-address executable is looked up by pc directly.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys


def parse(path):
    maps, pcs = [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "s":
                pcs.append(int(rest, 16))
            elif kind == "m":
                fields = rest.split(maxsplit=5)
                if len(fields) == 6 and "x" in fields[1]:
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16),
                                 fields[5].strip()))
    maps.sort()
    return maps, pcs


def short_name(name):
    """Drops the argument list and a template's leading return type."""
    name = name.replace("(anonymous namespace)", "{anon}")
    depth, start = 0, 0
    for i, ch in enumerate(name):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0 and ch == " ":
            start = i + 1
        elif depth == 0 and ch == "(":
            return name[start:i]
    return name[start:]


def symbols(path):
    """(sorted start addresses, names, fixed-address?) of path's functions."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
        fixed = header[:4] == b"\x7fELF" and header[16] == 2  # ET_EXEC
        out = subprocess.run(["nm", "-C", "--defined-only", path],
                             capture_output=True, text=True).stdout
    except (OSError, IndexError):
        return [], [], False
    table = []
    for line in out.splitlines():
        m = re.match(r"([0-9a-fA-F]+) [tTwWiI] (.+)", line)
        if m:
            table.append((int(m.group(1), 16), short_name(m.group(2))))
    table.sort()
    return [a for a, _ in table], [n for _, n in table], fixed


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("samples")
    p.add_argument("--top", type=int, default=25)
    p.add_argument("--require", metavar="PREFIX")
    args = p.parse_args()

    maps, pcs = parse(args.samples)
    if not pcs:
        print(f"{args.samples}: no samples", file=sys.stderr)
        return 1
    starts = [m[0] for m in maps]
    tables = {}
    counts = collections.Counter()
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            counts["[unmapped]"] += 1
            continue
        lo, _, offset, path = maps[i]
        if path not in tables:
            tables[path] = (symbols(path) if os.path.isfile(path)
                            else ([], [], False))
        addrs, names, fixed = tables[path]
        addr = pc if fixed else pc - lo + offset
        j = bisect.bisect_right(addrs, addr) - 1
        counts[names[j] if j >= 0 else f"[{os.path.basename(path)}]"] += 1

    total = len(pcs)
    print(f"{total} samples")
    print(f"{'share':>7} {'samples':>8}  function")
    for name, n in counts.most_common(args.top):
        print(f"{100.0 * n / total:6.1f}% {n:8d}  {name}")
    if args.require:
        own = sum(n for name, n in counts.items()
                  if name.startswith(args.require))
        print(f"{100.0 * own / total:6.1f}% {own:8d}  (all {args.require}*)")
        if own == 0:
            print(f"no sample resolved into {args.require}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
