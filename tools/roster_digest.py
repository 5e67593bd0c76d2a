#!/usr/bin/env python3
"""Roster digests: are two source trees bit-identical on every paper harness?

Usage:
  tools/roster_digest.py BASE_TREE CHANGE_TREE --work DIR [--jobs N]

Builds each tree (Release) under DIR, runs every table_* harness with
--digest at a small protocol (--runs 2 --sims 40 --init 20), and diffs the
per-(circuit, algorithm, run) trajectory digests that bench/exp_common
prints. Prints one line per key and exits 1 if any digest differs or is
missing on one side. Both trees must have the --digest flag.
"""
import argparse
import os
import subprocess
import sys

PROTOCOL = ["--runs", "2", "--sims", "40", "--init", "20", "--digest"]
HARNESSES = [
    ["table_ota"],
    ["table_tia"],
    ["table_ldo"],
    ["table_foldedcascode"],
    ["table_baselines", "--circuit", "ota"],
    ["table_baselines", "--circuit", "tia"],
]


def build(tree, build_dir, jobs):
    subprocess.run(["cmake", "-B", build_dir, "-S", tree, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=subprocess.DEVNULL)
    targets = sorted({h[0] for h in HARNESSES})
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs), "--target", *targets],
                   check=True, stdout=subprocess.DEVNULL)


def digests(build_dir, run_dir):
    os.makedirs(run_dir, exist_ok=True)
    out = {}
    for harness in HARNESSES:
        exe = os.path.join(build_dir, "bench", harness[0])
        proc = subprocess.run([exe, *harness[1:], *PROTOCOL], cwd=run_dir, check=True,
                              capture_output=True, text=True)
        for line in proc.stdout.splitlines():
            fields = line.split("\t")
            if fields[0] == "digest" and len(fields) == 5:
                key = (harness[0], fields[1], fields[2], fields[3])
                out[key] = fields[4]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--work", required=True, help="directory for the two builds and runs")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()

    sides = []
    for name, tree in (("base", args.base), ("change", args.change)):
        build_dir = os.path.join(args.work, name + "-build")
        build(os.path.abspath(tree), build_dir, args.jobs)
        sides.append(digests(build_dir, os.path.join(args.work, name + "-run")))

    base, change = sides
    differing = 0
    for key in sorted(base.keys() | change.keys()):
        a, b = base.get(key, "-"), change.get(key, "-")
        same = a == b and a != "-"
        differing += not same
        print(f"{'same' if same else 'DIFF'}  {' '.join(key)}  {a}  {b}")
    print(f"{len(base.keys() | change.keys()) - differing} identical, {differing} differing")
    if not base:
        print("no digest lines: does the base tree support --digest?", file=sys.stderr)
        return 1
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
