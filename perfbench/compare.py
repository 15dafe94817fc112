#!/usr/bin/env python3
"""Pairwise comparison of two builds on the perfbench benchmark.

    python3 perfbench/compare.py <parent-checkout> <change-checkout> [--pairs 10]

Each checkout is a source tree holding BENCHMARK.json and perfbench/ (it
builds itself into its own .bench_build/ on first use). For every workload in
the change's BENCHMARK.json, pair i runs `perfbench/run.py --trace 0` for
BENCHMARK.json's run_seconds once on each side with the same seed
(FIRST_SEED + i), alternating which side runs first. For each workload x
end-to-end metric it prints one row: each side's median and quartiles, the
share of pairs the change wins (ties count for neither), and a verdict:

    better      the change wins >= 90 % of the pairs and the medians differ by
                more than the parent's own spread (its interquartile range)
    worse       the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json
    unresolved  the parent's spread exceeds the bound and the change does not
                beat every parent run outright
    same        none of the above

Failed runs (correct = false) are reported and excluded.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 101


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print(f"  {checkout.name}: {workload} seed {seed} failed: {proc.stderr.strip()[-300:]}",
              file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_text(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    if sign * (cm - pm) > (p3 - p1) and share >= 0.9:
        return "better", share
    if -sign * (cm - pm) > bound * abs(pm):
        return "worse", share
    outright = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not outright:
        return "unresolved", share
    return "same", share


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("--pairs must be at least 10: fewer pairs cannot show a 90 % win share")

    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    print(f"{'workload':14s} {'metric':14s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'wins':>5s}  verdict")
    for workload in workloads:
        samples = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            sides = [("parent", parent), ("change", change)]
            if i % 2 == 1:
                sides.reverse()
            got = {side: run_once(path, workload, seed, seconds) for side, path in sides}
            if got["parent"] is not None and got["change"] is not None:
                for side in samples:
                    samples[side].append(got[side])
        if not samples["parent"]:
            print(f"{workload:14s} no successful pairs")
            continue
        for m in metrics:
            name = m["name"]
            pv = [s[name] for s in samples["parent"]]
            cv = [s[name] for s in samples["change"]]
            v, share = verdict(pv, cv, m["better"], m["bound"])
            print(f"{workload:14s} {name:14s} {spread_text(pv):>36s} {spread_text(cv):>36s} "
                  f"{share:5.0%}  {v} ({len(pv)} pairs)")


if __name__ == "__main__":
    main()
