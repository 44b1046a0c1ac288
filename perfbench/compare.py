#!/usr/bin/env python3
"""A/A comparison of the benchmark against itself.

Runs two sets of K alternating runs (A, B, A, B, ...) of the command in
BENCHMARK.json on the same code, run i of each set with seed i. For every
metric of every workload it prints each set's median and quartiles
(statistics.quantiles, n=4) and their spread (interquartile distance over
the median), and flags:

  * spread  - a set's spread wider than the metric's bound (setup_s exempt);
  * drift   - set B's median worse than set A's by more than the bound.

Per-layer metrics (--trace 1) have no bound and are reported only. A run
that fails, prints no result, or reports correct=false is flagged too. The
exit status is 1 when anything is flagged.

    python3 perfbench/compare.py --runs 10
    python3 perfbench/compare.py --runs 5 --workloads serve-day --trace 1
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall, proc.stderr.strip().splitlines()[-3:]
    try:
        return json.loads(lines[-1]), wall, []
    except json.JSONDecodeError as err:
        return None, wall, [f"last line is not JSON: {err}"]


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (K >= 5)")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("an A/A comparison needs at least 5 runs per set")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m for m in declared}
    flagged = 0
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        walls = []
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                result, wall, err = run_once(spec["command"], workload, i + 1, args.seconds, args.trace)
                walls.append(wall)
                if result is None or not result.get("correct"):
                    flagged += 1
                    print(f"FLAG {workload} set {name} seed {i + 1}: "
                          f"{'no result' if result is None else 'correct=false'} {err}")
                    continue
                missing = set(bounds) ^ set(result["metrics"])
                if missing:
                    flagged += 1
                    print(f"FLAG {workload} set {name} seed {i + 1}: metric names differ: {sorted(missing)}")
                sets[name].append(result["metrics"])
        print(f"\n## {workload} (K={args.runs} per set, trace={args.trace}, "
              f"wall per run {statistics.median(walls):.1f} s median, {max(walls):.1f} s max)")
        print(f"{'metric':32} {'unit':8} {'A median [q1, q3] spread':>40} "
              f"{'B median [q1, q3] spread':>40} {'B vs A':>8}  flags")
        for name, metric in bounds.items():
            a = [m[name]["value"] for m in sets["A"] if name in m]
            b = [m[name]["value"] for m in sets["B"] if name in m]
            if len(a) < 2 or len(b) < 2:
                continue
            sa, sb = summary(a), summary(b)
            drift = (sb[0] - sa[0]) / sa[0] if sa[0] else 0.0
            worse = drift if metric.get("better") == "lower" else -drift
            flags = []
            bound = metric.get("bound")
            if bound is not None:
                if name != "setup_s" and max(sa[3], sb[3]) > bound:
                    flags.append("spread")
                if worse > bound:
                    flags.append("drift")
            flagged += bool(flags)
            cell = lambda s: f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}] {s[3]:6.1%}"
            print(f"{name:32} {metric['unit']:8} {cell(sa):>40} {cell(sb):>40} {drift:+8.1%}  "
                  f"{' '.join(flags) or '-'}{'' if bound is None else f' (bound {bound:.0%})'}")
    print(f"\n{flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
