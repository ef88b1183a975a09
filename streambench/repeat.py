#!/usr/bin/env python3
"""Repeatability check: one workload, two sets of runs of one build.

Builds the benchmark once, then runs the workload --runs times per set
(seeds --first-seed, --first-seed+1, ...) in each of two sets, each run
run_seconds long as BENCHMARK.json gives it. For every metric it prints
each set's median, first and third quartile and the spread
(Q3 - Q1) / median, and then says whether the sets agree:

  * each set's spread is within the metric's bound in BENCHMARK.json
    (setup_s exempt, as for the benchmark's own acceptance),
  * the second set's median differs from the first's by no more than
    the bound, as a share of the first, in either direction,
  * modeled-clock metrics are identical run for run between the sets
    (the simulator is deterministic, and both sets use the same seeds).

Usage, from the repository root:
  python3 streambench/repeat.py --workload atlas_tls_scale
  python3 streambench/repeat.py --workload netflix_tls_scale --runs 10 --first-seed 101

Exits 1 if the sets disagree or any run fails its correctness checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "streambench", "Cargo.toml")
SETS = 2
# Metrics read off the simulated clock: a function of the seed alone.
MODELED = {"goodput_gbps", "ttfb_p99_ms", "served_frac", "cycles_per_byte", "dram_per_byte"}


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "streambench", "target"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "streambench")


def run_once(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("need --runs >= 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    binary = build()

    sets = []
    for s in range(SETS):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(binary, args.workload, seed, seconds))
            print(f"set {s + 1} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        sets.append(runs)

    ok = True
    print(f"\n{args.workload}: {SETS} sets x {args.runs} runs, {seconds} s each")
    print(f"{'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for meta in bench["end_to_end"]:
        name, bound = meta["name"], meta["bound"]
        values = [[r[name] for r in runs] for runs in sets]
        first_med = summary(values[0])[0]
        for s, vals in enumerate(values):
            med, q1, q3, spread = summary(vals)
            verdict = ""
            if name != "setup_s" and spread > bound:
                verdict, ok = "SPREAD>BOUND", False
            if abs(med - first_med) / abs(first_med) > bound:
                verdict, ok = "MEDIANS APART", False
            print(f"{name:<18} {s + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6.2f} {verdict}")
        if name in MODELED and any(v != values[0] for v in values[1:]):
            print(f"{name}: a set differs run for run from set 1 (modeled metric)")
            ok = False
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
