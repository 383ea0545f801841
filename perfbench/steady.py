#!/usr/bin/env python3
"""Steadiness of the benchmark: repeat each workload with one seed per run and
print the median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--seconds S]

Run it from the root of the repository.  The spread of a metric is the
distance between its first and third quartiles (statistics.quantiles, n=4)
as a share of its median; BENCHMARK.json's bounds are set from it.  The
failed share of every run must be the same.  Exits 1 if a run fails or
reports incorrect output, or if a spread other than setup_s's exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    # each run's stderr (failure log, latency percentiles) is kept for reading
    os.makedirs(".bench_run", exist_ok=True)
    log = os.path.join(".bench_run", f"steady-{workload}-{seed}.log")
    with open(log, "w") as err:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=err, text=True,
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        results = [run_once(w, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok = ok and correct and len(shares) == 1
        print(f"{w}: {args.runs} runs of {args.seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"attempted {min(r['attempted'] for r in results)}.."
              f"{max(r['attempted'] for r in results)}, failed share "
              f"{' '.join(f'{s:.6f}' for s in sorted(shares))}, "
              f"correct {correct}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s" and spread > bound:
                ok = False
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:<14} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {bound:6.2f}  {unit}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
