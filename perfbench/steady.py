#!/usr/bin/env python3
"""Steadiness of the benchmark on one commit.

Runs the command in BENCHMARK.json on every workload, in two sets of
repeated runs, each run with its own seed, and reports per workload and
end-to-end metric each set's median and quartiles, the spread (the distance
between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them), and how far the second set's
median moved from the first's, in the metric's worse direction. The bounds
in BENCHMARK.json come from this output. Run it from the repository root:

    python3 perfbench/steady.py                      # 2 sets x 10 runs
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads durable-writes
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    took = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: outputs were not correct")
    return result, took


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                result, took = run_once(bench["command"], w, seed, seconds, 0)
                results[s][w].append(result)
                sys.stderr.write(f"set {s + 1} {w} seed {seed}: {took:.0f} s, "
                                 f"{result['attempted']} attempted, {result['failed']} failed\n")
            seed += 1

    worst_ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<16} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6} {'moved':>7}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[s][w]]
                q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                moved = ""
                if s > 0:
                    change = (med - medians[0]) / medians[0]
                    worse = change if m["better"] == "lower" else -change
                    moved = f"{worse:+.3f}"
                    worst_ok &= worse <= bound
                worst_ok &= spread <= bound
                flag = "" if spread <= bound / 3 else "  <- above a third of the bound"
                print(f"  {name:<16} {s + 1:>3} {med:>14.3f} {q1:>14.3f} {q3:>14.3f} {spread:>7.3f} {bound:>6.2f} {moved:>7}{flag}")
        shares = {s: sum(r["failed"] for r in results[s][w]) / sum(r["attempted"] for r in results[s][w]) for s in range(args.sets)}
        print(f"  failed share per set: {shares}")
        worst_ok &= len(set(shares.values())) == 1
    print("\nwithin bounds" if worst_ok else "\nNOT within bounds")


if __name__ == "__main__":
    main()
