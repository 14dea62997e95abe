#!/usr/bin/env python3
"""Run-to-run stability of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per (workload, seed), from the
root of the repository, and prints for each metric the median and the
quartile spread (Q3 - Q1) / median over the seeds, against the metric's
bound. Every run must report correct results with no failed operation.

    python3 perfbench/stability.py                      # every workload, 10 seeds
    python3 perfbench/stability.py --workloads perf-cost --seeds 1 2 3 4 5
    python3 perfbench/stability.py --save first.json    # keep the figures
    python3 perfbench/stability.py --against first.json # compare medians

The default seeds are 1..9 plus HELD_OUT_SEED, a seed never used while
the workloads were sized and tuned. Exit status 1 when a spread (except
setup_s, whose spread is not bounded) exceeds its bound, a median is
worse than the --against median by more than the bound, or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

HELD_OUT_SEED = 4242
DEFAULT_SEEDS = list(range(1, 10)) + [HELD_OUT_SEED]


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", nargs="*", type=int, default=DEFAULT_SEEDS)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    figures = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in args.seeds:
            metrics, wall = run_once(bench, workload, seed, 0)
            walls.append(wall)
            for name in bounds:
                values[name].append(metrics[name])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={metrics[k]:.6g}" for k in bounds)
                  + f" ({wall:.1f} s)", flush=True)
        figures[workload] = {}
        for name, m in bounds.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            figures[workload][name] = {"median": med, "spread": spread, "values": v}
            verdict = "ok"
            if name != "setup_s" and spread > m["bound"]:
                verdict, ok = "SPREAD TOO WIDE", False
            elif name != "setup_s" and spread > m["bound"] / 3:
                verdict = "above a third of the bound"
            line = (f"  {workload:<15} {name:<18} median {med:<14.6g} "
                    f"spread {spread:7.2%} bound {m['bound']:.0%}  {verdict}")
            if workload in earlier and name in earlier[workload]:
                before = earlier[workload][name]["median"]
                change = (med - before) / before
                worse = -change if m["better"] == "higher" else change
                line += f"  vs earlier {change:+.2%}"
                if worse > m["bound"]:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)
        print(f"  {workload:<15} wall per run: max {max(walls):.1f} s, "
              f"median {statistics.median(walls):.1f} s", flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(figures, f, indent=2)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
