"""Steadiness report: run each workload repeatedly and compare to the bounds.

    python3 perfbench/steady.py --runs 10                # one set of runs
    python3 perfbench/steady.py --runs 10 --sets 2       # two sets must agree
    python3 perfbench/steady.py --runs 3 --trace-overhead
    python3 perfbench/steady.py --runs 1                 # every metric once

Each run gets its own seed.  For every end-to-end metric of every
workload it prints the first set's median and quartiles
(``statistics.quantiles``, n=4), the spread (interquartile distance over
the median; with two sets, the wider set's) against the metric's bound
from ``BENCHMARK.json``, and with ``--sets 2`` how far the second set's
median moved against the first (positive: worse).  The runs are steady
when every run is correct with no failed operation, every spread is
within its bound, and the two sets' medians differ by no more than the
bound in either direction.  ``--trace-overhead`` also makes a traced run per seed and prints how far
its end-to-end figures sit from the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> list:
    """One benchmark run; returns its parsed output lines."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=900,
    ).stdout
    return [json.loads(line) for line in out.strip().splitlines()]


def worse_by(metric: dict, base: float, value: float) -> float:
    """Relative change of ``value`` against ``base`` in the worse direction."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def summarize(values) -> tuple:
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, q1, q3, (q3 - q1) / middle


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    steady = True
    for workload in args.workloads.split(","):
        sets, traced, shares = [], [], set()
        for index in range(args.sets):
            runs = []
            for offset in range(args.runs):
                seed = args.first_seed + index * args.runs + offset
                result = run(workload, seed, seconds, 0)[-1]
                steady &= result["correct"] and result["failed"] == 0
                shares.add((result["failed"], result["attempted"]))
                runs.append({k: v["value"] for k, v in result["metrics"].items()})
                if args.trace_overhead and index == 0:
                    traced.append(run(workload, seed, seconds, 1)[-2]["traced_end_to_end"])
            sets.append(runs)
        print(f"\n{workload}: {args.sets} set(s) x {args.runs} run(s), "
              f"failed/attempted per run: {sorted(shares)}")
        print(f"  {'metric':16} {'unit':5} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}" + ("  2nd-set worse by" if args.sets == 2 else ""))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r[name] for r in runs]) for runs in sets]
            middle, q1, q3, _ = stats[0]
            spread = max(s[3] for s in stats)
            line = (f"  {name:16} {metric['unit']:5} {middle:11.4f} {q1:11.4f} {q3:11.4f} "
                    f"{spread:7.3f} {bound:6.2f}")
            if spread > bound:
                steady = False
                line += "  SPREAD OVER BOUND"
            elif spread > bound / 3:
                line += "  (spread over a third of the bound)"
            if args.sets == 2:
                moved = worse_by(metric, stats[0][0], stats[1][0])
                steady &= abs(moved) <= bound
                line += f"  {moved:+.3f}" + ("  OVER BOUND" if abs(moved) > bound else "")
            print(line)
        if traced:
            print("  tracing overhead (traced median against untraced median, worse direction):")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                base = statistics.median(r[name] for r in sets[0])
                value = statistics.median(t[name] for t in traced)
                print(f"    {name:16} untraced {base:11.4f}  traced {value:11.4f}  "
                      f"{worse_by(metric, base, value):+.3f}")
    print("\nsteady" if steady else "\nNOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
