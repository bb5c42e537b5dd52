"""The fleet process of the ``fleet-replan`` workload.

One process holds ``build_reference_fleet()`` (two quad-core Xeons and one
dual-socket box, no store) and a rolling window of ``FLEET_WINDOW``
generated jobs.  One operation retires the ``FLEET_TURNOVER`` oldest jobs,
admits as many new ones, plans uncapped, then plans under the next level
of the cap cycle, which runs from the window's minimum feasible draw to
its uncapped peak.  Set-up is the fleet build plus the first plan; the
process prints ``READY`` then, and exits there with ``--setup-only``.

Every operation is checked as it completes (outside its timed span), and
after the measured window the final window is planned at every level of
the cap cycle.  Prints one JSON line.

Run: ``PYTHONPATH=src python3 perfbench/fleet.py --seed 1 --seconds 10 --trace 0
--spans-out .perfbench_work/spans.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import time
from pathlib import Path

from common import (
    CAP_CYCLE,
    FLEET_WARMUP_S,
    FLEET_TURNOVER,
    FLEET_WINDOW,
    ensure_program,
    job_stream,
    peak_rss_mb,
    p90,
    rate,
)

ensure_program()

from repro.cluster import Fleet, FleetScheduler  # noqa: E402
from repro.experiments import build_reference_fleet  # noqa: E402

clock = time.monotonic


def traced_fleet(spans) -> Fleet:
    """``build_reference_fleet()`` rebuilt from traced nodes and machines."""
    from tracing import TracedMachine, TracedNode

    return Fleet(
        [
            TracedNode(
                spans,
                node.name,
                TracedMachine(spans, topology=node.machine.topology, noise_sigma=0.0),
            )
            for node in build_reference_fleet()
        ]
    )


def cap_for(plan, fraction: float) -> float:
    return plan.min_feasible_watts + fraction * (
        plan.total_power_watts - plan.min_feasible_watts
    )


def check_operation(window, uncapped, cap, capped) -> bool:
    """The properties every re-plan must have."""
    names = sorted(job.name for job in window)
    for plan in (uncapped, capped):
        placed = sorted(d.job.name for d in plan.decisions)
        allocated = sorted(n for a in plan.allocations.values() for n in a.job_names)
        drawn = math.fsum(a.power_watts for a in plan.allocations.values())
        if placed != names or allocated != names:
            return False
        if not math.isclose(drawn, plan.total_power_watts, rel_tol=1e-12):
            return False
    return capped.total_power_watts <= cap and capped.throughput <= uncapped.throughput


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--spans-out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    spans = None
    if args.trace:
        from tracing import Spans

        spans = Spans()
    fleet = build_reference_fleet() if spans is None else traced_fleet(spans)
    scheduler = FleetScheduler(fleet)

    def plan(jobs, cap=None):
        if spans is None:
            return scheduler.schedule(jobs, cap)
        spans.open_parent()
        start = clock()
        result = scheduler.schedule(jobs, cap)
        spans.add("cluster.schedule", start, clock(), upgrades=len(result.upgrades))
        return result

    jobs = job_stream(args.seed)
    window = [next(jobs) for _ in range(FLEET_WINDOW)]
    plan(window)
    print("READY", flush=True)
    if args.setup_only:
        return

    begin = clock()
    measured = (begin + FLEET_WARMUP_S, begin + FLEET_WARMUP_S + args.seconds)
    attempted = failed = 0
    timed = []
    for level in itertools.cycle(CAP_CYCLE):
        start = clock()
        if start >= measured[1]:
            break
        window = window[FLEET_TURNOVER:] + [next(jobs) for _ in range(FLEET_TURNOVER)]
        uncapped = plan(window)
        cap = cap_for(uncapped, level)
        capped = plan(window, cap)
        end = clock()
        attempted += 1
        failed += not check_operation(window, uncapped, cap, capped)
        if measured[0] <= end <= measured[1]:
            timed.append((start, end))

    final = plan(window)
    throughputs = [plan(window, cap_for(final, f)).throughput for f in sorted(CAP_CYCLE)]
    correct = all(a <= b for a, b in zip(throughputs, throughputs[1:]))
    latencies = [(end - start) * 1e3 for start, end in timed]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": rate([end for _, end in timed]),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    if spans is not None:
        from tracing import fleet_layers

        result["layers"] = fleet_layers(spans, measured)
        spans.write(args.spans_out)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
