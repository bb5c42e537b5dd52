"""End-to-end benchmark of the adaptation service and the fleet scheduler.

Run from the repository root::

    python3 perfbench/run.py --workload predict-tcp --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``predict-tcp`` — ACTOR phase samples over TCP to a prediction server;
* ``grid-tcp`` — work-fingerprint probes over TCP to a memo- and
  store-backed grid server;
* ``fleet-replan`` — rolling re-planning of a power-capped fleet.

Each program process is launched ``SETUP_LAUNCHES[workload]`` times;
``setup_s`` is the median time from launch to ready, and the last launch
serves the measured run.  With ``--trace 0`` the last output line carries the
end-to-end metrics; with ``--trace 1`` the program is handed traced
objects and the line carries the per-layer metrics instead (the traced
run's own end-to-end figures are printed on the line before, so the
tracing overhead can be read against an untraced run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    HOT_FINGERPRINTS,
    ROOT,
    WORK,
    build_store,
    child_env,
    ensure_program,
)

HERE = Path(__file__).resolve().parent
#: Launches per run, whose median launch-to-ready time is ``setup_s``.
#: The half-second set-ups (interpreter start, imports, store seed or
#: first plan) vary more per launch than the seconds of bundle training.
SETUP_LAUNCHES = {"predict-tcp": 3, "grid-tcp": 7, "fleet-replan": 7}
#: Bound on any one wait for a child process.
CHILD_TIMEOUT = 150.0


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def launch(script: str, arguments) -> tuple:
    """Start a program process; returns (process, seconds until READY, line)."""
    start = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / script), *map(str, arguments)],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline()
    finally:
        watchdog.cancel()
    setup = time.monotonic() - start
    if not line.startswith("READY"):
        stop(process)
        raise RuntimeError(f"{script} did not become ready (exit {process.returncode})")
    return process, setup, line


def finish(process, stdin: str = "") -> dict:
    """Hand ``stdin`` to a running program process and read its result."""
    out, _ = process.communicate(stdin, timeout=CHILD_TIMEOUT)
    if process.returncode != 0:
        raise RuntimeError(f"program process exited with {process.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def stop(process) -> None:
    if process.poll() is None:
        process.kill()
    process.wait()


def store_holds(directory: Path, works) -> bool:
    """A fresh machine seeded from the store serves every new fingerprint
    with zero misses."""
    from repro.machine import Machine
    from repro.machine.work import WorkRequest
    from repro.store import MemoStore

    machine = Machine(noise_sigma=0.0, memo_size=1 << 20)
    MemoStore(directory).seed(machine)
    requests = [WorkRequest(**work) for work in works]
    if requests:
        machine.execute_grid(requests, machine.default_configurations())
    info = machine.execution_memo_info()
    return info.misses == 0 and info.size >= 15 * (len(requests) + HOT_FINGERPRINTS)


def launch_served(args, script: str, arguments, before_launch=lambda: None) -> tuple:
    """Launch a program process ``SETUP_LAUNCHES[workload]`` times (once when
    traced).

    The last launch stays up and serves the measured run.  Returns its
    process, its ready line and ``setup_s``, the median launch-to-ready time.
    """
    arguments = arguments + [
        "--trace", args.trace,
        "--spans-out", WORK / f"spans-{args.workload}-seed{args.seed}.json",
    ]
    launches = 1 if args.trace else SETUP_LAUNCHES[args.workload]
    setups = []
    for index in range(launches):
        before_launch()
        served = index == launches - 1
        process, setup, line = launch(script, arguments + ([] if served else ["--setup-only"]))
        setups.append(setup)
        if not served:
            finish(process)
    return process, line, statistics.median(setups)


def summary(measured: dict, setup_s: float, peak_rss_mb: float, correct: bool) -> dict:
    return {
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "end_to_end": {
            "setup_s": setup_s,
            "ops_per_s": measured["ops_per_s"],
            "latency_p50_ms": measured["latency_p50_ms"],
            "latency_p90_ms": measured["latency_p90_ms"],
            "peak_rss_mb": peak_rss_mb,
        },
    }


def run_tcp(args) -> dict:
    store = WORK / f"store-{os.getpid()}"
    grid = args.workload == "grid-tcp"
    process = None
    try:
        process, line, setup_s = launch_served(
            args,
            "server.py",
            ["--workload", args.workload, "--store", store],
            lambda: build_store(store, args.seed) if grid else None,
        )
        generator = subprocess.run(
            [sys.executable, str(HERE / "loadgen.py"), "--workload", args.workload,
             "--port", line.split()[1], "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT,
            check=True,
        )
        load = json.loads(generator.stdout.strip().splitlines()[-1])
        server = finish(process, json.dumps({"window": load["window"]}) + "\n")
        correct = not grid or store_holds(store, load["new_works"])
    finally:
        if process is not None:
            stop(process)
        shutil.rmtree(store, ignore_errors=True)
    result = summary(load, setup_s, server["peak_rss_mb"], correct)
    if args.trace:
        layers = server["layers"]
        layers["server.outside_ms"] = load["latency_p50_ms"] - layers["server.submit_p50_ms"]
        result["layers"] = layers
    return result


def run_fleet(args) -> dict:
    process = None
    try:
        process, _, setup_s = launch_served(
            args, "fleet.py", ["--seed", args.seed, "--seconds", args.seconds]
        )
        fleet = finish(process)
    finally:
        if process is not None:
            stop(process)
    result = summary(fleet, setup_s, fleet["peak_rss_mb"], fleet["correct"])
    if args.trace:
        result["layers"] = fleet["layers"]
    return result


def main() -> None:
    ensure_program()
    benchmark = spec()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    WORK.mkdir(exist_ok=True)
    run = run_fleet if args.workload == "fleet-replan" else run_tcp
    result = run(args)
    if args.trace:
        print(json.dumps({"traced_end_to_end": result["end_to_end"]}))
        # Layers a workload does not pass through did no work: they read 0.
        figures = {m["name"]: (m["unit"], result["layers"].get(m["name"], 0.0))
                   for m in benchmark["per_layer"]}
    else:
        figures = {m["name"]: (m["unit"], result["end_to_end"][m["name"]])
                   for m in benchmark["end_to_end"]}
    metrics = {name: {"value": value, "unit": unit} for name, (unit, value) in figures.items()}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
