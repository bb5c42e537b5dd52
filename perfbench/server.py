"""The adaptation server process of the TCP workloads.

Built only from the public ``repro.service`` API with the library's
default batching settings (64 per batch, 2 ms window, queue of 1024):

* ``predict-tcp``: ``AdaptationServer(PredictionHandler(bundle))`` over a
  bundle trained at start;
* ``grid-tcp``: ``AdaptationServer(GridHandler(...))`` over the machine's
  15 placement × P-state configurations under the ED² objective, backed
  by a ``MemoStore`` with a background ``CompactionPolicy``.

Protocol with the launcher: the process prints ``READY <port>`` once it
serves, then waits for one line on stdin carrying the measured window as
``{"window": [t0, t1]}`` (monotonic clock).  It then stops the server and
prints one JSON line: peak memory and, when traced, the per-layer
figures over that window, completed from the server's ``metrics()``
snapshot.

Run: ``PYTHONPATH=src python3 perfbench/server.py --workload predict-tcp
--store .perfbench_work/store --trace 0 --spans-out .perfbench_work/spans.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

from common import ensure_program, peak_rss_mb, train_bundle

ensure_program()

from repro.core import PredictionCache  # noqa: E402
from repro.machine import Machine  # noqa: E402
from repro.service import AdaptationServer, GridHandler, PredictionHandler  # noqa: E402
from repro.store import CompactionPolicy, MemoStore  # noqa: E402


def build(workload: str, store_dir: Path, spans):
    """The handler (traced when ``spans`` is given), its store, and the
    set-up figures of the traced run."""
    if workload == "predict-tcp":
        start = time.monotonic()
        bundle = train_bundle()
        layers = {"training.train_s": time.monotonic() - start}
        if spans is None:
            return PredictionHandler(bundle), None, layers
        from tracing import TracedBundle, TracedHandler, TracedSelector

        traced = TracedBundle(full=bundle.full, reduced=bundle.reduced, cache=PredictionCache())
        traced.spans = spans
        handler = PredictionHandler(traced, selector=TracedSelector(spans))
        return TracedHandler(spans, handler), None, layers
    if spans is None:
        machine = Machine(noise_sigma=0.0)
        store = MemoStore(store_dir, policy=CompactionPolicy())
    else:
        from tracing import TracedMachine, TracedStore

        machine = TracedMachine(spans, noise_sigma=0.0)
        store = TracedStore(spans, store_dir, policy=CompactionPolicy())
    handler = GridHandler(machine, machine.default_configurations(), "ed2", store)
    if spans is not None:
        from tracing import TracedHandler

        handler = TracedHandler(spans, handler)
    return handler, store, {}


async def serve(server, setup_only: bool):
    _, port = await server.serve_tcp()
    print(f"READY {port}", flush=True)
    try:
        if setup_only:
            return None
        line = await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
        return json.loads(line)["window"] if line.strip() else None
    finally:
        await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("predict-tcp", "grid-tcp"), required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--spans-out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    spans = None
    if args.trace:
        from tracing import Spans, TracedServer

        spans = Spans()
    handler, store, layers = build(args.workload, args.store, spans)
    server = AdaptationServer(handler) if spans is None else TracedServer(spans, handler)
    window = asyncio.run(serve(server, args.setup_only))
    if store is not None:
        store.wait_for_compaction(timeout=60.0)
    if window is None:
        return
    result = {"peak_rss_mb": peak_rss_mb()}
    if spans is not None:
        from tracing import server_layers

        layers.update(server_layers(spans, window, server.metrics()))
        result["layers"] = layers
        spans.write(args.spans_out)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
