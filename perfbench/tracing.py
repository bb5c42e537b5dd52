"""Spans for the traced run, recorded around calls into the program's layers.

The traced run hands the program subclasses (or wrappers) of its own
public objects; each one times the calls the program makes into it and
appends a span to a :class:`Spans` recorder.  Nothing inside ``src/``
changes.  A span is ``(name, start, end, parent, attrs)``: ``parent`` is
the handler batch (or fleet schedule) the call ran under, and requests
are identified by their echoed ``(client_id, phase)``.  Spans stay in
memory and are written out once, when the run ends.

End-to-end figures always come from an untraced run.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import Node
from repro.core import ConfigurationSelector, PredictorBundle
from repro.machine import Machine
from repro.service import AdaptationServer, DecisionHandler
from repro.store import MemoStore

clock = time.monotonic


class Spans:
    """In-memory span recorder shared by the traced objects of one process."""

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float, Optional[int], Dict]] = []
        #: Batch or schedule currently running; nested spans name it as parent.
        self.current: Optional[int] = None
        self._next_id = 0

    def open_parent(self) -> None:
        self._next_id += 1
        self.current = self._next_id

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        self.records.append((name, start, end, self.current, attrs))

    def named(self, name: str, window: Optional[Sequence[float]] = None) -> List[Tuple]:
        """Spans called ``name``, optionally only those ending in ``window``."""
        return [
            r
            for r in self.records
            if r[0] == name and (window is None or window[0] <= r[2] <= window[1])
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, **attrs}
            for n, s, e, p, attrs in self.records
        ]
        path.write_text(json.dumps(rows))


# ----------------------------------------------------------------------
# traced objects handed to the program
# ----------------------------------------------------------------------
class TracedServer(AdaptationServer):
    """Times each request from ``submit`` to its answer."""

    def __init__(self, spans: Spans, handler: DecisionHandler) -> None:
        super().__init__(handler)
        self.spans = spans

    async def submit(self, request):
        start = clock()
        decision = await super().submit(request)
        self.spans.add(
            "server.submit", start, clock(), rid=[request.client_id, request.phase]
        )
        return decision


class TracedHandler(DecisionHandler):
    """Times ``handle_batch`` and records which requests each batch held."""

    def __init__(self, spans: Spans, inner: DecisionHandler) -> None:
        self.spans = spans
        self.inner = inner

    def handle_batch(self, requests):
        self.spans.open_parent()
        start = clock()
        try:
            return self.inner.handle_batch(requests)
        finally:
            self.spans.add(
                "handler.batch",
                start,
                clock(),
                rids=[[r.client_id, r.phase] for r in requests],
            )

    def cache_info(self):
        return self.inner.cache_info()


class TracedBundle(PredictorBundle):
    """Times ``predict_batch_from_rates`` and counts its cache lookups."""

    spans: Spans

    def predict_batch_from_rates(self, samples, event_set=None):
        hits, misses = self.cache.hits, self.cache.misses
        start = clock()
        rows = super().predict_batch_from_rates(samples, event_set=event_set)
        self.spans.add(
            "predictor.batch",
            start,
            clock(),
            hits=self.cache.hits - hits,
            misses=self.cache.misses - misses,
        )
        return rows


class TracedSelector(ConfigurationSelector):
    """Times each ``rank`` call."""

    def __init__(self, spans: Spans, **kwargs) -> None:
        super().__init__(**kwargs)
        self.spans = spans

    def rank(self, predictions, measured_sample=None):
        start = clock()
        ranking = super().rank(predictions, measured_sample)
        self.spans.add("selector.rank", start, clock())
        return ranking


class TracedMachine(Machine):
    """Times ``execute_grid`` and records its memo and solver deltas."""

    def __init__(self, spans: Spans, **kwargs) -> None:
        super().__init__(**kwargs)
        self.spans = spans

    def execute_grid(self, *args, **kwargs):
        before = self.execution_memo_info()
        start = clock()
        grid = super().execute_grid(*args, **kwargs)
        end = clock()
        after = self.execution_memo_info()
        self.spans.add(
            "machine.grid",
            start,
            end,
            hits=after.hits - before.hits,
            misses=after.misses - before.misses,
            iterations=after.solver_iterations - before.solver_iterations,
        )
        return grid


class TracedStore(MemoStore):
    """Times ``seed`` and ``append``."""

    def __init__(self, spans: Spans, directory, **kwargs) -> None:
        super().__init__(directory, **kwargs)
        self.spans = spans

    def seed(self, machine):
        start = clock()
        added = super().seed(machine)
        self.spans.add("store.seed", start, clock(), cells=added)
        return added

    def append(self, snapshot):
        start = clock()
        cells = super().append(snapshot)
        self.spans.add("store.append", start, clock(), cells=cells)
        return cells


class TracedNode(Node):
    """Times ``sweep``."""

    def __init__(self, spans: Spans, name: str, machine: Machine) -> None:
        super().__init__(name, machine)
        self.spans = spans

    def sweep(self, works):
        start = clock()
        result = super().sweep(works)
        self.spans.add("node.sweep", start, clock())
        return result


# ----------------------------------------------------------------------
# per-layer figures
# ----------------------------------------------------------------------
def _ms(span) -> float:
    return (span[2] - span[1]) * 1e3


def machine_layers(spans: Spans, window: Sequence[float]) -> Dict[str, float]:
    grids = spans.named("machine.grid", window)
    hits = sum(s[4]["hits"] for s in grids)
    cold = sum(s[4]["misses"] for s in grids)
    iterations = sum(s[4]["iterations"] for s in grids)
    busy = sum(s[2] - s[1] for s in grids)
    return {
        "machine.grid_ms": statistics.median([_ms(s) for s in grids]) if grids else 0.0,
        "machine.cold_cells": float(cold),
        "machine.cold_cell_us": busy / cold * 1e6 if cold else 0.0,
        "machine.memo_hit_ratio": hits / (hits + cold) if hits + cold else 0.0,
        "machine.solver_iterations_per_cold_cell": iterations / cold if cold else 0.0,
    }


def server_layers(spans: Spans, window: Sequence[float], snapshot: Dict) -> Dict[str, float]:
    """Per-layer figures of a TCP server over the measured window.

    ``snapshot`` is the server's ``metrics()`` at the end of the run; the
    store's end state comes from it.  ``server.outside_ms`` needs the
    client's latency and is completed by the launcher from
    ``server.submit_p50_ms``.
    """
    submits = spans.named("server.submit", window)
    batches = spans.named("handler.batch", window)
    batch_ms = {}
    for span in spans.named("handler.batch"):
        for rid in span[4]["rids"]:
            batch_ms[tuple(rid)] = _ms(span)
    waits = [
        _ms(s) - batch_ms[tuple(s[4]["rid"])]
        for s in submits
        if tuple(s[4]["rid"]) in batch_ms
    ]
    length = window[1] - window[0]
    busy = sum(min(s[2], window[1]) - max(s[1], window[0]) for s in batches)
    predicts = spans.named("predictor.batch", window)
    lookups = sum(s[4]["hits"] + s[4]["misses"] for s in predicts)
    ranks = spans.named("selector.rank", window)
    layers = {
        "server.submit_p50_ms": statistics.median([_ms(s) for s in submits]),
        "batcher.batch_size": sum(len(s[4]["rids"]) for s in batches) / len(batches),
        "batcher.wait_ms": statistics.median(waits),
        "handler.batch_ms": statistics.median([_ms(s) for s in batches]),
        "handler.busy_share": busy / length,
        "predictor.batch_ms": statistics.median([_ms(s) for s in predicts]) if predicts else 0.0,
        "predictor.cache_hit_ratio": (
            sum(s[4]["hits"] for s in predicts) / lookups if lookups else 0.0
        ),
        "selector.rank_us": statistics.median([_ms(s) * 1e3 for s in ranks]) if ranks else 0.0,
    }
    layers.update(machine_layers(spans, window))
    store = snapshot["caches"].get("memo_store")
    if store is not None:
        seeds = spans.named("store.seed")
        appends = spans.named("store.append", window)
        layers.update(
            {
                "store.seed_s": sum(s[2] - s[1] for s in seeds),
                "store.append_ms": (
                    statistics.median([_ms(s) for s in appends]) if appends else 0.0
                ),
                "store.appends": float(len(appends)),
                "store.compactions": float(store["compactions_triggered"]),
                "store.files_end": float(store["segment_files"]),
                "store.bytes_end": float(store["replay_bytes"]),
            }
        )
    return layers


def fleet_layers(spans: Spans, window: Sequence[float]) -> Dict[str, float]:
    """Per-layer figures of the fleet process over the measured window."""
    schedules = spans.named("cluster.schedule", window)
    sweep_ms: Dict[int, float] = {}
    for span in spans.named("node.sweep"):
        sweep_ms[span[3]] = sweep_ms.get(span[3], 0.0) + _ms(span)
    totals = [_ms(s) for s in schedules]
    sweeps = [sweep_ms.get(s[3], 0.0) for s in schedules]
    count = len(schedules)
    layers = {
        "cluster.schedule_ms": sum(totals) / count,
        "cluster.sweep_ms": sum(sweeps) / count,
        "cluster.plan_ms": (sum(totals) - sum(sweeps)) / count,
        "cluster.upgrades": sum(s[4]["upgrades"] for s in schedules) / count,
    }
    layers.update(machine_layers(spans, window))
    return layers
