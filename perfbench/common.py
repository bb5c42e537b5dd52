"""Shared pieces of the end-to-end benchmark: program path, inputs, statistics.

Every process of the benchmark (launcher, server, load generator, fleet)
imports this module first.  It puts the repository's ``src`` directory on
``sys.path`` and builds the workload inputs from the ``--seed`` argument,
so the program under test only ever receives generated inputs.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (stores, span dumps); ignored by git.
WORK = ROOT / ".perfbench_work"


def ensure_program() -> None:
    """Make ``repro`` importable from the checkout's sources, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for the benchmark's child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def peak_rss_mb() -> float:
    """Peak resident memory of the calling process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# load shape
# ----------------------------------------------------------------------
#: Adapting applications driving each TCP server (the batcher's default
#: batch cap, so an endpoint that pipelined requests could fill a batch).
APPS = 64
#: TCP connections of the load generator: at most one per core.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Seconds after ready excluded from the measured window: TCP servers
#: (load generator connecting, first batches) and the fleet process.
TCP_WARMUP_S = 2.0
FLEET_WARMUP_S = 1.0
#: Requests sampled for the in-process reference comparison.
REFERENCE_SAMPLE = 48
#: Work fingerprints the grid server's store holds at start; three in
#: four grid requests repeat one of them, every ``NEW_EVERY``-th is new.
HOT_FINGERPRINTS = 32
NEW_EVERY = 4
#: Segments the grid store is seeded with (fewer than the compaction
#: policy's default trigger of 8).
SEED_SEGMENTS = 4
#: Fleet re-planning: window size, jobs replaced per operation, and the
#: cap cycle as fractions of the [minimum feasible, uncapped peak] span.
FLEET_WINDOW = 24
FLEET_TURNOVER = 4
CAP_CYCLE = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


# ----------------------------------------------------------------------
# predict-tcp inputs
# ----------------------------------------------------------------------
def train_bundle():
    """The served predictor: the ANN ensemble over the 15 placement ×
    P-state targets, trained on the NAS-like suite with the repository's
    fast training options (full event set only)."""
    from repro.core import train_predictor_bundle
    from repro.experiments.common import ExperimentContext
    from repro.machine import Machine
    from repro.workloads import nas_suite

    machine = Machine(noise_sigma=0.0)
    suite = nas_suite(machine=Machine(noise_sigma=0.0))
    return train_predictor_bundle(
        machine,
        list(suite),
        options=ExperimentContext(fast=True).training_options(),
        include_reduced=False,
        pstate_table=machine.pstate_table,
    )


def nas_phase_samples() -> List[Tuple[str, float, Dict[str, float]]]:
    """(phase, IPC, per-cycle event rates) of every NAS phase on config 4."""
    from repro.core.events import FULL_EVENT_SET
    from repro.machine import CONFIG_4, Machine
    from repro.workloads import nas_suite

    machine = Machine(noise_sigma=0.0)
    samples = []
    for workload in nas_suite(machine=Machine(noise_sigma=0.0)):
        for phase in workload.phases:
            result = machine.execute(phase.work, CONFIG_4.placement, apply_noise=False)
            rates = {
                event: result.event_counts.get(event, 0.0) / result.cycles
                for event in FULL_EVENT_SET.events
            }
            samples.append((f"{workload.name}/{phase.name}", result.ipc, rates))
    return samples


def phase_sample_stream(
    seed: int, app: int, base: Sequence[Tuple[str, float, Dict[str, float]]]
) -> Iterator[Dict[str, object]]:
    """Endless ``phase_sample`` payloads of one application.

    Each sample is a NAS phase with its IPC and every rate scaled by an
    independent factor in [0.95, 1.05]: far above the prediction cache's
    six-significant-digit quantization, so every request misses it.
    """
    rng = random.Random(f"predict:{seed}:{app}")
    client = f"app-{app}"
    for index in itertools.count():
        name, ipc, rates = base[rng.randrange(len(base))]
        yield {
            "kind": "phase_sample",
            "client_id": client,
            "phase": f"{name}#{index}",
            "ipc_sample": ipc * rng.uniform(0.95, 1.05),
            "rates": {e: v * rng.uniform(0.95, 1.05) for e, v in rates.items()},
        }


# ----------------------------------------------------------------------
# grid-tcp inputs
# ----------------------------------------------------------------------
def hot_works(seed: int):
    """The fingerprints the grid store is seeded with."""
    from repro.workloads.generator import SyntheticWorkloadGenerator

    generator = SyntheticWorkloadGenerator(seed=seed * 1000)
    return [generator.random_work() for _ in range(HOT_FINGERPRINTS)]


def grid_probe_stream(seed: int, app: int, hot) -> Iterator[Dict[str, object]]:
    """Endless ``grid_probe`` payloads of one application.

    Three probes in four repeat a randomly chosen hot fingerprint; every
    fourth (at an offset that differs between applications) carries a new
    random characterization from this application's own generator,
    distinct from every other fingerprint.  The fixed pattern keeps the
    repeat share exactly the same in every run.
    """
    from repro.workloads.generator import SyntheticWorkloadGenerator

    rng = random.Random(f"grid:{seed}:{app}")
    generator = SyntheticWorkloadGenerator(seed=seed * 1000 + 1 + app)
    client = f"app-{app}"
    for index in itertools.count():
        if (index + app) % NEW_EVERY:
            work = hot[rng.randrange(len(hot))]
            phase = f"hot#{index}"
        else:
            work = generator.random_work()
            phase = f"new#{index}"
        yield {
            "kind": "grid_probe",
            "client_id": client,
            "phase": phase,
            "work": dataclasses.asdict(work),
        }


def build_store(directory: Path, seed: int) -> None:
    """Rebuild the grid server's store: the hot fingerprints' cells,
    published as ``SEED_SEGMENTS`` segments through the public store API."""
    import shutil

    from repro.machine import Machine
    from repro.store import MemoStore

    shutil.rmtree(directory, ignore_errors=True)
    store = MemoStore(directory)
    works = hot_works(seed)
    machine = Machine(noise_sigma=0.0)
    configurations = machine.default_configurations()
    per_segment = -(-len(works) // SEED_SEGMENTS)
    published = set()
    for start in range(0, len(works), per_segment):
        machine.execute_grid(works[start : start + per_segment], configurations)
        delta = machine.export_execution_memo(since=published)
        store.append(delta)
        published.update(delta.keys())


# ----------------------------------------------------------------------
# fleet-replan inputs
# ----------------------------------------------------------------------
def job_stream(seed: int):
    """Endless generated fleet jobs, each a new fingerprint, weights 1–3."""
    from repro.cluster import FleetJob
    from repro.workloads.generator import SyntheticWorkloadGenerator

    generator = SyntheticWorkloadGenerator(seed=seed)
    rng = random.Random(f"fleet:{seed}")
    for index in itertools.count():
        yield FleetJob(
            name=f"job-{index}",
            work=generator.random_work(),
            weight=float(rng.randint(1, 3)),
        )


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def p90(values: Sequence[float]) -> float:
    """90th percentile, interpolated linearly between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def rate(completions: Sequence[float]) -> float:
    """Completions per second between the first and the last completion."""
    return (len(completions) - 1) / (max(completions) - min(completions))
