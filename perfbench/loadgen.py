"""Closed-loop TCP load generator and output checks of the TCP workloads.

``APPS`` applications are multiplexed over at most ``CONNECTIONS`` (one
per core) JSON-lines connections.  Each application sends its next
request only after its previous decision arrived, as ACTOR does.
Answers are matched to requests by the echoed ``(client_id, phase)``,
not by arrival order; an error answer, which echoes neither, is charged
to the connection's oldest outstanding request.

The first ``TCP_WARMUP_S`` seconds are excluded; the measured window is the
next ``--seconds`` seconds, and a request belongs to it when its answer
arrives inside it.  After the window every answered request is checked
(see ``check_predict`` / ``check_grid``); a wrong answer counts as a
failed operation.  Prints one JSON line.

Run: ``PYTHONPATH=src python3 perfbench/loadgen.py --workload predict-tcp
--port PORT --seed 1``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import statistics
import time

from common import (
    APPS,
    CONNECTIONS,
    REFERENCE_SAMPLE,
    TCP_WARMUP_S,
    ensure_program,
    grid_probe_stream,
    hot_works,
    nas_phase_samples,
    p90,
    phase_sample_stream,
    rate,
    train_bundle,
)

ensure_program()

from repro.machine import Machine  # noqa: E402
from repro.machine.work import WorkRequest  # noqa: E402
from repro.service import GridProbeRequest, PhaseSampleRequest, PredictionHandler  # noqa: E402

clock = time.monotonic


async def drive(port: int, streams, seconds: float):
    """Run the closed loop; returns (records, window).

    A record is ``(t_send, t_answer, request_payload, answer)``; ``answer``
    is ``None`` when the connection closed before answering.
    """
    loop = asyncio.get_running_loop()
    connections = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 20)
        for _ in range(CONNECTIONS)
    ]
    pending = [dict() for _ in connections]
    records = []

    async def read(index: int) -> None:
        reader = connections[index][0]
        outstanding = pending[index]
        while True:
            line = await reader.readline()
            if not line:
                break
            now = clock()
            answer = json.loads(line)
            decision = answer.get("decision") or {}
            key = (decision.get("client_id"), decision.get("phase"))
            future = outstanding.pop(key, None)
            if future is None and not answer.get("ok") and outstanding:
                future = outstanding.pop(next(iter(outstanding)))
            if future is not None:
                future.set_result((now, answer))
        for future in outstanding.values():
            future.set_result((clock(), None))
        outstanding.clear()

    begin = clock()
    window = (begin + TCP_WARMUP_S, begin + TCP_WARMUP_S + seconds)

    async def application(app: int) -> None:
        index = app % len(connections)
        writer = connections[index][1]
        for payload in streams[app]:
            if clock() >= window[1] or writer.is_closing():
                return
            future = loop.create_future()
            pending[index][(payload["client_id"], payload["phase"])] = future
            sent = clock()
            writer.write(json.dumps(payload).encode("utf-8") + b"\n")
            answered, answer = await future
            records.append((sent, answered, payload, answer))
            if answer is None:
                return

    readers = [asyncio.create_task(read(i)) for i in range(len(connections))]
    try:
        await asyncio.gather(*(application(app) for app in range(len(streams))))
    finally:
        for _, writer in connections:
            writer.close()
        for _, writer in connections:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        await asyncio.gather(*readers, return_exceptions=True)
    return records, window


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _echo_ok(payload, decision) -> bool:
    return (decision["client_id"], decision["phase"]) == (
        payload["client_id"],
        payload["phase"],
    )


def check_predict(answered, seed: int) -> int:
    """Failed operations among answered ``phase_sample`` requests.

    Every decision's configuration must be one of the 15 targets, and its
    ranking must be ordered by its own predicted values.  A seeded sample
    must equal an in-process ``PredictionHandler.handle_batch`` of that one
    sample on a bundle trained the same way: same configuration and
    ranking, predicted IPCs within 1e-12 relative (the ANN forward pass
    sums in another order for another batch size).
    """
    targets = {c.name for c in Machine(noise_sigma=0.0).default_configurations()}
    bad = set()
    for index, (payload, decision) in enumerate(answered):
        predicted, ranking = decision["predicted"], decision["ranking"]
        ordered = all(
            predicted[a] >= predicted[b] for a, b in zip(ranking, ranking[1:])
        )
        if not (
            _echo_ok(payload, decision)
            and decision["configuration"] in targets
            and set(ranking) == set(predicted) <= targets
            and ranking[0] == decision["configuration"]
            and ordered
        ):
            bad.add(index)
    sample = random.Random(f"check:{seed}").sample(
        range(len(answered)), min(REFERENCE_SAMPLE, len(answered))
    )
    reference = PredictionHandler(train_bundle())
    for index in sample:
        payload, decision = answered[index]
        expected = reference.handle_batch([PhaseSampleRequest.from_payload(payload)])[0]
        same = (
            expected.configuration == decision["configuration"]
            and list(expected.ranking) == decision["ranking"]
            and all(
                abs(value - decision["predicted"][name]) <= 1e-12 * abs(value)
                for name, value in expected.predicted.items()
            )
        )
        if not same:
            bad.add(index)
    return len(bad)


def check_grid(answered, seed: int) -> int:
    """Failed operations among answered ``grid_probe`` requests.

    Every decision must be the ED² minimum (ties by name) over its own
    returned scores, ranked in that order over all 15 configurations.  A
    seeded sample's scores must equal a fresh noise-free machine's
    ``execute_grid(..., use_memo=False)`` exactly.
    """
    configurations = Machine(noise_sigma=0.0).default_configurations()
    names = [c.name for c in configurations]
    bad = set()
    for index, (payload, decision) in enumerate(answered):
        scores = decision["predicted"]
        expected = sorted(names, key=lambda n: (scores.get(n, float("inf")), n))
        if not (
            _echo_ok(payload, decision)
            and set(scores) == set(names)
            and decision["ranking"] == expected
            and decision["configuration"] == expected[0]
        ):
            bad.add(index)
    sample = random.Random(f"check:{seed}").sample(
        range(len(answered)), min(REFERENCE_SAMPLE, len(answered))
    )
    works = [GridProbeRequest.from_payload(answered[i][0]).work for i in sample]
    grid = Machine(noise_sigma=0.0).execute_grid(works, configurations, use_memo=False)
    ed2 = grid.metric("ed2")
    for row, index in enumerate(sample):
        scores = answered[index][1]["predicted"]
        if any(scores.get(n) != float(v) for n, v in zip(grid.names(), ed2[row])):
            bad.add(index)
    return len(bad)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("predict-tcp", "grid-tcp"), required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    if args.workload == "predict-tcp":
        base = nas_phase_samples()
        streams = [phase_sample_stream(args.seed, app, base) for app in range(APPS)]
    else:
        hot = hot_works(args.seed)
        streams = [grid_probe_stream(args.seed, app, hot) for app in range(APPS)]
    records, window = asyncio.run(
        asyncio.wait_for(
            drive(args.port, streams, args.seconds),
            timeout=TCP_WARMUP_S + args.seconds + 60.0,
        )
    )

    answered = [(p, a["decision"]) for _, _, p, a in records if a and a.get("ok")]
    check = check_predict if args.workload == "predict-tcp" else check_grid
    failed = len(records) - len(answered) + check(answered, args.seed)
    measured = [
        (t_send, t_answer)
        for t_send, t_answer, _, answer in records
        if answer and answer.get("ok") and window[0] <= t_answer <= window[1]
    ]
    latencies = [(t_answer - t_send) * 1e3 for t_send, t_answer in measured]
    new_works = {
        WorkRequest(**p["work"]).fingerprint(): p["work"]
        for p, _ in answered
        if p["phase"].startswith("new#")
    }
    print(
        json.dumps(
            {
                "attempted": len(records),
                "failed": failed,
                "window": list(window),
                "ops_per_s": rate([t_answer for _, t_answer in measured]),
                "latency_p50_ms": statistics.median(latencies),
                "latency_p90_ms": p90(latencies),
                "new_works": list(new_works.values()),
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
