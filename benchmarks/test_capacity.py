"""Capacity sweep: how many concurrent sessions one server sustains.

The load generator drives the async binary server (the production
serving mode) in closed loop across a session ramp — 64 / 256 / 1024
logical sessions spread over a few lock-step connections, one client
thread each — with a real admission budget in front of the dispatch
path.  Each point records sustained requests/sec, latency percentiles,
and the shed fraction; the anchor point (256 sessions) is also measured
on the JSON wire for the dialect comparison.

Two numbers are guarded by ``compare_bench``:

* ``p99_anchor_ms`` (ceiling): tail latency at the anchor must stay
  bounded — admission control is what keeps this flat as sessions grow,
  because excess work waits client-side instead of queueing unboundedly
  in the server;
* ``sessions_floor`` (floor): the largest ramp point that completed all
  its work within the error budget must not regress below 256.
"""

from __future__ import annotations

import pytest

from repro.core.sampling import MinEstimator, SamplingPlan
from repro.experiments.common import tuner_factory
from repro.harmony.admission import AdmissionController
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.server import TuningServer
from repro.loadgen import LoadGenerator, LoadgenConfig, SloPolicy, loadgen_space

from test_server_throughput import _update_bench_json

#: the session ramp; the middle point is the anchor both wires measure
SESSION_RAMP = (64, 256, 1024)
ANCHOR_SESSIONS = 256
MAX_PENDING = 512
CONNECTIONS = 8
STEPS = 4

#: pass/fail for "sustained": within this error budget at generous latency
SLO = SloPolicy(latency_s=30.0, error_budget=0.01)


def make_server() -> TuningServer:
    server = TuningServer(
        tuner_factory("pro", rng=0),
        space=loadgen_space(),
        plan=SamplingPlan(1, MinEstimator()),
    )
    server.admission = AdmissionController(MAX_PENDING, retry_after_s=0.002)
    return server


def run_point(port: int, sessions: int, *, wire: str, tag: str) -> dict:
    config = LoadgenConfig(
        mode="closed", sessions=sessions, steps=STEPS,
        connections=CONNECTIONS, wire=wire, busy_retries=100_000,
        slo=SLO, session_prefix=tag,
    )
    report = LoadGenerator("127.0.0.1", port, config).run()
    d = report.to_dict()
    d["shed_fraction"] = round(
        report.busy_retried / max(1, d["count"] + report.busy_retried), 4
    )
    return d


@pytest.mark.bench_smoke
def test_capacity_sweep_records_bench_json():
    points = []
    json_anchor = None
    with AsyncTcpServerTransport(make_server()) as transport:
        for i, sessions in enumerate(SESSION_RAMP):
            point = run_point(
                transport.port, sessions, wire="binary", tag=f"cap{i}"
            )
            points.append(point)
            print(
                f"[capacity] {sessions:5d} sessions: {point['rps']:.0f} rps, "
                f"p99 {point.get('p99_ms', 0):.2f}ms, "
                f"shed {point['shed_fraction']:.3f}, "
                f"slo_ok={point['slo_ok']}"
            )
        json_anchor = run_point(
            transport.port, ANCHOR_SESSIONS, wire="json", tag="capj"
        )

    anchor = next(
        p for p, s in zip(points, SESSION_RAMP) if s == ANCHOR_SESSIONS
    )
    sustained = [
        s for p, s in zip(points, SESSION_RAMP)
        if p["slo_ok"] and p["ok"] == s * STEPS
    ]
    payload = {
        "max_pending": MAX_PENDING,
        "connections": CONNECTIONS,
        "steps": STEPS,
        "anchor_sessions": ANCHOR_SESSIONS,
        "p99_anchor_ms": anchor.get("p99_ms", float("nan")),
        "rps_anchor": anchor["rps"],
        "sessions_floor": max(sustained) if sustained else 0,
        "points": [
            {"sessions": s, **p} for p, s in zip(points, SESSION_RAMP)
        ],
        "json_anchor": json_anchor,
        "binary_anchor": anchor,
    }
    _update_bench_json("capacity", payload)

    # every ramp point must complete its full workload: admission sheds
    # are retried, not lost, so nothing falls off the ledger
    for point, sessions in zip(points, SESSION_RAMP):
        assert point["ok"] == sessions * STEPS, (
            f"{sessions}-session point lost work: {point}"
        )
    assert payload["sessions_floor"] >= ANCHOR_SESSIONS
