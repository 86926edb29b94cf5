"""Serving-path throughput of the asyncio TCP server, single vs batched.

Measures the tuning service's measurement-ingest path — the `fetch`/`report`
loop every online-tuning client hammers — across the serving matrix:

* framing: one JSON message per round trip, JSON batch frames
  (``fetch_many``/``report_many``), or binary batch frames (the negotiated
  ``binproto`` fast path — same client calls, zero-copy array decode);
* concurrency: 1 / 8 / 32 clients.

Each arm records requests/sec and client-observed round-trip p50/p99 into
the ``server`` section of ``BENCH_runner.json`` (keys ``async_<framing>``).
Two guarded ratios: ``speedup`` — the 32-client JSON batched arm over the
32-client unbatched arm (one message per round trip, the seed's only
serving mode) — and ``binary_speedup`` — the 32-client binary batched arm
over that JSON batched arm, the binary wire's headline.  Each framing runs
at its own width (JSON at the seed's ``BATCH_WIDTH``, binary at the
protocol max) because the arms compare *serving modes*; the same-width
codec comparison is the ``wire`` microbench.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
import uuid
from pathlib import Path

import numpy as np
import pytest

from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import MinEstimator, SamplingPlan
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.client import TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.transport import TcpClientTransport
from repro.space import IntParameter, ParameterSpace

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_runner.json"

#: configurations fetched per JSON batch frame — the serving mode the seed
#: recorded, kept so the ``speedup`` headline stays comparable across runs
BATCH_WIDTH = 16

#: configurations per binary batch frame — the protocol's max batch size
#: (``binproto.MAX_BATCH_MSGS``).  Wide frames are the binary path's design
#: point: decode is O(1) ``np.frombuffer`` views regardless of width, where
#: JSON parse cost stays per-value.  The same-width codec comparison lives
#: in the ``wire`` microbench section (widths 1/16/256).
BINARY_WIDTH = 1024

CLIENT_COUNTS = (1, 8, 32)

#: one id per bench-smoke run (one pytest process), stamped on the file and
#: on every key a run writes
RUN_ID = uuid.uuid4().hex[:12]


def _update_bench_json(section: str, payload: dict) -> None:
    """Read-modify-write one section so the smoke tests compose in any order.

    Merges into an existing section (rather than replacing it) so tests
    that contribute different keys to the same section — e.g. the serving
    matrix and the report-replay microbench, both under ``server`` —
    compose too.  The file carries this run's :data:`RUN_ID`, the CPU
    count and the Python version; the section's ``run_ids`` maps each key
    written to the run that wrote it.  A test that fails before writing
    leaves its keys with an older id (or none), and ``compare_bench.py``
    marks them as not rewritten by this run.  Keys, not sections, carry
    the stamp because ``server`` has two writers.
    """
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data["schema"] = 1
    data["cpu_count"] = os.cpu_count()
    data["python"] = platform.python_version()
    data["run_id"] = RUN_ID
    section_data = data.get(section)
    if not isinstance(section_data, dict):
        section_data = data[section] = {}
    section_data.update(payload)
    section_data.setdefault("run_ids", {}).update(dict.fromkeys(payload, RUN_ID))
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\n[bench_smoke] {section} -> {BENCH_JSON}")


def make_space() -> ParameterSpace:
    return ParameterSpace(
        [IntParameter("a", -10, 10), IntParameter("b", -10, 10)]
    )


def objective(point) -> float:
    a, b = point
    return 1.0 + (a - 3) ** 2 + (b + 2) ** 2


def make_server(*, binproto: bool = False, wal=None) -> TuningServer:
    server = TuningServer(
        lambda s: ParallelRankOrdering(s),
        plan=SamplingPlan(1, MinEstimator()),
        binproto=binproto,
    )
    if wal is not None:
        server.attach_wal(wal)
    return server


def fsync_probe_ms(directory: Path, n: int = 32) -> float:
    """p50 of one small append + fsync in *directory*, in ms.

    The disk's own price for a group commit, measured next to the WAL arm
    so a failing ``wal_overhead`` shows whether the code or the disk moved.
    """
    samples = []
    with open(directory / "fsync-probe.bin", "ab") as fh:
        for _ in range(n):
            t0 = time.perf_counter()
            fh.write(b"\0" * 64)
            fh.flush()
            os.fsync(fh.fileno())
            samples.append(time.perf_counter() - t0)
    return round(float(np.median(samples)) * 1e3, 4)


def _run_arm(mode: str, n_clients: int, total_steps: int,
             wal_dir=None) -> dict:
    """One serving arm; returns {rps, p50_ms, p99_ms, msgs, clients}.

    *mode* is ``"single"`` (one JSON message per round trip), ``"batched"``
    (JSON batch frames), or ``"binary"`` (negotiated binary batch frames —
    the same ``fetch_many``/``report_many`` client calls, so the arms
    differ only in the wire).  *wal_dir* arms the write-ahead log in
    group-commit mode — every mutation logged, one fsync per request chunk
    — to price durability against the identical non-durable arm; the arm
    then also records ``fsyncs_per_report`` (group commits per acked
    report).
    """
    batched = mode != "single"
    width = BINARY_WIDTH if mode == "binary" else BATCH_WIDTH
    steps = max(width if batched else 4, total_steps // n_clients)
    if batched:
        rounds = max(1, steps // width)
        steps = rounds * width
    wal = None
    if wal_dir is not None:
        from repro.harmony.wal import WalWriter

        wal = WalWriter(wal_dir, sync="batch")
    server = make_server(binproto=mode == "binary", wal=wal)
    barrier = threading.Barrier(n_clients + 1)
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    msgs_sent = [0] * n_clients
    errors: list[Exception] = []

    def worker(idx: int) -> None:
        try:
            with TcpClientTransport("127.0.0.1", tcp.port, timeout=30) as t:
                client = TuningClient(t)
                client.register(make_space())
                assert client._binproto == (mode == "binary")
                barrier.wait(timeout=30)
                lat = latencies[idx]
                if batched:
                    for step in range(rounds):
                        t0 = time.perf_counter()
                        configs = client.fetch_many(width)
                        lat.append(time.perf_counter() - t0)
                        times = [objective(c) for c in configs]
                        t0 = time.perf_counter()
                        client.report_many(times, step=step)
                        lat.append(time.perf_counter() - t0)
                        msgs_sent[idx] += 2 * width
                else:
                    for step in range(steps):
                        t0 = time.perf_counter()
                        config = client.fetch()
                        lat.append(time.perf_counter() - t0)
                        elapsed = objective(config)
                        t0 = time.perf_counter()
                        client.report(elapsed, step=step)
                        lat.append(time.perf_counter() - t0)
                        msgs_sent[idx] += 2
        except Exception as exc:  # pragma: no cover - surfaced by assert
            errors.append(exc)
            try:
                barrier.abort()
            except Exception:
                pass

    with AsyncTcpServerTransport(server, port=0) as tcp:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        barrier.wait(timeout=30)  # all clients connected and registered
        t_start = time.perf_counter()
        for t in threads:
            t.join(timeout=120)
        wall = time.perf_counter() - t_start
    assert not errors, f"client errors in {mode} arm: {errors[:3]}"
    total_msgs = sum(msgs_sent)
    assert server.n_reports == total_msgs // 2, "lost reports under load"
    server.close_wal()
    rtts = np.asarray([v for lat in latencies for v in lat], dtype=float)
    arm = {
        "clients": n_clients,
        "msgs": total_msgs,
        "rps": round(total_msgs / wall, 1),
        "p50_ms": round(float(np.quantile(rtts, 0.5)) * 1e3, 3),
        "p99_ms": round(float(np.quantile(rtts, 0.99)) * 1e3, 3),
    }
    if wal is not None:
        arm["fsyncs_per_report"] = round(wal.n_commits / server.n_reports, 5)
    return arm


@pytest.mark.bench_smoke
def test_smoke_server_throughput(scale):
    """The serving matrix; headline = batched over unbatched JSON."""
    total_steps = 1536 if scale == "full" else 512
    arms: dict[str, dict] = {}
    for mode in ("single", "batched", "binary"):
        arms[f"async_{mode}"] = {
            str(n_clients): _run_arm(mode, n_clients, total_steps)
            for n_clients in CLIENT_COUNTS
        }

    baseline = arms["async_single"]["32"]["rps"]
    contender = arms["async_batched"]["32"]["rps"]
    speedup = contender / baseline
    assert speedup > 1.0, (
        "JSON batch frames must beat one message per round trip at 32 "
        f"clients, got {speedup:.2f}x "
        f"({baseline:.0f} -> {contender:.0f} req/s)"
    )
    binary = arms["async_binary"]["32"]["rps"]
    binary_speedup = binary / contender
    assert binary_speedup > 2.0, (
        "the binary wire must clearly beat JSON batch frames at 32 clients, "
        f"got {binary_speedup:.2f}x ({contender:.0f} -> {binary:.0f} req/s)"
    )

    # Durability tax: the same async binary arm with a group-commit WAL
    # attached (sync=batch, one fsync per request chunk).  Wide frames are
    # what make the fsync amortize — per-chunk fsync over 16-message JSON
    # chunks costs ~70% and is a configuration choice (--sync off, or wider
    # frames), not a regression, so only this arm is guarded (the
    # ``wal_overhead_frac`` ceiling in compare_bench.py).
    import tempfile

    with tempfile.TemporaryDirectory() as wal_tmp:
        wal_arm = _run_arm(
            "binary", 32, total_steps, wal_dir=Path(wal_tmp) / "wal"
        )
        wal_arm["fsync_p50_ms"] = fsync_probe_ms(Path(wal_tmp))
    wal_overhead = max(0.0, 1.0 - wal_arm["rps"] / binary)
    assert wal_overhead < 0.10, (
        "the WAL in group-commit mode must cost < 10% of binary serving "
        f"throughput at 32 clients, measured {wal_overhead:.1%} "
        f"({binary:.0f} -> {wal_arm['rps']:.0f} req/s); "
        f"{wal_arm['fsyncs_per_report']:.5f} fsyncs per acked report, "
        f"append+fsync p50 {wal_arm['fsync_p50_ms']:.3f} ms on this disk"
    )
    arms["async_binary_wal"] = {"32": wal_arm}

    _update_bench_json(
        "server",
        {
            "batch_width": BATCH_WIDTH,
            "binary_width": BINARY_WIDTH,
            "total_steps": total_steps,
            "speedup": round(speedup, 3),
            "binary_speedup": round(binary_speedup, 3),
            "wal_overhead_frac": round(wal_overhead, 3),
            **arms,
        },
    )
