"""Per-layer timing taken from outside the program.

:class:`Recorder` wraps public functions and methods of the program's
modules (module attributes and class attributes, replaced in place) with
a timer that keeps, per layer key, the call count, the total and *self*
time (total minus the time spent in nested wrapped calls on the same
thread) and every call's duration.  Nothing under ``src/`` changes: the
wrappers are installed by the benchmark's own files, in the benchmark
process for client-side and sweep layers and, for server-side layers, in
the server process via ``serve_traced.py``.

Process-pool workers are forked from a patched parent, so they inherit
the wrappers; each worker writes its own stats file after every chunk it
runs (see :func:`install_sweep`) and the parent merges them.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter


class Recorder:
    """Counts, total/self seconds and per-call durations per layer key."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [count, total, self, durations]
        self.counters: dict[str, float] = {}

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def _entry(self, key: str) -> list:
        entry = self.stats.get(key)
        if entry is None:
            with self._lock:
                entry = self.stats.setdefault(key, [0, 0.0, 0.0, array("d")])
        return entry

    def wrap(self, key: str, fn: Callable, size: Callable | None = None,
             out: Callable | None = None) -> Callable:
        """A timed stand-in for *fn*; *size(args)* feeds counter
        ``key.items`` and *out(result)* counter ``key.out``."""
        local = self._local

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                entry = self._entry(key)
                with self._lock:
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += dt - frame[0]
                    entry[3].append(dt)
                    if size is not None:
                        k = key + ".items"
                        self.counters[k] = self.counters.get(k, 0) + size(args)
                    if out is not None and result is not None:
                        k = key + ".out"
                        self.counters[k] = self.counters.get(k, 0) + out(result)

        timed.__perfbench_wrapped__ = fn
        return timed

    def patch(self, owner: Any, name: str, key: str, size: Callable | None = None,
              out: Callable | None = None) -> None:
        """Replace ``owner.name`` (a module or class attribute) with a timer."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, classmethod):
            if not hasattr(original.__func__, "__perfbench_wrapped__"):
                setattr(owner, name,
                        classmethod(self.wrap(key, original.__func__, size, out)))
            return
        if hasattr(original, "__perfbench_wrapped__"):
            return
        setattr(owner, name, self.wrap(key, original, size, out))

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "stats": {
                    k: [v[0], v[1], v[2], list(v[3])] for k, v in self.stats.items()
                },
                "counters": dict(self.counters),
            }

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()) + "\n")
        os.replace(tmp, path)


def snapshot_path(stats: Path, n: int) -> Path:
    """Where a traced server writes its *n*-th on-demand snapshot."""
    return stats.with_name(f"{stats.stem}-{n}.json")


def merge(snapshots) -> dict:
    """Sum several :meth:`Recorder.snapshot` results (e.g. pool workers)."""
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    for snap in snapshots:
        for key, (n, total, self_s, durs) in snap["stats"].items():
            entry = stats.setdefault(key, [0, 0.0, 0.0, []])
            entry[0] += n
            entry[1] += total
            entry[2] += self_s
            entry[3].extend(durs)
        for key, value in snap["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"stats": stats, "counters": counters}


def diff(after: dict, before: dict) -> dict:
    """What one recorder recorded between two of its snapshots.

    Durations are appended in call order, so the window's calls are the
    tail of each key's list beyond its length in *before*.
    """
    stats: dict[str, list] = {}
    for key, (n, total, self_s, durs) in after["stats"].items():
        n0, total0, self0, durs0 = before["stats"].get(key, (0, 0.0, 0.0, []))
        if n > n0:
            stats[key] = [n - n0, total - total0, self_s - self0, durs[len(durs0):]]
    counters = {
        key: value - before["counters"].get(key, 0)
        for key, value in after["counters"].items()
    }
    return {"stats": stats, "counters": counters}


def load(path: Path) -> dict:
    return json.loads(Path(path).read_text())


# -- the layers of each process --------------------------------------------------


def install_client(rec: Recorder) -> None:
    """Client side of the served workloads: ``harmony.client`` calls, the
    socket round trip, and the client's half of both codecs."""
    import json as _json
    import types

    from repro.apps.database import PerformanceDatabase
    from repro.harmony import binproto, client, protocol, transport

    C = client.TuningClient
    rec.patch(C, "fetch_many", "client.fetch")
    rec.patch(C, "fetch", "client.fetch")
    rec.patch(C, "report_many", "client.report")
    rec.patch(C, "report", "client.report")
    T = transport.TcpClientTransport
    rec.patch(T, "request", "client.wire")
    rec.patch(T, "request_frame", "client.wire")
    rec.patch(binproto, "encode_fetch_many", "binproto.codec")
    rec.patch(binproto, "encode_report_many", "binproto.codec")
    rec.patch(binproto, "decode_response", "binproto.codec")
    rec.patch(protocol, "encode_line", "protocol.json_codec")
    # TcpClientTransport parses replies with json.loads directly; give the
    # transport module a json whose loads is timed.
    transport.json = types.SimpleNamespace(
        loads=rec.wrap("protocol.json_codec", _json.loads)
    )
    rec.patch(PerformanceDatabase, "evaluate_batch", "database.evaluate")


def install_server(rec: Recorder) -> None:
    """Server side: the shared respond pipeline, dispatch, codecs,
    admission, sessions, the tuner and the WAL (``wal.encode.out`` counts
    the bytes logged, ``admission.shed.items`` the messages refused)."""
    from repro.core.base import BatchTuner
    from repro.harmony import aio, binproto, protocol, server, transport, wal

    # The asyncio transport imported the pipeline stages by name, so they
    # are wrapped there; inside respond_frames they are looked up in the
    # transport module.  A chunk is one respond_frames call (inline) or
    # one respond_prepared call (with admission, on the dispatch pool).
    rec.patch(aio, "respond_frames", "transport.respond", size=lambda a: len(a[1]))
    rec.patch(aio, "prepare_items", "transport.prepare", size=lambda a: len(a[0]))
    rec.patch(aio, "respond_prepared", "transport.respond")
    rec.patch(aio, "plan_admission", "admission.plan")
    rec.patch(aio, "finish_admission", "admission.plan")
    rec.patch(transport, "prepare_items", "transport.prepare")
    rec.patch(transport, "plan_admission", "admission.plan")
    rec.patch(transport, "finish_admission", "admission.plan")
    rec.patch(transport, "respond_prepared", "transport.dispatch")
    rec.patch(binproto.FrameSplitter, "feed", "binproto.codec")
    for name in (
        "peek_load", "decode_fetch_many", "decode_report_many",
        "decode_fetch_many2", "decode_report_many2", "encode_points",
        "encode_ack", "encode_error", "encode_busy",
    ):
        rec.patch(binproto, name, "binproto.codec")
    rec.patch(binproto, "dispatch_frame", "binproto.dispatch")
    rec.patch(protocol, "decode_line", "protocol.json_codec")
    rec.patch(protocol, "encode_line", "protocol.json_codec")
    rec.patch(protocol, "dispatch", "protocol.dispatch")
    rec.patch(server.TuningServer, "handle", "server.handle")
    S = server.ServerSession
    rec.patch(S, "fetch_many_arrays", "session.fetch")
    rec.patch(S, "op_fetch", "session.fetch")
    rec.patch(S, "report_many_arrays", "session.report")
    rec.patch(S, "op_report", "session.report")
    rec.patch(BatchTuner, "ask", "pro.ask")
    rec.patch(BatchTuner, "tell", "pro.tell")
    rec.patch(wal.WalWriter, "append", "wal.append")
    rec.patch(wal, "encode_record", "wal.encode", out=len)
    rec.patch(wal.WalWriter, "commit", "wal.commit")
    rec.patch(server.TuningServer, "observe_shed", "admission.shed", size=lambda a: a[1])


def install_sweep(rec: Recorder, out_dir: Path, *, all_layers: bool) -> None:
    """Sweep layers, in this process and in every forked pool worker.

    ``all_layers=False`` times only the unit of work, ``run_trial`` (one
    pair of clock reads per tuning session): the end-to-end trial
    latency.  ``all_layers=True`` adds every layer below it.
    """
    from repro.apps.database import PerformanceDatabase
    from repro.cluster.cluster import Cluster
    from repro.core.base import BatchTuner
    from repro.experiments import parallel
    from repro.harmony.session import TuningSession
    from repro.variability import models

    rec.patch(parallel, "run_trial", "runner.trial")
    if all_layers:
        rec.patch(TuningSession, "run", "session.run")
        rec.patch(BatchTuner, "ask", "pro.ask")
        rec.patch(BatchTuner, "tell", "pro.tell")
        rec.patch(PerformanceDatabase, "evaluate_batch", "database.evaluate")
        rec.patch(PerformanceDatabase, "from_function", "database.build")
        for cls in (models.ParetoNoise, models.NoNoise):
            rec.patch(cls, "sample_noise", "noise.sample")
        rec.patch(Cluster, "run", "cluster.run")
        rec.patch(parallel.ProcessExecutor, "_prepare", "parallel.shm_export")

    chunk = parallel._run_chunk
    if hasattr(chunk, "__perfbench_wrapped__"):
        return

    def db_counts() -> tuple[int, int]:
        queries = hits = 0
        seen: set[int] = set()
        for factory in parallel._WORKER_REGISTRY.values():
            db = getattr(factory, "db", None)
            if db is None or id(db) in seen:
                continue
            seen.add(id(db))
            stats = db.cache_stats()
            queries += stats["n_exact"] + stats["n_interpolated"]
            hits += stats["n_memo_hits"]
        return queries, hits

    files: dict[int, Path] = {}

    @functools.wraps(chunk)
    def run_chunk(tasks):
        pid = os.getpid()
        if pid != rec.pid:  # first chunk in a forked worker
            rec.reset()
            rec.pid = pid
            # pids can repeat across pools; the file name must not
            files[pid] = out_dir / f"worker-{pid}-{os.urandom(6).hex()}.json"
        q0, h0 = db_counts()
        try:
            return chunk(tasks)
        finally:
            q1, h1 = db_counts()
            rec.count("database.queries", q1 - q0)
            rec.count("database.memo_hits", h1 - h0)
            if pid in files:
                rec.dump(files[pid])

    run_chunk.__perfbench_wrapped__ = chunk
    parallel._run_chunk = run_chunk


def harvest(rec: Recorder, out_dir: Path) -> dict:
    """Collect and clear what this process and its pool workers recorded."""
    files = sorted(out_dir.glob("worker-*.json"))
    snap = merge([rec.snapshot()] + [load(p) for p in files])
    rec.reset()
    for path in files:
        path.unlink()
    return snap
