"""Structured trace events for tuning runs.

Every interesting moment of an online tuning run — a session time step, a
batch proposed or accepted, an expansion check, an injected fault, a retry,
a straggler re-dispatch, a lost worker — becomes one typed, timestamped
:class:`dict` record.  A :class:`Tracer` collects records into per-thread
buffers (append-only lists, no lock on the hot path) and either keeps them
in memory (the parent process) or flushes them to a per-worker JSONL shard
file that the sweep runner merges on gather.

Design constraints, in order:

* **disabled tracing is free** — every instrumentation site guards on a
  single ``is None`` check; no tracer object is ever constructed unless the
  caller asked for a trace;
* **deterministic modulo timestamps** — event payloads carry only model
  quantities (seeds, step kinds, barrier times, costs), never PIDs, object
  ids, or host names; :func:`canonical_events` strips the volatile
  wall-clock fields and imposes a deterministic order, so a canonicalized
  trace of a seeded run is byte-stable and can serve as a golden fixture;
* **worker-safe** — workers never share a file descriptor with the parent:
  each (process, thread) writes its own shard, and identity is carried in
  the events (``cell``/``trial``/``attempt``), not in the file layout.

Event records always carry ``seq`` (per-tracer emission counter), ``ts``
(wall clock, volatile), ``kind``, ``src`` (``"sweep"``/``"worker"``/
``"session"``), and — inside a :meth:`Tracer.scope` — the task identity
fields ``cell``, ``trial``, ``attempt``.  Everything else is kind-specific
payload; see ``docs/API.md`` for the full schema table.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "EVENT_KINDS",
    "VOLATILE_FIELDS",
    "Tracer",
    "activated",
    "active_tracer",
    "canonical_events",
    "emit",
    "read_trace",
    "worker_tracer",
    "write_jsonl",
]

#: the typed event vocabulary (instrumentation sites must stick to these)
EVENT_KINDS = frozenset(
    {
        # sweep scope (parent)
        "sweep.start",
        "sweep.end",
        "retry.dispatch",
        "trial.settled",
        "worker.lost",
        "shm.export",
        # trial scope (worker)
        "trial.start",
        "trial.end",
        "trial.fail",
        "fault.injected",
        # session scope (inside one tuning run)
        "session.start",
        "session.step",
        "batch.proposed",
        "batch.told",
        "session.end",
        # tuner scope (PRO state machine)
        "pro.step",
        "pro.expand_check",
        "tuner.converged",
        # substrate scope
        "fault.fire",
        "db.materialize",
        "shm.attach",
        # serving scope (the tuning service's request path)
        "server.request",
        "server.batch",
        "server.session",
        # durability scope (the write-ahead log)
        "wal.append",
        "wal.replay",
        "wal.snapshot",
        "wal.recover",
        # fleet scope (the coordinator's registry; heartbeats are
        # counters-only — they would swamp a trace)
        "fleet.register",
        "fleet.locate",
        "fleet.expire",
        "fleet.rehome",
    }
)

#: wall-clock-derived fields stripped by :func:`canonical_events`
VOLATILE_FIELDS = ("ts", "dur_s", "wait_s")

#: identity fields injected from the active :meth:`Tracer.scope`
_SCOPE_FIELDS = ("cell", "trial", "attempt", "src")


class Tracer:
    """Collects typed trace events; one instance per process per role.

    ``shard_dir=None`` keeps events in memory (:meth:`drain` returns them);
    with a shard directory, :meth:`flush` appends the calling thread's
    buffer to a ``shard-<pid>-<tid>.jsonl`` file so pool workers can hand
    their events to the parent through the filesystem.
    """

    def __init__(self, label: str = "trace", shard_dir: str | Path | None = None):
        self.label = label
        self.shard_dir = Path(shard_dir) if shard_dir is not None else None
        self._seq = count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[dict]] = []

    # -- hot path ---------------------------------------------------------------

    def _buffer(self) -> list[dict]:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = self._tls.buf = []
            with self._lock:
                self._buffers.append(buf)
        return buf

    def emit(self, kind: str, **fields) -> None:
        """Record one event, stamped with the current scope and wall clock."""
        event: dict = {"seq": next(self._seq), "ts": time.time(), "kind": kind}
        scope = getattr(self._tls, "scope", None)
        event["src"] = self.label if scope is None else scope.get("src", self.label)
        if scope is not None:
            for key in ("cell", "trial", "attempt"):
                value = scope.get(key)
                if value is not None:
                    event[key] = value
        event.update(fields)
        self._buffer().append(event)

    @contextmanager
    def scope(self, **scope) -> Iterator[None]:
        """Attach identity fields (cell/trial/attempt/src) to nested emits.

        Scopes are thread-local, so a timed-out trial still running on its
        abandoned watchdog thread never stamps its identity on the next
        trial's events; nesting merges (inner keys win).
        """
        previous = getattr(self._tls, "scope", None)
        merged = dict(previous) if previous else {}
        merged.update(scope)
        self._tls.scope = merged
        try:
            yield
        finally:
            self._tls.scope = previous

    # -- draining ---------------------------------------------------------------

    def flush(self) -> None:
        """Append the calling thread's buffer to its shard file and clear it.

        No-op without a shard directory (parent tracers drain in memory).
        Called after every trial so events survive a worker that is later
        killed mid-sweep.
        """
        if self.shard_dir is None:
            return
        buf = self._buffer()
        if not buf:
            return
        path = self.shard_dir / f"shard-{os.getpid()}-{threading.get_ident()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for event in buf:
                fh.write(json.dumps(event) + "\n")
        buf.clear()

    def drain(self) -> list[dict]:
        """All in-memory events across threads, in emission (seq) order."""
        with self._lock:
            merged = [event for buf in self._buffers for event in buf]
        merged.sort(key=lambda e: e["seq"])
        return merged


# -- process-global tracer plumbing -----------------------------------------------
#
# Substrate-level instrumentation (FaultyEvaluator, PerformanceDatabase)
# cannot thread a tracer argument through every call chain; they emit via
# the module-level ``emit``, which resolves the thread-local active tracer
# installed by ``activated`` around a traced trial or session.  One None
# check when tracing is off.

_active_tls = threading.local()

#: cache of worker tracers, keyed by shard directory.  Entries are
#: ``(pid, tracer)``: fork-started pool workers inherit the parent's cache
#: (including an adopted parent tracer that never writes shards), so a
#: stale-pid entry must be replaced, not trusted.
_worker_tracers: dict[str, tuple[int, Tracer]] = {}


def active_tracer() -> Tracer | None:
    """The tracer installed for the calling thread, or None."""
    return getattr(_active_tls, "tracer", None)


@contextmanager
def activated(tracer: Tracer) -> Iterator[Tracer]:
    """Install *tracer* as the calling thread's active tracer."""
    previous = getattr(_active_tls, "tracer", None)
    _active_tls.tracer = tracer
    try:
        yield tracer
    finally:
        _active_tls.tracer = previous


def emit(kind: str, **fields) -> None:
    """Emit through the thread's active tracer; free no-op when tracing is off."""
    tracer = getattr(_active_tls, "tracer", None)
    if tracer is not None:
        tracer.emit(kind, **fields)


def worker_tracer(spec: dict) -> Tracer:
    """The per-process tracer for a sweep's shard directory (cached).

    *spec* is the JSON-safe descriptor a :class:`SweepTask` carries:
    ``{"dir": <shard directory>}``.  Every executor funnels through here, so
    serial and process workers share one code path.  In the sweep runner's
    own process the cache is pre-seeded with the parent tracer (see
    :func:`_adopt_worker_tracer`), so serial trials append to its in-memory
    buffers directly; only genuine worker processes — whose cache starts
    empty — pay for JSONL shards.
    """
    key = spec["dir"]
    entry = _worker_tracers.get(key)
    if entry is not None and entry[0] == os.getpid():
        return entry[1]
    tracer = Tracer(label="worker", shard_dir=key)
    _worker_tracers[key] = (os.getpid(), tracer)
    return tracer


def _adopt_worker_tracer(spec: dict, tracer: Tracer) -> None:
    """Pre-seed this process's worker-tracer cache with the parent tracer.

    Trials that run in the parent process (the serial executor, including
    its timeout watchdog threads) then skip the shard-file round trip: their
    events land in the parent's per-thread buffers and come back through
    ``drain()``.  The entry is pid-stamped, so a forked pool worker builds
    its own shard tracer instead of inheriting this one (whose buffers the
    parent would never see).
    """
    _worker_tracers[spec["dir"]] = (os.getpid(), tracer)


def _forget_worker_tracer(spec: dict) -> None:
    """Drop the cached worker tracer for a finished sweep (parent side)."""
    _worker_tracers.pop(spec["dir"], None)


# -- files -----------------------------------------------------------------------


def write_jsonl(events: Iterable[dict], path: str | Path) -> None:
    """Write events one-JSON-object-per-line."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def read_trace(path: str | Path) -> list[dict]:
    """Load a JSONL trace file (blank lines tolerated)."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def read_shards(shard_dir: str | Path) -> list[dict]:
    """Load and concatenate every worker shard under *shard_dir*."""
    events: list[dict] = []
    for path in sorted(Path(shard_dir).glob("shard-*.jsonl")):
        events.extend(read_trace(path))
    return events


# -- canonical ordering ------------------------------------------------------------


def _rank(event: dict) -> int:
    """Within one (cell, trial, attempt) group: dispatch, worker, verdict."""
    if event.get("kind") == "retry.dispatch":
        return 0
    if event.get("src") == "worker":
        return 1
    return 2


def _sort_key(event: dict):
    cell = event.get("cell")
    if cell is None:
        # Sweep/session-level events keep their emission order, ahead of
        # the per-task groups (their seq came from the parent tracer).
        return (0, 0, 0, 0, 0, event["seq"])
    return (
        1,
        cell,
        event.get("trial", -1),
        event.get("attempt", -1),
        _rank(event),
        event["seq"],
    )


def canonical_events(events: Iterable[dict], *, strip: bool = True) -> list[dict]:
    """Deterministic ordering (and optional volatile-field stripping).

    Ordering: header (task-less) events in emission order, then per-task
    groups cell-major / trial-minor / attempt-ascending, each group ordered
    dispatch → worker events → parent verdict, by emission within a source.
    With ``strip=True`` the wall-clock fields (:data:`VOLATILE_FIELDS`) and
    the ``seq`` counter are removed, leaving only model-deterministic
    payloads — the form committed as golden fixtures.
    """
    ordered = sorted(events, key=_sort_key)
    if not strip:
        return ordered
    return [
        {k: v for k, v in event.items() if k != "seq" and k not in VOLATILE_FIELDS}
        for event in ordered
    ]
