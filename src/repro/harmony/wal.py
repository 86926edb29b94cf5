"""The write-ahead log: durable, crash-recoverable serving state.

PR 4 proved that a trace of a tuning run is a *sufficient state record* —
``replay_sweep`` rebuilds exact aggregates from the event stream alone.
This module turns that invariant into durability for the tuning service:
every state-mutating operation a :class:`~repro.harmony.server.TuningServer`
applies (register / open_session / fetch / report / requeue / close) is
appended to an append-only, CRC-framed log *before its response is sent*,
so a server killed with ``SIGKILL`` mid-sweep can be rebuilt bit-identically
by replaying the log through the exact same handler code.

Record framing (all integers little-endian)::

    offset  size  field
    0       4     length   uint32, payload byte count
    4       4     crc32    zlib.crc32 of the payload
    8       len   payload  compact JSON, one record object

A torn tail — a record cut short by the kill, or one whose CRC no longer
matches — ends replay *cleanly*: everything before it is recovered,
nothing after it is trusted, and recovery truncates the file back to the
last valid record before appending again.  Replay never raises past a
corrupt record.

Record vocabulary (the ``"t"`` field)::

    snap     a full-server checkpoint; always the first record of its
             segment, written by snapshot+truncate
    op       one JSON protocol message (register/fetch/report/...),
             replayed through ``TuningServer.handle``
    fetchm   one binary fetch_many group (session, client, n, cseq)
    reportm  one binary report_many group (tokens/times inline)
    fleet    one fleet-registry command (register/heartbeat/expire/
             assign/rehome/close), replayed through
             ``FleetRegistry.apply`` — see :mod:`repro.fleet.registry`

**Segments and snapshot+truncate.**  The log lives in a directory of
``wal-NNNNNNNN.log`` segments; the writer rotates to a fresh segment at
``segment_bytes``.  When ``snapshot_bytes`` of log have accumulated, the
server writes a ``snap`` record (built from the existing per-session
checkpoint machinery) at the head of a new segment and deletes every older
segment — replay then starts from the snapshot instead of the beginning of
time.  A kill between "snapshot written" and "old segments deleted" is
safe: replay takes the *latest* complete snapshot and ignores everything
before it.

**Sync modes** (``sync=``):

* ``"always"`` — ``fsync`` after every append.  Survives power loss.
* ``"batch"`` (default) — appends are buffered; :meth:`WalWriter.commit`
  (called by every transport once per received chunk, *before* responses
  are written back) flushes and fsyncs the whole group.  One fsync
  amortizes over a pipelined burst; an acked operation is always durable.
* ``"off"`` — commit flushes to the OS but never fsyncs.  Still safe
  against ``kill -9`` of the server process (the page cache survives);
  only an OS crash or power loss can lose acked operations.

**Exactly-once.**  Clients stamp every fetch/report with a monotonically
increasing per-client sequence number (``cseq``); the server keeps a
per-client high-water mark plus a bounded reply cache, both rebuilt by WAL
replay, so a retry after a lost ACK is answered from the cache without
mutating anything — see ``docs/API.md`` ("Durability & recovery").

**Deterministic crash points.**  ``crash_at="append:N" | "commit:N" |
"torn:N" | "snapshot:N"`` arms a hook that ``SIGKILL``\\ s the process at
the Nth such event — after the Nth buffered append (record lost with the
buffer), after the Nth fsync (record durable, ACK never sent), halfway
through writing the Nth record (torn tail), or after the Nth snapshot
segment is durable but before the old segments are deleted.  The crash
battery in ``tests/harmony/test_crash_recovery.py`` drives all four.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "SYNC_MODES",
    "WAL_SCHEMA",
    "WalError",
    "WalWriter",
    "encode_record",
    "read_segment",
    "replay_dir",
    "recover_server",
    "truncate_torn_tail",
]

#: record-schema version stamped into snapshots
WAL_SCHEMA = 1

#: accepted durability policies
SYNC_MODES = ("always", "batch", "off")

#: hard cap on one record payload; larger records mean a corrupt length
#: field (or a bug) and end replay at that point
MAX_RECORD_BYTES = 64 << 20

#: ``<length, crc32>`` record header
_HEADER = struct.Struct("<II")

#: deterministic crash-point kinds (see module docstring)
_CRASH_KINDS = ("append", "commit", "torn", "snapshot")


class WalError(RuntimeError):
    """A write-ahead-log failure (bad directory, bad sync mode, bad spec)."""


def encode_record(record: dict) -> bytes:
    """Frame one record: ``<length><crc32>`` + compact JSON payload."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _parse_crash_spec(spec: str | None) -> tuple[str, int] | None:
    if spec is None:
        return None
    kind, _, count = spec.partition(":")
    if kind not in _CRASH_KINDS or not count.isdigit() or int(count) < 1:
        raise WalError(
            f"bad crash spec {spec!r}; expected one of "
            f"{'|'.join(_CRASH_KINDS)}:N with N >= 1"
        )
    return kind, int(count)


def _segment_paths(wal_dir: Path) -> list[Path]:
    return sorted(wal_dir.glob("wal-*.log"))


def _segment_index(path: Path) -> int:
    return int(path.stem.split("-", 1)[1])


class WalWriter:
    """Appends CRC-framed records to the segmented log under *wal_dir*.

    Thread-safe: appends from concurrent connection handlers interleave in
    lock order, which (because sessions append while holding their own
    lock) is exactly application order.  ``append`` buffers; ``commit``
    makes the buffered group durable per the sync mode; ``snapshot``
    rotates to a fresh segment headed by a full-state record and deletes
    the older segments.
    """

    def __init__(
        self,
        wal_dir: str | Path,
        *,
        sync: str = "batch",
        segment_bytes: int = 16 << 20,
        snapshot_bytes: int = 64 << 20,
        crash_at: str | None = None,
    ) -> None:
        if sync not in SYNC_MODES:
            raise WalError(f"sync must be one of {SYNC_MODES}, got {sync!r}")
        self.wal_dir = Path(wal_dir)
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.segment_bytes = int(segment_bytes)
        self.snapshot_bytes = int(snapshot_bytes)
        self._crash = _parse_crash_spec(crash_at)
        self._crash_counts = {kind: 0 for kind in _CRASH_KINDS}
        import threading

        self._lock = threading.Lock()
        self._fh: Any = None
        self._closed = False
        #: a record was appended since the last fsync or flush (guarded by
        #: the lock): commit() has nothing to make durable while this is False
        self._dirty = False
        #: records appended / commits fsynced / snapshots written (metrics)
        self.n_appends = 0
        self.n_commits = 0
        self.n_snapshots = 0
        self.bytes_written = 0
        #: bytes appended since the last snapshot (drives should_snapshot)
        self.bytes_since_snapshot = 0
        existing = _segment_paths(self.wal_dir)
        next_index = _segment_index(existing[-1]) + 1 if existing else 0
        self._open_segment(next_index)
        self.bytes_since_snapshot = sum(p.stat().st_size for p in existing)

    # -- plumbing -----------------------------------------------------------------

    def _open_segment(self, index: int) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
        self._segment_index = index
        self._segment_path = self.wal_dir / f"wal-{index:08d}.log"
        self._fh = open(self._segment_path, "ab")

    def _tick(self, kind: str) -> bool:
        """Advance the crash counter for *kind*; True when it must fire."""
        if self._crash is None or self._crash[0] != kind:
            return False
        self._crash_counts[kind] += 1
        return self._crash_counts[kind] == self._crash[1]

    def _die(self) -> None:  # pragma: no cover - the process does not return
        os.kill(os.getpid(), signal.SIGKILL)

    def _fsync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._dirty = False

    # -- the append path ----------------------------------------------------------

    def append(self, record: dict) -> None:
        """Buffer one record (durable after the next :meth:`commit`).

        With ``sync="always"`` the record is flushed and fsynced before
        this returns.  Rotation to a new segment happens on the append
        that crosses ``segment_bytes``.
        """
        frame = encode_record(record)
        with self._lock:
            if self._closed:
                raise WalError("append on a closed WAL")
            if self._tick("torn"):  # pragma: no cover - dies mid-record
                self._fh.write(frame[: max(1, len(frame) // 2)])
                self._fh.flush()
                self._die()
            self._fh.write(frame)
            self._dirty = True
            self.n_appends += 1
            self.bytes_written += len(frame)
            self.bytes_since_snapshot += len(frame)
            if self._tick("append"):  # pragma: no cover - dies here
                # Deliberately *without* flushing: the record sits in the
                # userspace buffer and dies with the process, modelling a
                # kill between apply and durability.
                self._die()
            if self.sync == "always":
                self._fsync()
                self.n_commits += 1
                if self._tick("commit"):  # pragma: no cover - dies here
                    self._die()
            if self._fh.tell() >= self.segment_bytes:
                self._fsync()
                self._open_segment(self._segment_index + 1)

    def commit(self) -> None:
        """Make every buffered append durable (the group-commit point).

        Transports call this once per received chunk before writing any
        response back, so an ACK always implies the operation is in the
        log (``sync="off"``: in the OS page cache; otherwise: on disk).
        With nothing appended since the last fsync or flush — a read-only
        chunk, or a retry answered from the reply cache — it does nothing.
        """
        with self._lock:
            if self._closed or self._fh is None or not self._dirty:
                return
            if self.sync == "off":
                self._fh.flush()
                self._dirty = False
                return
            if self.sync == "batch":
                self._fsync()
                self.n_commits += 1
                if self._tick("commit"):  # pragma: no cover - dies here
                    self._die()

    def should_snapshot(self) -> bool:
        """True when enough log has accumulated to warrant snapshot+truncate."""
        return self.bytes_since_snapshot >= self.snapshot_bytes

    def snapshot(self, state: dict) -> None:
        """Write *state* as a ``snap`` record heading a fresh segment, then
        delete every older segment.

        The snapshot segment is flushed and fsynced before any old segment
        is unlinked, so a kill anywhere in between leaves either the old
        tail (snapshot ignored half-written) or both (replay prefers the
        latest complete snapshot) — never neither.
        """
        record = {"t": "snap", "schema": WAL_SCHEMA, "state": state}
        with self._lock:
            if self._closed:
                raise WalError("snapshot on a closed WAL")
            old = [
                p for p in _segment_paths(self.wal_dir)
                if _segment_index(p) <= self._segment_index
            ]
            self._fsync()
            self._open_segment(self._segment_index + 1)
            frame = encode_record(record)
            self._fh.write(frame)
            self._fsync()
            self.n_snapshots += 1
            self.bytes_written += len(frame)
            self.bytes_since_snapshot = len(frame)
            if self._tick("snapshot"):  # pragma: no cover - dies here
                self._die()
            for path in old:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing an external cleaner
                    pass

    def flush(self) -> None:
        """Flush and fsync regardless of sync mode (shutdown safety net)."""
        with self._lock:
            if self._closed or self._fh is None:
                return
            self._fsync()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._fh.close()
                self._fh = None


# -- reading ----------------------------------------------------------------------


def read_segment(path: str | Path) -> Iterator[tuple[dict, int]]:
    """Yield ``(record, end_offset)`` for every valid record in *path*.

    Stops cleanly — never raises — at the first torn, truncated, or
    CRC-corrupted record; ``end_offset`` is the byte offset just past the
    record, i.e. the truncation point that keeps everything valid so far.
    """
    data = Path(path).read_bytes()
    pos = 0
    end = len(data)
    while pos + _HEADER.size <= end:
        length, crc = _HEADER.unpack_from(data, pos)
        if length > MAX_RECORD_BYTES or pos + _HEADER.size + length > end:
            return
        payload = data[pos + _HEADER.size : pos + _HEADER.size + length]
        if zlib.crc32(payload) != crc:
            return
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        if not isinstance(record, dict):
            return
        pos += _HEADER.size + length
        yield record, pos


def replay_dir(wal_dir: str | Path) -> tuple[dict | None, list[dict], dict]:
    """Read the whole log: ``(snapshot_state, op_records, stats)``.

    Segments are read in index order; a ``snap`` record resets the op list
    (replay starts from the latest complete snapshot).  The first invalid
    record ends replay entirely — in normal operation it can only be the
    torn tail of the final segment, and recovery truncates it before
    appending again (``stats["torn"]`` names the file and offset).
    """
    snapshot: dict | None = None
    ops: list[dict] = []
    stats: dict = {"segments": 0, "records": 0, "torn": None}
    for path in _segment_paths(Path(wal_dir)):
        stats["segments"] += 1
        size = path.stat().st_size
        last_end = 0
        for record, end in read_segment(path):
            stats["records"] += 1
            last_end = end
            if record.get("t") == "snap":
                snapshot = record.get("state")
                ops = []
            else:
                ops.append(record)
        if last_end < size:
            stats["torn"] = {"path": str(path), "valid_bytes": last_end}
            break
    return snapshot, ops, stats


def truncate_torn_tail(stats: dict) -> None:
    """Cut a torn final segment back to its last valid record.

    *stats* is the third element of a :func:`replay_dir` return.  Shared
    by server recovery and the fleet coordinator's registry recovery
    (:func:`repro.fleet.registry.recover_registry`).
    """
    torn = stats.get("torn")
    if not torn:
        return
    with open(torn["path"], "r+b") as fh:
        fh.truncate(torn["valid_bytes"])
        fh.flush()
        os.fsync(fh.fileno())


#: backwards-compat alias (pre-fleet name)
_truncate_torn_tail = truncate_torn_tail


# -- recovery ---------------------------------------------------------------------


def recover_server(
    tuner_factory: Callable,
    wal_dir: str | Path,
    *,
    space: Any | None = None,
    plan: Any | None = None,
    metrics: Any | None = None,
    tracer: Any | None = None,
    binproto: bool = True,
    reply_cache_size: int | None = None,
    service_delay_s: float = 0.0,
    sync: str = "batch",
    segment_bytes: int = 16 << 20,
    snapshot_bytes: int = 64 << 20,
    crash_at: str | None = None,
) -> Any:
    """Rebuild a :class:`~repro.harmony.server.TuningServer` from its WAL.

    Restores the latest complete snapshot (if any), replays every op
    record after it through the server's ordinary handlers (register,
    fetch, report, session management — including the per-client
    idempotency state, so a client retrying a report it sent to the dead
    server is deduplicated by the resurrected one), truncates any torn
    tail, and attaches a fresh :class:`WalWriter` continuing in the same
    directory.  Constructor arguments mirror ``TuningServer``'s — pass the
    same factory/plan/space the dead server was launched with.
    """
    from repro.harmony.server import TuningServer

    snapshot, ops, stats = replay_dir(wal_dir)
    server = TuningServer(
        tuner_factory, space=space, plan=plan, metrics=metrics,
        tracer=tracer, binproto=binproto,
        reply_cache_size=reply_cache_size, service_delay_s=service_delay_s,
    )
    server._wal_replaying = True
    try:
        if snapshot is not None:
            server.restore_state(snapshot)
        for record in ops:
            server.apply_wal_record(record)
    finally:
        server._wal_replaying = False
    truncate_torn_tail(stats)
    wal = WalWriter(
        wal_dir, sync=sync, segment_bytes=segment_bytes,
        snapshot_bytes=snapshot_bytes, crash_at=crash_at,
    )
    server.attach_wal(wal)
    if metrics is not None:
        metrics.inc("wal.recoveries")
        metrics.inc("wal.replayed_records", len(ops))
        metrics.inc("wal.recovered_sessions", len(server.session_names()))
    if tracer is not None:
        tracer.emit(
            "wal.recover",
            records=len(ops),
            snapshot=snapshot is not None,
            torn=stats["torn"] is not None,
            sessions=sorted(server.session_names()),
        )
    return server
