"""Transports carrying protocol messages between clients and the server.

Two implementations behind one interface:

* :class:`InProcessTransport` — direct method calls (zero overhead; used by
  the simulation experiments and most tests);
* :class:`TcpClientTransport` — one TCP socket carrying both wires, the
  JSON-lines protocol (see :mod:`repro.harmony.protocol`) and the binary
  ``fetch_many``/``report_many`` frames (see :mod:`repro.harmony.binproto`),
  one lock-step round trip at a time.

The server side is :class:`repro.harmony.aio.AsyncTcpServerTransport`
(one event loop, a coroutine per connection).  It answers every recv
chunk through the staged pipeline defined here (:func:`prepare_items` →
:func:`plan_admission` → :func:`respond_prepared` →
:func:`finish_admission`, or :func:`respond_frames` for all four), in
request order, echoing each request's ``seq``.

All TCP endpoints set ``TCP_NODELAY`` — Nagle's algorithm only adds latency
to a 1-line request/response protocol — and the server rejects frames
longer than :data:`repro.harmony.protocol.MAX_LINE_BYTES` instead of
buffering them unboundedly.
"""

from __future__ import annotations

import json
import socket
import threading
from abc import ABC, abstractmethod
from typing import Any, Mapping, Sequence

import numpy as np

from repro.harmony import binproto, protocol
from repro.harmony.server import DEFAULT_SESSION, TuningServer

__all__ = [
    "Transport",
    "InProcessTransport",
    "TcpClientTransport",
    "n_wire_chunks",
    "prepare_items",
    "plan_admission",
    "finish_admission",
    "respond_prepared",
    "respond_frames",
]


def _set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle's algorithm (best effort — not fatal if unsupported)."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - platform-dependent
        pass


def prepare_items(
    items: Sequence[tuple], max_line_bytes: int = protocol.MAX_LINE_BYTES
) -> list[tuple]:
    """Decode one splitter batch into dispatch-ready items with load prices.

    Each :class:`binproto.FrameSplitter` item becomes one of::

        ("json", message_or_None, error_response_or_None, weight, session)
        ("bin", msg_type, seq, payload, weight, session)
        ("oversized",)

    ``(weight, session)`` is the item's admission price — message units
    and the addressed session (``None`` when the frame does not name one,
    e.g. heterogeneous JSON batch envelopes, which then count against the
    global budget only).  JSON lines are decoded exactly once, here, so
    admission planning does not double-parse the hot path.
    """
    prepared: list[tuple] = []
    for item in items:
        kind = item[0]
        if kind == "oversized":
            prepared.append(("oversized",))
            break
        if kind == "json":
            message, err = protocol.decode_line(item[1])
            weight, session = 1, None
            if message is not None:
                if message.get("op") == "batch":
                    msgs = message.get("msgs")
                    if isinstance(msgs, list):
                        weight = max(1, min(len(msgs), protocol.MAX_BATCH_MSGS))
                    session = message.get("session")
                else:
                    session = message.get("session") or DEFAULT_SESSION
                if session is not None and not isinstance(session, str):
                    session = None
            prepared.append(("json", message, err, weight, session))
        else:  # ("bin", msg_type, seq, payload)
            _, msg_type, seq, payload = item
            weight, session = binproto.peek_load(msg_type, payload)
            prepared.append(("bin", msg_type, seq, payload, weight, session))
    return prepared


def plan_admission(
    server: TuningServer, prepared: Sequence[tuple]
) -> tuple[list[bool] | None, list[tuple[int, str | None]]]:
    """Admit or shed each prepared item against the server's budget.

    Returns ``(flags, grants)``: per-item admit decisions (``None`` when
    the server has no admission controller — everything is admitted) and
    the ``(weight, session)`` grants to hand back via
    :func:`finish_admission` once the responses have been built.  The
    admitted units stay charged from this call until then — that window
    (waiting for the event loop, dispatch, modeled service time, WAL
    commit) *is* the pending work the budget bounds.  The response write
    is not charged: a connection blocked in a write reads no new frames,
    so the write cannot grow the queue.
    """
    admission = getattr(server, "admission", None)
    if admission is None:
        return None, []
    flags: list[bool] = []
    grants: list[tuple[int, str | None]] = []
    shed_units = 0
    for item in prepared:
        if item[0] == "oversized" or (item[0] == "json" and item[1] is None):
            flags.append(True)  # framing errors answer without touching work
            continue
        weight, session = item[-2], item[-1]
        ok = admission.try_admit(weight, session=session)
        flags.append(ok)
        if ok:
            grants.append((weight, session))
        else:
            shed_units += weight
    if shed_units:
        observe = getattr(server, "observe_shed", None)
        if observe is not None:
            observe(shed_units)
    return flags, grants


def finish_admission(
    server: TuningServer, grants: Sequence[tuple[int, str | None]]
) -> None:
    """Return granted admission units once their responses are built.

    The asyncio server calls this after :func:`respond_prepared` and
    before writing the responses, on the loop thread.
    """
    if not grants:
        return
    admission = getattr(server, "admission", None)
    if admission is None:  # pragma: no cover - controller detached mid-flight
        return
    for weight, session in grants:
        admission.complete(weight, session=session)


def respond_prepared(
    server: TuningServer,
    prepared: Sequence[tuple],
    flags: Sequence[bool] | None,
    wire: str,
    max_line_bytes: int = protocol.MAX_LINE_BYTES,
) -> tuple[bytes, bool]:
    """Dispatch prepared items (see :func:`prepare_items`) into response bytes.

    *flags* carries :func:`plan_admission`'s per-item decisions; a refused
    item is answered with a busy response (``seq`` echoed, ``retry_after``
    from the controller) in its request's position, so response order is
    preserved for lock-step clients.  Returns ``(payload, closing)``.

    Durability contract: the server's WAL is group-committed *here*, after
    every request in the chunk has been handled but before the response
    bytes leave — so by the time a client sees an ACK, the mutation it
    acknowledges is on disk (one fsync per recv chunk under
    ``sync='batch'``).
    """
    admission = getattr(server, "admission", None)
    out: list[bytes] = []
    closing = False
    for idx, item in enumerate(prepared):
        kind = item[0]
        if kind == "oversized":
            out.append(protocol.encode_line(protocol.oversized_response(max_line_bytes)))
            closing = True
            break
        admitted = flags is None or flags[idx]
        if kind == "json":
            _, message, err, _weight, _session = item
            if err is not None:
                response = err
            elif not admitted:
                response = protocol.busy_response(
                    admission.retry_after if admission is not None
                    else protocol.DEFAULT_RETRY_AFTER_S
                )
                if message is not None and "seq" in message:
                    response["seq"] = message["seq"]
            else:
                response = protocol.dispatch(server, message)
            out.append(protocol.encode_line(response))
        else:  # ("bin", msg_type, seq, payload, weight, session)
            _, msg_type, seq, payload, _weight, _session = item
            if wire != "binary":
                out.append(
                    binproto.encode_error(
                        seq, "binary wire format disabled on this server"
                    )
                )
            elif not admitted:
                out.append(binproto.encode_busy(
                    seq,
                    admission.retry_after if admission is not None
                    else protocol.DEFAULT_RETRY_AFTER_S,
                ))
            else:
                out.append(binproto.dispatch_frame(server, msg_type, seq, payload))
    # Modeled service time (fleet benchmarking): bills the whole chunk at
    # once, under the server-global service lock, before responses leave.
    model = getattr(server, "model_service", None)
    if model is not None:
        model(len(out))
    commit = getattr(server, "commit_wal", None)
    if commit is not None:
        commit()
    return b"".join(out), closing


def respond_frames(
    server: TuningServer,
    items: Sequence[tuple],
    wire: str,
    max_line_bytes: int = protocol.MAX_LINE_BYTES,
) -> tuple[bytes, bool]:
    """Turn one :class:`binproto.FrameSplitter` batch into response bytes.

    :func:`prepare_items` → :func:`plan_admission` →
    :func:`respond_prepared` → :func:`finish_admission` in one call, with
    the admitted units held until the responses are built.  The asyncio
    server runs this when admission is off; with admission on it runs the
    same stages itself, yielding to the event loop once between
    :func:`plan_admission` and :func:`respond_prepared`.  Returns
    ``(payload, closing)``.
    """
    prepared = prepare_items(items, max_line_bytes)
    flags, grants = plan_admission(server, prepared)
    try:
        return respond_prepared(server, prepared, flags, wire, max_line_bytes)
    finally:
        finish_admission(server, grants)


class Transport(ABC):
    """One round trip: send a message dict, receive a response dict."""

    @abstractmethod
    def request(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Deliver *message* and return the server's response."""

    def request_many(
        self, messages: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Deliver several messages, returning responses in order.

        The base implementation is sequential round trips; the TCP transport
        overrides it with a single batch frame so the syscall and JSON
        framing costs are paid once per group instead of once per message.
        """
        return [self.request(m) for m in messages]

    def close(self) -> None:
        """Release any underlying resources (default: nothing to do)."""


class InProcessTransport(Transport):
    """Directly invokes a server living in the same process.

    Honors the same ack-implies-durable contract as the TCP transport:
    each request (or batch) group-commits the server's WAL before the
    response is returned to the caller.
    """

    def __init__(self, server: TuningServer) -> None:
        self.server = server

    def request(self, message: Mapping[str, Any]) -> dict[str, Any]:
        response = protocol.dispatch(self.server, message)
        self.server.commit_wal()
        return response

    def request_many(
        self, messages: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        response = protocol.dispatch(
            self.server, {"op": "batch", "msgs": [dict(m) for m in messages]}
        )
        self.server.commit_wal()
        if not response.get("ok", False):
            return [response for _ in messages]
        return response["results"]


def n_wire_chunks(n: int) -> int:
    """How many wire frames an *n*-item fetch/report group splits into.

    Clients stamping exactly-once ``cseqs`` allocate one per chunk.
    """
    return (n + protocol.MAX_BATCH_MSGS - 1) // protocol.MAX_BATCH_MSGS


class TcpClientTransport(Transport):
    """Client side of both wires over one TCP socket, lock-step.

    JSON messages travel as lines (:mod:`repro.harmony.protocol`), the
    binary ``fetch_many``/``report_many`` chunks as :mod:`binproto` frames.
    Each request waits for its reply before the next one is sent, the way
    every rank of the paper's model fetches, runs one time step and
    reports before it fetches again; threads sharing one transport take
    turns on its lock.
    """

    #: clients check this (plus the server's register advertisement) before
    #: switching their batch traffic to binary frames
    supports_binary = True

    def __init__(self, host: str, port: int, timeout: float = 5.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        _set_nodelay(self._sock)
        self._file = self._sock.makefile("rb")
        self._lock = threading.Lock()

    def request(self, message: Mapping[str, Any]) -> dict[str, Any]:
        payload = protocol.encode_line(message)
        with self._lock:
            self._sock.sendall(payload)
            line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def request_frame(self, frame: bytes) -> tuple:
        """One binary round trip; returns the decoded response tuple."""
        with self._lock:
            self._sock.sendall(frame)
            msg_type, _seq, payload = binproto.read_frame(self._file)
        return binproto.decode_response(msg_type, payload)

    def request_many(
        self, messages: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """One batch frame per :data:`protocol.MAX_BATCH_MSGS` messages."""
        results: list[dict[str, Any]] = []
        msgs = [dict(m) for m in messages]
        for start in range(0, len(msgs), protocol.MAX_BATCH_MSGS):
            chunk = msgs[start:start + protocol.MAX_BATCH_MSGS]
            response = self.request({"op": "batch", "msgs": chunk})
            if not response.get("ok", False):
                results.extend(response for _ in chunk)
            else:
                results.extend(response["results"])
        return results

    @staticmethod
    def _check_frame(resp: tuple, expected: str, op: str) -> tuple:
        """*resp* if it is the *expected* reply to *op*; raise otherwise.

        A busy shed raises :class:`protocol.ServerBusy`, a migrated session
        :class:`protocol.SessionMoved`, and an ERROR frame (or any other
        reply) a :class:`RuntimeError`.
        """
        kind = resp[0]
        if kind == expected:
            return resp
        if kind == "busy":
            raise protocol.ServerBusy(retry_after=resp[1])
        if kind == "moved":
            raise protocol.SessionMoved(resp[1])
        if kind == "error":
            raise RuntimeError(f"tuning server error: {resp[1]}")
        raise RuntimeError(f"unexpected {kind} response to {op}")

    def fetch_many_wire(
        self,
        session: str,
        client_id: int,
        n: int,
        *,
        cseqs: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fetch *n* configurations over the binary wire.

        Returns ``(points, tokens)`` — an ``(n, dim)`` float64 block and an
        ``(n,)`` int32 token block — one round trip per
        :data:`protocol.MAX_BATCH_MSGS` chunk, like the JSON batch path.
        *cseqs* (one per chunk, see :func:`n_wire_chunks`) makes each chunk
        an exactly-once v2 frame, so a retried fetch gets the original
        assignment block back instead of perturbing the stream.
        """
        points_parts: list[np.ndarray] = []
        tokens_parts: list[np.ndarray] = []
        for idx, start in enumerate(range(0, n, protocol.MAX_BATCH_MSGS)):
            frame = binproto.encode_fetch_many(
                0, session, client_id, min(protocol.MAX_BATCH_MSGS, n - start),
                cseq=cseqs[idx] if cseqs is not None else None,
            )
            _, tokens, points = self._check_frame(
                self.request_frame(frame), "points", "fetch_many"
            )
            tokens_parts.append(tokens)
            points_parts.append(points)
        if len(points_parts) == 1:
            return points_parts[0], tokens_parts[0]
        return np.concatenate(points_parts), np.concatenate(tokens_parts)

    def report_many_wire(
        self,
        session: str,
        client_id: int,
        step: int,
        tokens: np.ndarray,
        times: np.ndarray,
        *,
        cseqs: Sequence[int] | None = None,
    ) -> tuple[int, int]:
        """Report paired token/time arrays; returns ``(n_ok, n_stale)``.

        *cseqs* (one per chunk) makes each chunk exactly-once: replaying
        the same call after a reconnect is acked without double-counting.
        """
        tokens = np.ascontiguousarray(tokens, dtype="<i4")
        times = np.ascontiguousarray(times, dtype="<f8")
        n_ok = n_stale = 0
        for idx, start in enumerate(range(0, tokens.size, protocol.MAX_BATCH_MSGS)):
            stop = start + protocol.MAX_BATCH_MSGS
            frame = binproto.encode_report_many(
                0, session, client_id, step, tokens[start:stop], times[start:stop],
                cseq=cseqs[idx] if cseqs is not None else None,
            )
            _, ok, stale = self._check_frame(
                self.request_frame(frame), "ack", "report_many"
            )
            n_ok += ok
            n_stale += stale
        return n_ok, n_stale

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "TcpClientTransport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
