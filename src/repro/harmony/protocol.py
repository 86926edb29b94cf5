"""The JSON-lines wire protocol shared by every transport.

One JSON object per ``\\n``-terminated line, UTF-8.  This module owns the
framing rules so the TCP server, the TCP clients, and the in-process
transport cannot drift apart:

* **versioning** — clients send ``version`` with ``register``; the server
  rejects a mismatch (:data:`PROTOCOL_VERSION`).  Absent means "current",
  so pre-versioning clients keep working.
* **bounded frames** — a line longer than :data:`MAX_LINE_BYTES` is
  rejected with an ``ok: false`` response instead of being buffered
  without bound; the connection is then closed because the stream can no
  longer be trusted to be in sync.
* **batch frames** — ``{"op": "batch", "msgs": [...]}`` carries up to
  :data:`MAX_BATCH_MSGS` ordinary messages in one line and returns
  ``{"ok": true, "results": [...]}`` with one response per message, in
  order.  Batching amortizes syscalls and JSON overhead; it is a framing
  concern, so :func:`dispatch` unwraps it before the server sees anything.
* **pipelining** — a client may tag any message with a ``seq`` field; the
  response echoes it verbatim.  The server answers one connection's
  requests in order, so a client may send several before it reads the
  replies and match them by ``seq``.
* **exactly-once** — a client may stamp ``fetch``/``report`` messages with
  a monotone per-client ``cseq``; the server keeps a per-client high-water
  mark (persisted in its WAL, see :mod:`repro.harmony.wal`) plus a bounded
  reply cache, so a stamped request retried after a lost response is
  answered with the *original* reply instead of applied twice.  ``register``
  gets the same property from an opaque ``nonce`` (re-registering with a
  known nonce returns the already-minted client id) or an explicit
  ``resume: <client_id>`` — both are how a reconnecting client recovers its
  identity against a server rebuilt by WAL replay.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "MAX_BATCH_MSGS",
    "MAX_ERROR_TEXT",
    "DEFAULT_RETRY_AFTER_S",
    "ServerBusy",
    "SessionMoved",
    "busy_response",
    "decode_line",
    "dispatch",
    "encode_line",
    "error_response",
    "moved_response",
    "oversized_response",
    "redirect_response",
]

#: current wire-protocol version; checked at ``register``
PROTOCOL_VERSION = 1

#: hard cap on one wire frame (request or response line), newline included
MAX_LINE_BYTES = 1 << 20

#: hard cap on the number of messages inside one batch frame
MAX_BATCH_MSGS = 1024


def error_response(error: str) -> dict[str, Any]:
    """The uniform failure envelope."""
    return {"ok": False, "error": error}


def oversized_response(limit: int = MAX_LINE_BYTES) -> dict[str, Any]:
    """The response sent before closing a connection that overran the frame cap."""
    return error_response(f"frame exceeds {limit} bytes; closing connection")


#: default busy-response retry hint (seconds) when no admission controller
#: supplies a load-scaled one
DEFAULT_RETRY_AFTER_S = 0.05


class ServerBusy(RuntimeError):
    """The server shed this request under admission control.

    Nothing was applied: a busy response is emitted *instead of*
    dispatching, so retrying the identical (cseq-stamped) request after
    :attr:`retry_after` seconds is always safe.  Raised by
    :class:`~repro.harmony.client.TuningClient` (which honors the hint
    with capped exponential backoff) and by the binary wire ops on a
    BUSY frame.
    """

    def __init__(
        self, message: str = "server busy", *,
        retry_after: float = DEFAULT_RETRY_AFTER_S,
    ) -> None:
        super().__init__(f"{message} (retry_after {retry_after:.3f}s)")
        self.retry_after = float(retry_after)


def busy_response(retry_after: float = DEFAULT_RETRY_AFTER_S) -> dict[str, Any]:
    """The load-shed envelope: ``busy: true`` plus a ``retry_after`` hint.

    Sent instead of dispatching when the admission budget is exhausted
    (see :mod:`repro.harmony.admission`); the request had no effect, so
    clients retry it verbatim after backing off.
    """
    response = error_response("busy")
    response["busy"] = True
    response["retry_after"] = round(float(retry_after), 6)
    return response


class SessionMoved(ConnectionError):
    """The addressed session migrated to another shard mid-conversation.

    A ``ConnectionError`` subclass on purpose: the client's reconnect
    machinery already knows how to re-dial, re-register, and replay
    unacknowledged cseq-stamped reports, which is exactly the recovery a
    live migration needs.  The only extra step is invalidating any cached
    route first so the re-dial goes back through the coordinator.
    """

    def __init__(self, session: str = "") -> None:
        super().__init__(
            f"session {session!r} moved to another shard; re-resolve"
        )
        self.session = str(session)


def moved_response(session: str) -> dict[str, Any]:
    """The drain-and-move tombstone envelope.

    Answered by a shard that *exported* the session (live migration) for
    any op still addressed to it.  Unlike ``busy`` nothing should be
    retried here — the client must re-locate via the coordinator, which
    :class:`~repro.harmony.client.TuningClient` does by raising
    :class:`SessionMoved` and invalidating its resolver cache.
    """
    response = error_response(
        f"session {session!r} has moved; re-resolve via the coordinator"
    )
    response["moved"] = True
    response["session"] = str(session)
    return response


def redirect_response(shard: int, host: str, port: int) -> dict[str, Any]:
    """A successful ``locate`` answer: where the session is served.

    The fleet coordinator's routing envelope.  ``ok: True`` with a
    ``redirect`` field means "go there"; session ops mistakenly sent to
    the coordinator get the same ``redirect`` field on an ``ok: False``
    envelope, which :class:`~repro.harmony.client.TuningClient` surfaces
    as :class:`~repro.harmony.client.ServerRedirect`.
    """
    return {
        "ok": True,
        "redirect": {"shard": int(shard), "host": str(host), "port": int(port)},
    }


#: cap on exception text echoed into a "bad json" error response — the
#: offending payload is attacker-controlled and must not be amplified back
MAX_ERROR_TEXT = 200


def encode_line(message: Mapping[str, Any]) -> bytes:
    """Serialize one protocol message to its wire frame."""
    return json.dumps(dict(message), separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> tuple[dict[str, Any] | None, dict[str, Any] | None]:
    """Parse one wire frame into ``(message, error_response)``.

    Exactly one of the pair is non-None.  Framing errors (bad JSON, a
    non-object payload) never raise — they come back as the error response
    the server should write.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, error_response(f"bad json: {str(exc)[:MAX_ERROR_TEXT]}")
    if not isinstance(message, dict):
        return None, error_response(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message, None


def _echo_seq(message: Mapping[str, Any], response: dict[str, Any]) -> dict[str, Any]:
    if "seq" in message:
        response["seq"] = message["seq"]
    return response


def dispatch(server: Any, message: Mapping[str, Any]) -> dict[str, Any]:
    """Route one decoded message to *server*, unwrapping batch frames.

    *server* is anything with a ``handle(message) -> dict`` method (a
    :class:`~repro.harmony.server.TuningServer`).  Batch frames fan out to
    one ``handle`` call per inner message; inner responses echo their own
    ``seq`` fields, the envelope echoes the frame's.  Nested batches are
    rejected — they would allow amplification without bound.
    """
    if message.get("op") != "batch":
        return _echo_seq(message, server.handle(message))
    msgs = message.get("msgs")
    if not isinstance(msgs, list):
        return _echo_seq(message, error_response("batch needs a 'msgs' list"))
    if len(msgs) > MAX_BATCH_MSGS:
        return _echo_seq(
            message,
            error_response(f"batch of {len(msgs)} exceeds {MAX_BATCH_MSGS} messages"),
        )
    results: list[dict[str, Any]] = []
    for inner in msgs:
        if not isinstance(inner, dict):
            results.append(error_response("batch messages must be JSON objects"))
        elif inner.get("op") == "batch":
            results.append(error_response("nested batch frames are not allowed"))
        else:
            results.append(_echo_seq(inner, server.handle(inner)))
    observe = getattr(server, "observe_batch", None)
    if observe is not None:
        observe(len(msgs))
    return _echo_seq(message, {"ok": True, "results": results})
