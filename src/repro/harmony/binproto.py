"""The length-prefixed binary wire format (the fetch/report fast path).

JSON lines (:mod:`repro.harmony.protocol`) price every message at one dict
materialization plus one ``json`` encode/decode on each side; at 32 batched
clients that serialization is the serving ceiling, not the tuner.  This
module adds a second framing the TCP server accepts *on the same port*:

* **sniffing** — a frame starting with ``{`` (or any byte other than
  :data:`MAGIC`) is a JSON line; a frame starting with :data:`MAGIC` is
  binary.  Legacy JSON clients keep working unchanged.
* **negotiation** — the ``register`` handshake already carries
  ``PROTOCOL_VERSION``; a binary-capable server adds ``binproto:
  BINPROTO_VERSION`` to the register response, and a client only switches
  its batch traffic to binary frames after seeing it.
* **zero-copy batches** — a binary frame carries a whole
  ``fetch_many``/``report_many`` group as packed little-endian arrays
  (struct header + ``int32`` token and ``float64`` point/time blocks) that
  decode via :func:`np.frombuffer` straight into the arrays
  :meth:`ServerSession.fetch_many_arrays` / ``report_many_arrays``
  consume, and encode with one ``tobytes`` per block — no per-message dict
  on either side, one ``sendall`` per response.

Frame layout (all integers little-endian)::

    offset  size  field
    0       1     magic    0xB1
    1       1     type     message type (below)
    2       4     seq      uint32, echoed verbatim on the response
    6       4     length   uint32, payload byte count
    10      len   payload

Message types and payloads::

    FETCH_MANY   0x01  <i client_id> <I n> <H slen> session[slen]
    REPORT_MANY  0x02  <i client_id> <i step> <I n> <H slen> session[slen]
                       tokens int32[n]  times float64[n]
    FETCH_MANY2  0x03  <i client_id> <I n> <i cseq> <H slen> session[slen]
    REPORT_MANY2 0x04  <i client_id> <i step> <I n> <i cseq> <H slen>
                       session[slen]  tokens int32[n]  times float64[n]
    POINTS       0x81  <I n> <I dim>  tokens int32[n]  points float64[n*dim]
    ACK          0x82  <I n_ok> <I n_stale>
    MOVED        0x85  <H slen> session[slen]
    ERROR        0x7f  utf-8 error text (<= ERROR_TEXT_MAX bytes)

The ``2`` request variants (wire version 2) add an exactly-once stamp: a
``cseq`` of -1 means unstamped (identical semantics to the v1 frame), any
other value makes the whole frame one dedup unit under the server's
per-client high-water mark — a retried frame is answered from the reply
cache instead of re-applied (see :mod:`repro.harmony.wal`).  Version-1
frames remain accepted forever; clients only send v2 frames after the
register response advertises ``binproto >= 2``.

An empty session name addresses the default session.  ``n`` is capped at
:data:`repro.harmony.protocol.MAX_BATCH_MSGS` and a whole frame at
``MAX_LINE_BYTES`` — the same amplification/buffering bounds the JSON
framing enforces.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable

import numpy as np

from repro.harmony import protocol

__all__ = [
    "BINPROTO_VERSION",
    "MAGIC",
    "HEADER_SIZE",
    "ERROR_TEXT_MAX",
    "MSG_FETCH_MANY",
    "MSG_REPORT_MANY",
    "MSG_FETCH_MANY2",
    "MSG_REPORT_MANY2",
    "MSG_LOCATE",
    "MSG_POINTS",
    "MSG_ACK",
    "MSG_ERROR",
    "MSG_REDIRECT",
    "MSG_BUSY",
    "MSG_MOVED",
    "FrameSplitter",
    "WireError",
    "encode_frame",
    "encode_fetch_many",
    "encode_report_many",
    "encode_points",
    "encode_ack",
    "encode_busy",
    "encode_error",
    "encode_locate",
    "encode_moved",
    "encode_redirect",
    "peek_load",
    "decode_locate",
    "decode_fetch_many",
    "decode_report_many",
    "decode_fetch_many2",
    "decode_report_many2",
    "decode_response",
    "read_frame",
    "dispatch_frame",
]

#: binary wire version advertised in the register response; version 2
#: added the cseq-stamped FETCH_MANY2/REPORT_MANY2 exactly-once frames
BINPROTO_VERSION = 2

#: first byte of every binary frame; deliberately not ``{``, whitespace, or
#: any byte a JSON line can start with
MAGIC = 0xB1

#: magic + type + seq + payload length
HEADER_SIZE = 10

#: cap on the error text carried in an ERROR frame (and embedded in JSON
#: error responses) — an attacker-controlled payload must not echo back
ERROR_TEXT_MAX = 200

MSG_FETCH_MANY = 0x01
MSG_REPORT_MANY = 0x02
MSG_FETCH_MANY2 = 0x03
MSG_REPORT_MANY2 = 0x04
MSG_LOCATE = 0x05
MSG_POINTS = 0x81
MSG_ACK = 0x82
MSG_REDIRECT = 0x83
MSG_BUSY = 0x84
MSG_MOVED = 0x85
MSG_ERROR = 0x7F

_HEADER = struct.Struct("<BBII")
_BUSY = struct.Struct("<d")
_FETCH_HEAD = struct.Struct("<iIH")
_REPORT_HEAD = struct.Struct("<iiIH")
_FETCH2_HEAD = struct.Struct("<iIiH")
_REPORT2_HEAD = struct.Struct("<iiIiH")
_POINTS_HEAD = struct.Struct("<II")
_ACK = struct.Struct("<II")
_LOCATE_HEAD = struct.Struct("<H")
_REDIRECT_HEAD = struct.Struct("<iHH")


class WireError(ValueError):
    """A malformed binary payload (bad header, size mismatch, over-cap)."""


# -- encoding ---------------------------------------------------------------------


def encode_frame(msg_type: int, seq: int, payload: bytes) -> bytes:
    """Wrap *payload* in the 10-byte binary frame header."""
    return _HEADER.pack(MAGIC, msg_type, seq & 0xFFFFFFFF, len(payload)) + payload


def encode_fetch_many(
    seq: int, session: str, client_id: int, n: int, cseq: int | None = None
) -> bytes:
    """One fetch_many request frame: *n* configurations for *client_id*.

    With *cseq* the frame is the exactly-once v2 variant (one dedup unit
    under the server's per-client high-water mark); without it, the
    classic v1 frame.
    """
    ses = session.encode("utf-8")
    if cseq is None:
        payload = _FETCH_HEAD.pack(client_id, n, len(ses)) + ses
        return encode_frame(MSG_FETCH_MANY, seq, payload)
    payload = _FETCH2_HEAD.pack(client_id, n, cseq, len(ses)) + ses
    return encode_frame(MSG_FETCH_MANY2, seq, payload)


def encode_report_many(
    seq: int,
    session: str,
    client_id: int,
    step: int,
    tokens: np.ndarray,
    times: np.ndarray,
    cseq: int | None = None,
) -> bytes:
    """One report_many request frame: paired token/time arrays.

    With *cseq* the frame is the exactly-once v2 variant — a retry after a
    lost ACK is deduplicated instead of double-counted.
    """
    ses = session.encode("utf-8")
    tokens = np.ascontiguousarray(tokens, dtype="<i4")
    times = np.ascontiguousarray(times, dtype="<f8")
    if cseq is None:
        head = _REPORT_HEAD.pack(client_id, step, tokens.size, len(ses))
        msg_type = MSG_REPORT_MANY
    else:
        head = _REPORT2_HEAD.pack(client_id, step, tokens.size, cseq, len(ses))
        msg_type = MSG_REPORT_MANY2
    payload = b"".join((head, ses, tokens.tobytes(), times.tobytes()))
    return encode_frame(msg_type, seq, payload)


def encode_points(seq: int, tokens: np.ndarray, points: np.ndarray) -> bytes:
    """The fetch_many response: token and point blocks, one frame."""
    points = np.ascontiguousarray(points, dtype="<f8")
    tokens = np.ascontiguousarray(tokens, dtype="<i4")
    n, dim = points.shape
    payload = b"".join(
        (_POINTS_HEAD.pack(n, dim), tokens.tobytes(), points.tobytes())
    )
    return encode_frame(MSG_POINTS, seq, payload)


def encode_ack(seq: int, n_ok: int, n_stale: int) -> bytes:
    """The report_many response: absorbed / stale counts."""
    return encode_frame(MSG_ACK, seq, _ACK.pack(n_ok, n_stale))


def encode_locate(seq: int, session: str) -> bytes:
    """One LOCATE request frame: which shard serves *session*?

    Answered by a fleet coordinator with a REDIRECT frame (or an ERROR
    frame when no live shard can take the session).
    """
    ses = session.encode("utf-8")
    return encode_frame(MSG_LOCATE, seq, _LOCATE_HEAD.pack(len(ses)) + ses)


def decode_locate(payload: bytes) -> str:
    """Decode a LOCATE payload into the session name."""
    if len(payload) < _LOCATE_HEAD.size:
        raise WireError("locate payload shorter than its header")
    (slen,) = _LOCATE_HEAD.unpack_from(payload)
    if len(payload) != _LOCATE_HEAD.size + slen:
        raise WireError(
            f"locate payload is {len(payload)} bytes, "
            f"expected {_LOCATE_HEAD.size + slen}"
        )
    try:
        return payload[_LOCATE_HEAD.size:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"session name is not valid UTF-8: {exc}") from exc


def encode_redirect(seq: int, shard: int, host: str, port: int) -> bytes:
    """One REDIRECT response frame: *session lives on shard at host:port*."""
    raw = host.encode("utf-8")
    return encode_frame(
        MSG_REDIRECT, seq, _REDIRECT_HEAD.pack(shard, port, len(raw)) + raw
    )


def encode_busy(seq: int, retry_after: float) -> bytes:
    """The load-shed response frame: the binary sibling of
    :func:`repro.harmony.protocol.busy_response`.  The payload is one
    float64 — the ``retry_after`` hint in seconds."""
    return encode_frame(MSG_BUSY, seq, _BUSY.pack(float(retry_after)))


def encode_moved(seq: int, session: str) -> bytes:
    """The live-migration tombstone frame: *session* left this shard.

    The binary sibling of :func:`repro.harmony.protocol.moved_response`;
    clients re-resolve through the coordinator instead of retrying here.
    """
    ses = session.encode("utf-8")
    return encode_frame(MSG_MOVED, seq, _LOCATE_HEAD.pack(len(ses)) + ses)


def encode_error(seq: int, text: str) -> bytes:
    """An error frame; the text is capped at :data:`ERROR_TEXT_MAX` bytes."""
    raw = text.encode("utf-8", errors="replace")[:ERROR_TEXT_MAX]
    return encode_frame(MSG_ERROR, seq, raw)


# -- decoding ---------------------------------------------------------------------


def _session_name(payload: bytes, offset: int, slen: int) -> str:
    if len(payload) < offset + slen:
        raise WireError("frame truncated inside the session name")
    try:
        return payload[offset : offset + slen].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"session name is not valid UTF-8: {exc}") from exc


def decode_fetch_many(payload: bytes) -> tuple[int, int, str]:
    """``(client_id, n, session)`` from a FETCH_MANY payload."""
    if len(payload) < _FETCH_HEAD.size:
        raise WireError(
            f"fetch_many payload of {len(payload)} bytes is shorter than "
            f"its {_FETCH_HEAD.size}-byte header"
        )
    client_id, n, slen = _FETCH_HEAD.unpack_from(payload)
    if not 1 <= n <= protocol.MAX_BATCH_MSGS:
        raise WireError(
            f"fetch_many count {n} outside [1, {protocol.MAX_BATCH_MSGS}]"
        )
    session = _session_name(payload, _FETCH_HEAD.size, slen)
    if len(payload) != _FETCH_HEAD.size + slen:
        raise WireError("fetch_many payload has trailing bytes")
    return client_id, n, session


def decode_report_many(
    payload: bytes,
) -> tuple[int, int, str, np.ndarray, np.ndarray]:
    """``(client_id, step, session, tokens, times)`` from a REPORT_MANY payload.

    The token/time arrays are zero-copy ``np.frombuffer`` views over the
    payload (read-only).
    """
    if len(payload) < _REPORT_HEAD.size:
        raise WireError(
            f"report_many payload of {len(payload)} bytes is shorter than "
            f"its {_REPORT_HEAD.size}-byte header"
        )
    client_id, step, n, slen = _REPORT_HEAD.unpack_from(payload)
    if not 1 <= n <= protocol.MAX_BATCH_MSGS:
        raise WireError(
            f"report_many count {n} outside [1, {protocol.MAX_BATCH_MSGS}]"
        )
    session = _session_name(payload, _REPORT_HEAD.size, slen)
    offset = _REPORT_HEAD.size + slen
    expected = offset + 4 * n + 8 * n
    if len(payload) != expected:
        raise WireError(
            f"report_many payload is {len(payload)} bytes, expected {expected}"
        )
    tokens = np.frombuffer(payload, dtype="<i4", count=n, offset=offset)
    times = np.frombuffer(payload, dtype="<f8", count=n, offset=offset + 4 * n)
    return client_id, step, session, tokens, times


def decode_fetch_many2(payload: bytes) -> tuple[int, int, int, str]:
    """``(client_id, n, cseq, session)`` from a FETCH_MANY2 payload."""
    if len(payload) < _FETCH2_HEAD.size:
        raise WireError(
            f"fetch_many2 payload of {len(payload)} bytes is shorter than "
            f"its {_FETCH2_HEAD.size}-byte header"
        )
    client_id, n, cseq, slen = _FETCH2_HEAD.unpack_from(payload)
    if not 1 <= n <= protocol.MAX_BATCH_MSGS:
        raise WireError(
            f"fetch_many2 count {n} outside [1, {protocol.MAX_BATCH_MSGS}]"
        )
    session = _session_name(payload, _FETCH2_HEAD.size, slen)
    if len(payload) != _FETCH2_HEAD.size + slen:
        raise WireError("fetch_many2 payload has trailing bytes")
    return client_id, n, cseq, session


def decode_report_many2(
    payload: bytes,
) -> tuple[int, int, int, str, np.ndarray, np.ndarray]:
    """``(client_id, step, cseq, session, tokens, times)`` from REPORT_MANY2.

    The token/time arrays are zero-copy ``np.frombuffer`` views over the
    payload (read-only).
    """
    if len(payload) < _REPORT2_HEAD.size:
        raise WireError(
            f"report_many2 payload of {len(payload)} bytes is shorter than "
            f"its {_REPORT2_HEAD.size}-byte header"
        )
    client_id, step, n, cseq, slen = _REPORT2_HEAD.unpack_from(payload)
    if not 1 <= n <= protocol.MAX_BATCH_MSGS:
        raise WireError(
            f"report_many2 count {n} outside [1, {protocol.MAX_BATCH_MSGS}]"
        )
    session = _session_name(payload, _REPORT2_HEAD.size, slen)
    offset = _REPORT2_HEAD.size + slen
    expected = offset + 4 * n + 8 * n
    if len(payload) != expected:
        raise WireError(
            f"report_many2 payload is {len(payload)} bytes, expected {expected}"
        )
    tokens = np.frombuffer(payload, dtype="<i4", count=n, offset=offset)
    times = np.frombuffer(payload, dtype="<f8", count=n, offset=offset + 4 * n)
    return client_id, step, cseq, session, tokens, times


def read_frame(file: Any) -> tuple[int, int, bytes]:
    """Read one complete binary frame ``(msg_type, seq, payload)`` from *file*.

    For lock-step clients reading a buffered socket file: a binary request
    always gets a binary response, so no sniffing is needed here.  Raises
    :class:`ConnectionError` on EOF and :class:`WireError` on a corrupt
    header.
    """
    head = file.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        if not head:
            raise ConnectionError("server closed the connection")
        raise ConnectionError("connection closed mid-frame")
    magic, msg_type, seq, length = _HEADER.unpack(head)
    if magic != MAGIC:
        raise WireError(f"expected a binary frame, got leading byte 0x{magic:02x}")
    if length > protocol.MAX_LINE_BYTES:
        raise WireError(f"frame payload of {length} bytes exceeds the frame cap")
    payload = file.read(length)
    if len(payload) < length:
        raise ConnectionError("connection closed mid-frame")
    return msg_type, seq, payload


def decode_response(msg_type: int, payload: bytes) -> tuple[Any, ...]:
    """Decode one server response payload (client side).

    Returns ``("points", tokens, points)``, ``("ack", n_ok, n_stale)``, or
    ``("error", text)``; the array blocks are zero-copy read-only views.
    """
    if msg_type == MSG_POINTS:
        if len(payload) < _POINTS_HEAD.size:
            raise WireError("points payload shorter than its header")
        n, dim = _POINTS_HEAD.unpack_from(payload)
        expected = _POINTS_HEAD.size + 4 * n + 8 * n * dim
        if len(payload) != expected:
            raise WireError(
                f"points payload is {len(payload)} bytes, expected {expected}"
            )
        tokens = np.frombuffer(
            payload, dtype="<i4", count=n, offset=_POINTS_HEAD.size
        )
        points = np.frombuffer(
            payload, dtype="<f8", count=n * dim,
            offset=_POINTS_HEAD.size + 4 * n,
        ).reshape(n, dim)
        return "points", tokens, points
    if msg_type == MSG_ACK:
        if len(payload) != _ACK.size:
            raise WireError(f"ack payload is {len(payload)} bytes, expected {_ACK.size}")
        n_ok, n_stale = _ACK.unpack(payload)
        return "ack", n_ok, n_stale
    if msg_type == MSG_REDIRECT:
        if len(payload) < _REDIRECT_HEAD.size:
            raise WireError("redirect payload shorter than its header")
        shard, port, hlen = _REDIRECT_HEAD.unpack_from(payload)
        if len(payload) != _REDIRECT_HEAD.size + hlen:
            raise WireError(
                f"redirect payload is {len(payload)} bytes, "
                f"expected {_REDIRECT_HEAD.size + hlen}"
            )
        try:
            host = payload[_REDIRECT_HEAD.size:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"redirect host is not valid UTF-8: {exc}") from exc
        return "redirect", shard, host, port
    if msg_type == MSG_BUSY:
        if len(payload) != _BUSY.size:
            raise WireError(
                f"busy payload is {len(payload)} bytes, expected {_BUSY.size}"
            )
        (retry_after,) = _BUSY.unpack(payload)
        return "busy", retry_after
    if msg_type == MSG_MOVED:
        if len(payload) < _LOCATE_HEAD.size:
            raise WireError("moved payload shorter than its header")
        (slen,) = _LOCATE_HEAD.unpack_from(payload)
        if len(payload) != _LOCATE_HEAD.size + slen:
            raise WireError(
                f"moved payload is {len(payload)} bytes, "
                f"expected {_LOCATE_HEAD.size + slen}"
            )
        try:
            session = payload[_LOCATE_HEAD.size:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"moved session is not valid UTF-8: {exc}") from exc
        return "moved", session
    if msg_type == MSG_ERROR:
        return "error", payload[:ERROR_TEXT_MAX].decode("utf-8", errors="replace")
    raise WireError(f"unknown binary response type 0x{msg_type:02x}")


def peek_load(msg_type: int, payload: bytes) -> tuple[int, str | None]:
    """``(weight, session)`` of a request frame, without a full decode.

    Admission control (:mod:`repro.harmony.admission`) prices work in
    message units *before* dispatch, so it needs the batch count and the
    addressed session from just the fixed header.  Malformed payloads
    price as ``(1, None)`` — dispatch will answer them with a proper
    ERROR frame either way.  An empty session name means the default
    session (same convention as :func:`dispatch_frame`).
    """
    try:
        if msg_type in (MSG_FETCH_MANY, MSG_FETCH_MANY2):
            head = _FETCH_HEAD if msg_type == MSG_FETCH_MANY else _FETCH2_HEAD
            fields = head.unpack_from(payload)
            n, slen = fields[1], fields[-1]
            session = _session_name(payload, head.size, slen)
        elif msg_type in (MSG_REPORT_MANY, MSG_REPORT_MANY2):
            head = _REPORT_HEAD if msg_type == MSG_REPORT_MANY else _REPORT2_HEAD
            fields = head.unpack_from(payload)
            n, slen = fields[2], fields[-1]
            session = _session_name(payload, head.size, slen)
        else:
            return 1, None
    except (struct.error, WireError):
        return 1, None
    if not 1 <= n <= protocol.MAX_BATCH_MSGS:
        return 1, None
    from repro.harmony.server import DEFAULT_SESSION

    return int(n), session or DEFAULT_SESSION


# -- mixed-stream framing ---------------------------------------------------------


class FrameSplitter:
    """Incremental splitter for one socket's mixed JSON/binary byte stream.

    Feed raw ``recv`` chunks; get back complete frames, each either
    ``("json", line_bytes)`` (newline stripped, blank lines dropped) or
    ``("bin", msg_type, seq, payload_bytes)``.  The first byte of a frame
    decides: :data:`MAGIC` means binary, anything else means a JSON line.

    Both framings share one size cap: a JSON line or binary payload longer
    than *max_frame_bytes* yields a final ``("oversized",)`` item and sets
    :attr:`oversized` — the stream can no longer be trusted to be in sync,
    so the connection should answer and close, exactly as the JSON-only
    transports always did.
    """

    __slots__ = ("_buf", "max_frame_bytes", "oversized")

    def __init__(self, max_frame_bytes: int = protocol.MAX_LINE_BYTES) -> None:
        self._buf = bytearray()
        self.max_frame_bytes = max_frame_bytes
        self.oversized = False

    def feed(self, data: bytes) -> list[tuple]:
        """Absorb *data*; return every frame completed by it, in order."""
        if self.oversized:
            return []
        buf = self._buf
        buf += data
        out: list[tuple] = []
        pos = 0
        end = len(buf)
        while pos < end:
            if buf[pos] == MAGIC:
                if end - pos < HEADER_SIZE:
                    break
                _magic, msg_type, seq, length = _HEADER.unpack_from(buf, pos)
                if length > self.max_frame_bytes:
                    self.oversized = True
                    out.append(("oversized",))
                    break
                if end - pos < HEADER_SIZE + length:
                    break
                start = pos + HEADER_SIZE
                out.append(("bin", msg_type, seq, bytes(buf[start : start + length])))
                pos = start + length
            else:
                idx = buf.find(b"\n", pos)
                if idx < 0:
                    if end - pos > self.max_frame_bytes:
                        self.oversized = True
                        out.append(("oversized",))
                    break
                if idx - pos > self.max_frame_bytes:
                    self.oversized = True
                    out.append(("oversized",))
                    break
                line = bytes(buf[pos:idx])
                pos = idx + 1
                if line.strip():
                    out.append(("json", line))
        del buf[:pos]
        if self.oversized:
            self._buf = bytearray()
        return out


# -- server-side dispatch ---------------------------------------------------------


def _lookup_session(server: Any, name: str):
    """Resolve a session the way the dict protocol does (empty = default)."""
    from repro.harmony.server import DEFAULT_SESSION, SessionMovedAway

    resolved = name or DEFAULT_SESSION
    session = server.session(resolved)
    if session is None:
        moved = getattr(server, "moved_sessions", None)
        if moved is not None and resolved in moved():
            raise SessionMovedAway(resolved)
        raise LookupError(
            f"no such session {name!r}; open it with op 'open_session'"
        )
    return session


def dispatch_frame(server: Any, msg_type: int, seq: int, payload: bytes) -> bytes:
    """Route one binary frame to *server*; always returns a response frame.

    The binary sibling of :func:`repro.harmony.protocol.dispatch`: *server*
    is a :class:`~repro.harmony.server.TuningServer` (duck-typed).  Errors
    of any kind — malformed payloads, unknown sessions, invalid
    measurements — come back as an ERROR frame with the text capped at
    :data:`ERROR_TEXT_MAX` bytes; the server never dies on a frame.  A
    session exported by live migration answers with a MOVED frame instead,
    so clients re-resolve rather than surface an error.
    """
    from repro.harmony.server import SessionMovedAway

    try:
        if msg_type == MSG_FETCH_MANY:
            client_id, n, name = decode_fetch_many(payload)
            session = _lookup_session(server, name)
            points, tokens = session.fetch_many_arrays(n)
            observe = getattr(server, "observe_binary", None)
            if observe is not None:
                observe("fetch_many", n)
            return encode_points(seq, tokens, points)
        if msg_type == MSG_REPORT_MANY:
            client_id, step, name, tokens, times = decode_report_many(payload)
            session = _lookup_session(server, name)
            n_ok, n_stale = session.report_many_arrays(
                tokens, times, client_id=client_id, step=step
            )
            observe = getattr(server, "observe_binary", None)
            if observe is not None:
                observe("report_many", tokens.size)
            return encode_ack(seq, n_ok, n_stale)
        if msg_type == MSG_FETCH_MANY2:
            client_id, n, cseq, name = decode_fetch_many2(payload)
            session = _lookup_session(server, name)
            points, tokens = session.fetch_many_arrays(
                n, client_id=client_id, cseq=cseq if cseq >= 0 else None
            )
            observe = getattr(server, "observe_binary", None)
            if observe is not None:
                observe("fetch_many", n)
            return encode_points(seq, tokens, points)
        if msg_type == MSG_REPORT_MANY2:
            client_id, step, cseq, name, tokens, times = decode_report_many2(payload)
            session = _lookup_session(server, name)
            n_ok, n_stale = session.report_many_arrays(
                tokens, times, client_id=client_id, step=step,
                cseq=cseq if cseq >= 0 else None,
            )
            observe = getattr(server, "observe_binary", None)
            if observe is not None:
                observe("report_many", tokens.size)
            return encode_ack(seq, n_ok, n_stale)
        if msg_type == MSG_LOCATE:
            name = decode_locate(payload)
            locate = getattr(server, "locate", None)
            if locate is None:
                return encode_error(seq, "this server does not route sessions")
            shard, host, port = locate(name)
            return encode_redirect(seq, shard, host, port)
        return encode_error(seq, f"unknown binary frame type 0x{msg_type:02x}")
    except SessionMovedAway as exc:
        return encode_moved(seq, exc.session)
    except Exception as exc:  # protocol boundary: never let the server die
        return encode_error(seq, f"{type(exc).__name__}: {exc}")


def iter_frames(stream: Iterable[bytes]) -> Iterable[tuple]:
    """Split an iterable of byte chunks into frames (testing convenience)."""
    splitter = FrameSplitter()
    for chunk in stream:
        yield from splitter.feed(chunk)
