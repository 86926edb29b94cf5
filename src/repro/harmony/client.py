"""The application-side tuning API (the Active Harmony client role).

Minimal-change integration, mirroring the paper's description: the
application declares its tunable parameters once, then brackets each
iteration of its main loop with ``fetch`` / ``report``:

.. code-block:: python

    client = TuningClient(transport)
    client.register(space)
    for step in range(n_steps):
        config = client.fetch()
        elapsed = run_one_iteration(**client.as_dict(config))
        client.report(elapsed, step=step)

An SPMD application driving P processors from one rank can amortize the
round trips with the plural forms — one wire frame instead of P::

    configs = client.fetch_many(P)
    times = [run(c) for c in configs]
    client.report_many(times, step=step)

Pass ``session="name"`` to address a named session on a multi-session
server (the default session otherwise).  Everything else — search strategy,
multi-sampling, estimator — lives on the server.

Durability: pass ``transport_factory`` (a zero-argument callable returning
a fresh connected transport) and the client survives connection loss and
server restarts.  Every fetch/report is stamped with a client sequence
number (``cseq``); on a connection error the client reconnects, re-registers
under its registration nonce (recovering the *same* client id from a server
rebuilt by WAL replay — see :mod:`repro.harmony.wal`), replays any unacked
reports, and retries the interrupted call with its original stamp.  The
server's per-client high-water mark makes all of that exactly-once: a retry
of an already-applied request is answered from the reply cache, so neither
measurements nor assignments are duplicated.
"""

from __future__ import annotations

import time
import uuid
from collections import OrderedDict
from itertools import count
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.harmony.protocol import (
    DEFAULT_RETRY_AFTER_S,
    PROTOCOL_VERSION,
    ServerBusy,
    SessionMoved,
)
from repro.harmony.transport import Transport, n_wire_chunks
from repro.space import ParameterSpace
from repro.space.serialize import space_to_spec

__all__ = ["ServerBusy", "ServerRedirect", "SessionMoved", "TuningClient"]


class ServerRedirect(RuntimeError):
    """The server answered "not here — ask that shard".

    Raised when a session op reaches a fleet coordinator (or any server
    that routes rather than serves): the error envelope carries a
    ``redirect`` field naming the owning shard.  Clients built with
    :func:`repro.fleet.fleet_client` never see this — their transport
    factory resolves through the coordinator up front — but a client
    pointed straight at the coordinator by mistake gets an actionable
    address instead of an opaque error string.
    """

    def __init__(self, message: str, *, shard: int, host: str, port: int) -> None:
        super().__init__(f"{message} (redirect: shard {shard} at {host}:{port})")
        self.shard = int(shard)
        self.host = str(host)
        self.port = int(port)


class TuningClient:
    """One application process's handle on the tuning service."""

    def __init__(
        self,
        transport: Transport | None = None,
        *,
        session: str | None = None,
        transport_factory: Callable[[], Transport] | None = None,
        nonce: str | None = None,
        reconnect_attempts: int = 8,
        reconnect_delay: float = 0.1,
        busy_retries: int = 16,
        busy_backoff_cap: float = 2.0,
    ) -> None:
        if transport is None:
            if transport_factory is None:
                raise ValueError("need a transport or a transport_factory")
            transport = transport_factory()
        self.transport = transport
        self.session = session
        self.client_id: int | None = None
        self.space: ParameterSpace | None = None
        self._last_token: int | None = None
        self._last_point: np.ndarray | None = None
        self._many_tokens: list[int] | np.ndarray | None = None
        #: True once the register handshake has negotiated the binary wire
        #: (server advertised ``binproto`` and the transport can speak it)
        self._binproto = False
        self._binproto_version = 0
        self._factory = transport_factory
        #: identifies this client across reconnects: re-registering with
        #: the same nonce returns the same client id instead of minting one
        self._nonce = nonce if nonce is not None else uuid.uuid4().hex
        self._reconnect_attempts = int(reconnect_attempts)
        self._reconnect_delay = float(reconnect_delay)
        #: how many ``busy`` sheds to absorb per call before giving up, and
        #: the ceiling on the exponential backoff between those retries
        self.busy_retries = int(busy_retries)
        self._busy_backoff_cap = float(busy_backoff_cap)
        #: total ``busy`` sheds absorbed (retried) over this client's life
        self.busy_seen = 0
        self._cseq = count()
        #: unacked reports, cseq -> replay closure; replayed (in order, and
        #: deduplicated server-side) after every reconnect
        self._pending: "OrderedDict[int, Callable[[], None]]" = OrderedDict()

    def _message(self, message: dict) -> dict:
        if self.session is not None:
            message["session"] = self.session
        return message

    def _check(self, response: Mapping[str, object]) -> dict:
        if not response.get("ok", False):
            redirect = response.get("redirect")
            if isinstance(redirect, Mapping):
                raise ServerRedirect(
                    f"tuning server error: {response.get('error')}",
                    shard=redirect.get("shard", -1),
                    host=redirect.get("host", ""),
                    port=redirect.get("port", 0),
                )
            if response.get("busy"):
                retry_after = response.get("retry_after", DEFAULT_RETRY_AFTER_S)
                if not isinstance(retry_after, (int, float)):
                    retry_after = DEFAULT_RETRY_AFTER_S
                raise ServerBusy(retry_after=retry_after)
            if response.get("moved"):
                raise SessionMoved(str(response.get("session", "")))
            raise RuntimeError(f"tuning server error: {response.get('error')}")
        return dict(response)

    def _call(self, message: Mapping[str, object]) -> dict:
        return self._check(self.transport.request(self._message(dict(message))))

    def _call_many(self, messages: Sequence[dict]) -> list[dict]:
        tagged = [self._message(m) for m in messages]
        return [self._check(r) for r in self.transport.request_many(tagged)]

    # -- reconnect-and-resume --------------------------------------------------

    def _next_cseq(self) -> int:
        return next(self._cseq)

    def _retriable(self, fn: Callable[[], Any]) -> Any:
        """Run *fn*, retrying on connection loss and on load shedding.

        Only usable for idempotent calls (everything cseq-stamped): the
        retry reuses the original stamps, so a request that was applied
        right before the connection died is answered from the server's
        reply cache, not applied twice.  A ``busy`` shed backs off starting
        at the server's ``retry_after`` hint, doubling up to the configured
        cap, on a budget separate from the reconnect attempts.
        """
        attempts = self._reconnect_attempts if self._factory is not None else 0
        conn_failures = 0
        busy_left = self.busy_retries
        busy_delay: float | None = None
        while True:
            try:
                return fn()
            except ServerBusy as exc:
                if busy_left <= 0:
                    raise
                busy_left -= 1
                self.busy_seen += 1
                if busy_delay is None:
                    busy_delay = max(0.0, exc.retry_after)
                else:
                    busy_delay = min(busy_delay * 2.0, self._busy_backoff_cap)
                time.sleep(min(busy_delay, self._busy_backoff_cap))
            except (ConnectionError, OSError, TimeoutError) as exc:
                if conn_failures >= attempts:
                    raise
                conn_failures += 1
                if isinstance(exc, SessionMoved):
                    self._invalidate_route()
                self._reconnect()

    def _invalidate_route(self) -> None:
        """Drop the transport factory's cached route, if it keeps one.

        A :class:`SessionMoved` answer means the cached shard address is
        stale by construction; a factory with an ``invalidate()`` hook
        (:class:`repro.fleet.client.FleetResolver`) re-resolves through
        the coordinator on the next dial.
        """
        invalidate = getattr(self._factory, "invalidate", None)
        if invalidate is not None:
            invalidate()

    def _reconnect(self) -> None:
        """Dial a fresh transport, resume our identity, replay unacked work."""
        assert self._factory is not None
        try:
            self.transport.close()
        except Exception:
            pass
        delay = self._reconnect_delay
        last: Exception | None = None
        for _ in range(max(1, self._reconnect_attempts)):
            try:
                self.transport = self._factory()
                if self.client_id is not None:
                    self._register_message(resume=True)
                for replay in list(self._pending.values()):
                    replay()
                return
            except (ConnectionError, OSError, TimeoutError) as exc:
                last = exc
                if isinstance(exc, SessionMoved):
                    # The replayed work (or the re-register) hit a shard the
                    # session just left: re-resolve before the next attempt.
                    self._invalidate_route()
                time.sleep(delay)
                delay = min(delay * 2, 2.0)
        raise ConnectionError(f"reconnect failed after retries: {last}")

    def _register_message(self, *, resume: bool) -> dict:
        message: dict = {
            "op": "register",
            "version": PROTOCOL_VERSION,
            "nonce": self._nonce,
        }
        if self.space is not None:
            message["params"] = space_to_spec(self.space)
        if resume and self.client_id is not None:
            message["resume"] = self.client_id
        response = self._call(message)
        self.client_id = int(response["client_id"])
        self._binproto_version = int(response.get("binproto") or 0)
        self._binproto = self._binproto_version > 0 and getattr(
            self.transport, "supports_binary", False
        )
        return response

    # -- lifecycle ------------------------------------------------------------

    def register(self, space: ParameterSpace) -> int:
        """Declare the tunable parameters; returns the assigned client id."""
        self.space = space
        self._retriable(lambda: self._register_message(resume=False))
        assert self.client_id is not None
        return self.client_id

    def open_session(self, name: str, *, k: int | None = None,
                     estimator: str | None = None) -> bool:
        """Create session *name* on the server and address it from now on.

        Returns True when the session was newly created (idempotent —
        reopening an existing session just switches to it).  ``k`` and
        ``estimator`` (``min``/``mean``/``median``) configure the session's
        multi-sampling plan; omitted, it inherits the server default.
        """
        message: dict = {"op": "open_session", "session": name}
        if k is not None:
            message["k"] = int(k)
        if estimator is not None:
            message["estimator"] = estimator
        response = self._retriable(
            lambda: self._check(self.transport.request(message))
        )
        self.session = name
        self.client_id = None  # a session change requires a fresh register
        self._nonce = uuid.uuid4().hex  # a fresh identity in the new session
        return bool(response.get("created", False))

    # -- the per-iteration protocol ------------------------------------------------

    def fetch(self) -> np.ndarray:
        """Get the configuration to run the next application time step with."""
        if self.client_id is None:
            raise RuntimeError("call register() before fetch()")
        cseq = self._next_cseq()
        response = self._retriable(
            lambda: self._call(
                {"op": "fetch", "client_id": self.client_id, "cseq": cseq}
            )
        )
        self._last_token = int(response["token"])
        self._last_point = np.asarray(response["point"], dtype=float)
        return self._last_point.copy()

    def report(self, elapsed: float, *, step: int = -1) -> None:
        """Report the measured duration of the step run with the last fetch."""
        if self.client_id is None or self._last_token is None:
            raise RuntimeError("report() requires a preceding fetch()")
        cseq = self._next_cseq()
        message = {
            "op": "report",
            "token": self._last_token,
            "time": float(elapsed),
            "step": int(step),
            "cseq": cseq,
        }

        def send() -> None:
            self._call(dict(message, client_id=self.client_id))

        self._send_report(cseq, send)
        self._last_token = None

    def _send_report(self, key: int | None, send: Callable[[], Any]) -> None:
        """Run *send* until acked, queued for replay under its first cseq.

        Pending until acked: if every retry fails the report stays queued
        and is replayed (idempotently) after the next successful reconnect.
        A busy shed is different — the server refused the work, so there
        is nothing to replay; the caller keeps its tokens and may retry.
        An unstamped report (*key* None) is never replayed.
        """
        if key is not None:
            self._pending[key] = send
        try:
            self._retriable(send)
        except ServerBusy:
            self._pending.pop(key, None)
            raise
        self._pending.pop(key, None)

    # -- the batched protocol ------------------------------------------------------

    def fetch_many(self, n: int) -> list[np.ndarray]:
        """Fetch *n* configurations in one round trip (one per processor).

        Pairs with :meth:`report_many`; the transport carries the group as
        a single batch frame when it can (TCP transports), so the cost is
        one syscall-and-RTT instead of *n*.
        """
        if self.client_id is None:
            raise RuntimeError("call register() before fetch_many()")
        if n < 1:
            raise ValueError(f"fetch_many needs n >= 1, got {n}")
        if self._binproto:
            cseqs = (
                [self._next_cseq() for _ in range(n_wire_chunks(n))]
                if self._binproto_version >= 2 else None
            )
            points, tokens = self._retriable(
                lambda: self.transport.fetch_many_wire(
                    self.session or "", self.client_id, n, cseqs=cseqs
                )
            )
            self._many_tokens = tokens
            # Copy out of the zero-copy receive buffer: callers own (and may
            # mutate) their configurations, exactly as on the JSON path.
            return [np.array(row, dtype=float) for row in points]
        messages = [
            {"op": "fetch", "client_id": self.client_id, "cseq": self._next_cseq()}
            for _ in range(n)
        ]
        responses = self._retriable(lambda: self._call_many(messages))
        self._many_tokens = [int(r["token"]) for r in responses]
        return [np.asarray(r["point"], dtype=float) for r in responses]

    def report_many(self, elapsed: Sequence[float], *, step: int = -1) -> None:
        """Report one measurement per configuration of the last :meth:`fetch_many`."""
        if self._many_tokens is None:
            raise RuntimeError("report_many() requires a preceding fetch_many()")
        if len(elapsed) != len(self._many_tokens):
            raise ValueError(
                f"got {len(elapsed)} measurements for {len(self._many_tokens)} "
                "fetched configurations"
            )
        if self._binproto:
            tokens = np.asarray(self._many_tokens, dtype=np.int32)
            times = np.asarray(elapsed, dtype=float)
            cseqs = (
                [self._next_cseq() for _ in range(n_wire_chunks(tokens.size))]
                if self._binproto_version >= 2 else None
            )

            def send() -> None:
                self.transport.report_many_wire(
                    self.session or "",
                    int(self.client_id if self.client_id is not None else -1),
                    int(step), tokens, times, cseqs=cseqs,
                )

            key = cseqs[0] if cseqs else None
        else:
            messages = [
                {
                    "op": "report",
                    "token": token,
                    "time": float(t),
                    "step": int(step),
                    "cseq": self._next_cseq(),
                }
                for token, t in zip(self._many_tokens, elapsed)
            ]

            def send() -> None:
                self._call_many(
                    [dict(m, client_id=self.client_id) for m in messages]
                )

            key = messages[0]["cseq"] if messages else None
        self._send_report(key, send)
        self._many_tokens = None

    # -- queries ----------------------------------------------------------------------

    def best(self) -> tuple[np.ndarray, float, bool]:
        """Current incumbent: (point, estimate, converged)."""
        response = self._retriable(lambda: self._call({"op": "best"}))
        return (
            np.asarray(response["point"], dtype=float),
            float(response["value"]),
            bool(response["converged"]),
        )

    def status(self) -> dict:
        """The addressed session's progress counters."""
        return self._retriable(lambda: self._call({"op": "status"}))

    def as_dict(self, point: Sequence[float]) -> dict[str, float]:
        """Convert a fetched point into named parameter values."""
        if self.space is None:
            raise RuntimeError("register() first so the client knows the space")
        return self.space.as_dict(point)
