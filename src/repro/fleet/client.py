"""Client-side fleet routing: resolve a session through the coordinator.

:class:`FleetResolver` is a *transport factory* — exactly the shape
:class:`~repro.harmony.client.TuningClient` already takes for reconnects
— that asks the coordinator ``locate`` for the session's owning shard and
dials it.  Because the client calls the factory afresh on every reconnect,
re-resolution after a shard death comes for free: the dial fails, the
client's retry loop calls the factory again, and the resolver passes the
dead shard as an ``unreachable`` hint so the coordinator probes (and
re-homes) it immediately instead of waiting out the lease.

The resolver caches its last successful resolution, so steady-state
reconnects dial the owning shard directly and *skip the coordinator
round-trip entirely* (``cache_hits`` vs ``locates`` counters witness
this).  The cache is invalidated when the shard stops answering — a
failed dial, or a ``moved`` tombstone surfaced by the client as
:class:`~repro.harmony.client.SessionMoved`, which calls
:meth:`FleetResolver.invalidate` before reconnecting — and the next call
falls back to a fresh ``locate``, chasing the session to its new owner.
"""

from __future__ import annotations

from typing import Any

from repro.harmony.client import TuningClient
from repro.harmony.transport import TcpClientTransport

__all__ = ["FleetResolver", "fleet_client"]


class FleetResolver:
    """Callable transport factory that routes *session* via the coordinator."""

    def __init__(
        self,
        host: str,
        port: int,
        session: str,
        *,
        timeout: float = 10.0,
        locate_timeout: float = 5.0,
        dial_attempts: int = 3,
    ) -> None:
        if not session:
            raise ValueError("FleetResolver needs a non-empty session name")
        self._coordinator = (str(host), int(port))
        self.session = session
        self._timeout = float(timeout)
        self._locate_timeout = float(locate_timeout)
        self._dial_attempts = max(1, int(dial_attempts))
        #: (shard, host, port) of the last successful resolution
        self.last_shard: tuple[int, str, int] | None = None
        self._unreachable: int | None = None
        #: cached route: dial here first, skipping the coordinator
        self._cached: tuple[int, str, int] | None = None
        #: coordinator ``locate`` round-trips performed
        self.locates = 0
        #: dials served straight from the cached route
        self.cache_hits = 0

    def invalidate(self) -> None:
        """Drop the cached route; the next dial re-resolves via ``locate``.

        The client calls this (duck-typed through its transport factory)
        when a shard answers with a ``moved`` tombstone.
        """
        self._cached = None

    def resolve(self) -> tuple[int, str, int]:
        """Ask the coordinator where the session lives now."""
        self.locates += 1
        message: dict[str, Any] = {"op": "locate", "session": self.session}
        if self._unreachable is not None:
            message["unreachable"] = self._unreachable
        transport = TcpClientTransport(
            self._coordinator[0], self._coordinator[1],
            timeout=self._locate_timeout,
        )
        try:
            response = transport.request(message)
        finally:
            transport.close()
        if not response.get("ok") or "redirect" not in response:
            raise ConnectionError(
                f"coordinator could not locate session {self.session!r}: "
                f"{response.get('error', 'no redirect in response')}"
            )
        redirect = response["redirect"]
        return int(redirect["shard"]), str(redirect["host"]), int(redirect["port"])

    def __call__(self):
        if self._cached is not None:
            shard, host, port = self._cached
            try:
                transport = TcpClientTransport(host, port, timeout=self._timeout)
            except OSError:
                # The cached shard stopped answering: forget the route and
                # re-resolve below, telling the coordinator who failed.
                self.invalidate()
                self._unreachable = shard
            else:
                self.cache_hits += 1
                self.last_shard = (shard, host, port)
                return transport
        for attempt in range(self._dial_attempts):
            shard, host, port = self.resolve()
            try:
                transport = TcpClientTransport(host, port, timeout=self._timeout)
            except OSError:
                # The shard the coordinator pointed us at does not answer.
                # Re-resolve with the failure as a hint: the coordinator
                # probes the shard, expires it if it really is dead, and
                # re-homes its sessions — so the *next* resolve points at
                # a live survivor, usually on the very next attempt.
                self._unreachable = shard
                if attempt == self._dial_attempts - 1:
                    raise ConnectionError(
                        f"shard {shard} at {host}:{port} is unreachable"
                    )
                continue
            self._unreachable = None
            self.last_shard = (shard, host, port)
            self._cached = (shard, host, port)
            return transport


def fleet_client(
    host: str,
    port: int,
    session: str,
    *,
    timeout: float = 10.0,
    **client_kwargs: Any,
) -> TuningClient:
    """A :class:`TuningClient` bound to *session*, routed by the coordinator
    at ``host:port``.  Extra kwargs go to the ``TuningClient`` constructor
    (``nonce``, ``reconnect_attempts``, ...)."""
    resolver = FleetResolver(host, port, session, timeout=timeout)
    return TuningClient(
        transport_factory=resolver, session=session, **client_kwargs
    )
