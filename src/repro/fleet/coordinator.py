"""The fleet coordinator: durable session routing, leases, and re-homing.

One coordinator process owns the :class:`~repro.fleet.registry.FleetRegistry`
(durably, through the same WAL machinery the serving stack uses) and speaks
the ordinary dict-message protocol, so it sits behind the stock TCP
transport unchanged.  Shard :class:`~repro.harmony.server.TuningServer`
processes register with it and renew leases with heartbeats; clients ask it
``locate`` and get redirected to the shard that owns (or is newly assigned)
their session.

**Ops** (see ``docs/API.md`` "Fleet" for the full table)::

    register_shard   a shard announces {host, port, wal_dir}; the response
                     carries its shard id and the lease duration
    heartbeat        renew the lease; ``alive: false`` in the response
                     tells a shard its lease was revoked (it must stop
                     serving — its sessions have been re-homed)
    locate           resolve a session name to a shard address; unowned
                     sessions are assigned to the least-loaded live shard.
                     An ``unreachable: <shard>`` hint (sent by a client
                     whose dial failed) triggers an immediate TCP probe,
                     so a dead shard is detected at client speed instead
                     of lease speed
    fleet_status     registry summary (shards, liveness, ownership)
    expire_shard     operator/test hook: revoke a lease now
    metrics          MetricsRegistry snapshot (like the tuning server's)

**Re-homing.**  When a shard's lease expires (or a probe finds it dead),
its sessions are recovered *by the coordinator* from the shard's WAL
directory (:func:`repro.harmony.wal.recover_server` — shared storage is
assumed, as in any one-box or NFS fleet), serialized with the per-session
``state_dict`` machinery, and pushed to surviving shards with the
``adopt_session`` op.  Because the state dict carries the tuner, the
in-flight batch, and the per-client exactly-once state, a client that
reconnects (re-resolving through ``locate``) resumes against the survivor
bit-identically — the same guarantee the single-server crash battery
proves, lifted to the fleet.  Shards without a WAL directory re-home as
*fresh* sessions (available, but with search state lost).

**Rebalancing.**  With a :class:`~repro.fleet.rebalance.RebalancePlanner`
attached, the coordinator also moves sessions *proactively*: shard
heartbeats carry load reports (per-session smoothed request rates), the
planner detects sustained skew, and the coordinator drains the hottest
sessions onto quiet shards with the ``export_session`` → ``adopt_session``
live-migration pair (see :meth:`FleetCoordinator._migrate_locked`).  The
source quiesces the session under its lock and hands over the full state
dict — tuner, in-flight batch, reply caches, nonces — so the move is
lossless and exactly-once survives it; clients chasing the source's
``moved`` tombstone re-resolve through ``locate`` and land on the new
owner.  Planner commands are WAL-logged as ``{"t": "plan", "c": ...}``
records in the registry WAL, so a coordinator restart recovers the
planner (cooldowns, hysteresis streak) along with the ownership map.

Session-addressed ops sent to the coordinator by mistake are answered with
an ``ok: false`` response carrying a ``redirect`` field, which the client
surfaces as :class:`repro.harmony.client.ServerRedirect`.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Mapping

from repro.fleet.registry import FleetRegistry, recover_registry
from repro.harmony.protocol import error_response, redirect_response

__all__ = ["FleetCoordinator"]

#: session-addressed ops the coordinator answers with a redirect error
_SESSION_OPS = frozenset({
    "register", "fetch", "report", "best", "status", "requeue",
    "checkpoint", "restore", "open_session",
})


class FleetCoordinator:
    """Routes tuning sessions across registered shard servers.

    Duck-typed like a :class:`~repro.harmony.server.TuningServer` where the
    transport cares (``handle`` / ``commit_wal`` / ``flush_wal``), so it is
    hosted behind :class:`~repro.harmony.aio.AsyncTcpServerTransport`
    unchanged.  *tuner_factory* / *plan* must match what the shard servers
    were launched with — they are what :func:`~repro.harmony.wal.
    recover_server` needs to resurrect a dead shard's sessions for
    migration.  *clock* is injectable for tests; all lease arithmetic goes
    through it.
    """

    def __init__(
        self,
        tuner_factory: Callable | None = None,
        *,
        plan: Any | None = None,
        lease_s: float = 5.0,
        wal_dir: Any | None = None,
        sync: str = "batch",
        metrics: Any | None = None,
        tracer: Any | None = None,
        probe_timeout: float = 0.25,
        adopt_timeout: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
        rebalance: Any | None = None,
    ) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        self._tuner_factory = tuner_factory
        self._plan = plan
        #: optional :class:`~repro.fleet.rebalance.RebalancePlanner`
        self.planner = rebalance
        self.lease_s = float(lease_s)
        self.metrics = metrics
        self.tracer = tracer
        self.probe_timeout = float(probe_timeout)
        self.adopt_timeout = float(adopt_timeout)
        self._clock = clock
        self._lock = threading.RLock()
        self._wal: Any | None = None
        self._checker: threading.Thread | None = None
        self._checker_stop = threading.Event()
        if wal_dir is not None:
            self.registry, self._wal, stats = recover_registry(
                wal_dir, sync=sync, planner=self.planner,
            )
            # Migrations in flight when the old process died never finished
            # their transfer; mark them failed so the planner can try again.
            if self.planner is not None:
                for name in sorted(self.planner.inflight):
                    self._apply_plan({"c": "complete", "session": name, "ok": False})
            # Restart grace: the old process's monotonic lease clocks are
            # meaningless here, so every shard that was alive gets one fresh
            # lease (logged, so a replay of this log is still deterministic)
            # and must prove itself with a heartbeat before it expires.
            now = self._clock()
            for shard in self.registry.alive_shards():
                self._apply({
                    "c": "heartbeat", "shard": shard, "until": now + self.lease_s,
                })
            if stats.get("replayed") or stats.get("records"):
                self._emit(
                    "wal.recover",
                    records=int(stats.get("replayed", 0)),
                    snapshot=stats.get("records", 0) > stats.get("replayed", 0),
                    torn=stats.get("torn") is not None,
                    sessions=sorted(self.registry.sessions),
                )
        else:
            self.registry = FleetRegistry()

    # -- observability ------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.emit(kind, **fields)

    def _inc(self, name: str, by: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, by)

    def observe_shed(self, n_msgs: int) -> None:
        """Transport hook: *n_msgs* messages were refused with ``busy``."""
        self._inc("fleet.shed_msgs", n_msgs)
        self._inc("fleet.shed_events")

    # -- the logged mutation path --------------------------------------------------

    def _snapshot_state(self) -> dict:
        """What a WAL snapshot record carries: registry (+ planner) state."""
        if self.planner is None:
            return self.registry.state_dict()
        return {
            "registry": self.registry.state_dict(),
            "planner": self.planner.state_dict(),
        }

    def _apply(self, cmd: dict) -> dict:
        """Apply one registry command and append it to the WAL (if attached).

        Ignored commands (``applied: False``) are *not* logged — they did
        not change state, and logging them would make the log replay
        sensitive to races that never mutated anything.
        """
        result = self.registry.apply(cmd)
        if result.get("applied") and self._wal is not None:
            self._wal.append({"t": "fleet", "c": cmd})
            if self._wal.should_snapshot():
                self._wal.snapshot(self._snapshot_state())
        return result

    def _apply_plan(self, cmd: dict) -> dict:
        """Apply one planner command and append it to the WAL (if attached)."""
        result = self.planner.apply(cmd)
        if result.get("applied") and self._wal is not None:
            self._wal.append({"t": "plan", "c": cmd})
            if self._wal.should_snapshot():
                self._wal.snapshot(self._snapshot_state())
        return result

    # -- WAL surface the transports expect ----------------------------------------

    def commit_wal(self) -> None:
        if self._wal is not None:
            self._wal.commit()

    def flush_wal(self) -> None:
        if self._wal is not None:
            self._wal.flush()

    def close_wal(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    # -- lease expiry --------------------------------------------------------------

    def start_lease_checker(self, interval: float | None = None) -> None:
        """Run :meth:`check_leases` on a daemon thread every *interval* s."""
        if self._checker is not None:
            return
        interval = interval if interval is not None else self.lease_s / 4.0
        self._checker_stop.clear()

        def loop() -> None:
            while not self._checker_stop.wait(max(0.01, interval)):
                try:
                    self.check_leases()
                except Exception:  # pragma: no cover - keep the checker alive
                    pass
                try:
                    self.check_rebalance()
                except Exception:  # pragma: no cover - keep the checker alive
                    pass

        self._checker = threading.Thread(target=loop, daemon=True)
        self._checker.start()

    def stop(self) -> None:
        """Stop the lease checker and close the registry WAL."""
        self._checker_stop.set()
        if self._checker is not None:
            self._checker.join(timeout=2.0)
            self._checker = None
        self.close_wal()

    def check_leases(self, now: float | None = None) -> list[int]:
        """Expire (and re-home) every shard whose lease ran out; returns them."""
        now = self._clock() if now is None else now
        with self._lock:
            expired = self.registry.expired(now)
            for shard in expired:
                self._expire_and_rehome(shard)
            return expired

    def _probe_shard(self, shard: int) -> None:
        """TCP-probe a supposedly-live shard; expire + re-home it if dead."""
        with self._lock:
            info = self.registry.shards.get(shard)
            if info is None or not info["alive"]:
                return
            try:
                socket.create_connection(
                    (info["host"], info["port"]), timeout=self.probe_timeout
                ).close()
            except OSError:
                self._inc("fleet.probe_failures")
                self._expire_and_rehome(shard)

    # -- re-homing ----------------------------------------------------------------

    def _recover_shard_states(
        self, wal_dir: Any, sessions: list[str]
    ) -> dict[str, dict]:
        """Resurrect a dead shard's sessions from its WAL; name -> state_dict."""
        if wal_dir is None or self._tuner_factory is None or not sessions:
            return {}
        from repro.harmony.wal import recover_server

        try:
            recovered = recover_server(
                self._tuner_factory, wal_dir, plan=self._plan, binproto=False,
            )
        except Exception:  # pragma: no cover - unreadable WAL: re-home fresh
            return {}
        states: dict[str, dict] = {}
        try:
            for name in sessions:
                session = recovered.session(name)
                if session is not None and session.can_snapshot():
                    states[name] = session.state_dict()
        finally:
            recovered.close_wal()
        return states

    def _expire_and_rehome(self, shard: int) -> None:
        """Revoke *shard*'s lease and migrate its sessions to survivors.

        Caller holds (or this method takes) the coordinator lock for the
        whole migration, so a concurrent ``locate`` never observes a
        half-moved session.  Sessions whose state cannot be recovered (no
        WAL directory) are re-homed *fresh* — reachable again, but their
        search restarts.  With no surviving shard the mappings stay put;
        a later ``locate`` retries the migration once a shard is back.
        """
        from repro.harmony.transport import TcpClientTransport

        with self._lock:
            info = self.registry.shards.get(shard)
            if info is None or not info["alive"]:
                return
            self._apply({"c": "expire", "shard": shard})
            self._inc("fleet.expired_shards")
            sessions = self.registry.sessions_on(shard)
            self._emit("fleet.expire", shard=shard, sessions=sessions)
            if not sessions or not self.registry.alive_shards():
                return
            states = self._recover_shard_states(info.get("wal_dir"), sessions)
            transports: dict[int, Any] = {}
            try:
                for name in sessions:
                    target = self.registry.least_loaded()
                    if target is None:  # pragma: no cover - all died mid-move
                        break
                    transport = transports.get(target)
                    if transport is None:
                        tinfo = self.registry.shards[target]
                        try:
                            transport = TcpClientTransport(
                                tinfo["host"], tinfo["port"],
                                timeout=self.adopt_timeout,
                            )
                        except OSError:
                            # The target is gone too; probe it on its own
                            # (which re-homes *its* sessions) and move on.
                            self._probe_shard(target)
                            continue
                        transports[target] = transport
                    state = states.get(name)
                    message = (
                        {"op": "adopt_session", "session": name, "state": state}
                        if state is not None
                        else {"op": "open_session", "session": name}
                    )
                    try:
                        response = transport.request(message)
                    except (OSError, ConnectionError):
                        self._probe_shard(target)
                        continue
                    if not response.get("ok", False):
                        continue
                    self._apply({"c": "rehome", "session": name, "shard": target})
                    self._inc(
                        "fleet.rehomed_sessions" if state is not None
                        else "fleet.lost_sessions"
                    )
                    self._emit(
                        "fleet.rehome", session=name, shard=target,
                        src_shard=shard, recovered=state is not None,
                    )
            finally:
                for transport in transports.values():
                    try:
                        transport.close()
                    except Exception:  # pragma: no cover
                        pass

    # -- proactive rebalancing ----------------------------------------------------

    def _observe_command(self) -> dict[str, Any]:
        """Build the planner's ``observe`` command from registry state.

        Caller holds the lock.  Each live shard contributes its owned
        sessions' smoothed rates from the latest heartbeat load report;
        sessions the report has no number for count as zero (present so
        shard totals and ownership stay consistent for the planner).
        """
        shards: dict[str, dict[str, float]] = {}
        for shard in self.registry.alive_shards():
            load = self.registry.shard_load(shard) or {}
            rates = load.get("session_rps") or {}
            shards[str(shard)] = {
                name: float(rates.get(name, 0.0))
                for name in self.registry.sessions_on(shard)
            }
        return {"c": "observe", "shards": shards}

    def check_rebalance(self) -> list[dict[str, Any]]:
        """One planner cycle: observe load, plan, and execute migrations.

        Called from the lease-checker thread (and directly by tests).
        Returns the moves attempted this cycle.  A no-op without an
        attached planner or with fewer than two live shards.
        """
        if self.planner is None:
            return []
        with self._lock:
            if len(self.registry.alive_shards()) < 2:
                return []
            self._apply_plan(self._observe_command())
            moves = self._apply_plan({"c": "plan"})["moves"]
            for move in moves:
                ok = self._migrate_locked(
                    move["session"], int(move["src"]), int(move["dst"])
                )
                self._apply_plan({
                    "c": "complete", "session": move["session"], "ok": ok,
                })
            if self.metrics is not None:
                self.metrics.gauge(
                    "fleet.inflight_migrations", len(self.planner.inflight)
                )
                self.metrics.gauge("fleet.hot_streak", self.planner.hot_streak)
            return moves

    def _migrate_locked(self, session: str, src: int, dst: int) -> bool:
        """Drain-and-move *session* from live shard *src* to live shard *dst*.

        Caller holds the coordinator lock, so no ``locate`` observes the
        move half-done.  The source's ``export_session`` quiesces the
        session (new requests there get a ``moved`` tombstone) and returns
        its full state dict; ``adopt_session`` on the destination restores
        it; then the registry re-homes.  If the destination refuses, the
        state is adopted straight back onto the source so nothing is lost.
        """
        from repro.harmony.transport import TcpClientTransport

        src_info = self.registry.shards.get(src)
        dst_info = self.registry.shards.get(dst)
        if (
            src_info is None or not src_info["alive"]
            or dst_info is None or not dst_info["alive"]
            or self.registry.owner(session) != src
        ):
            return False
        state = None
        src_transport = None
        try:
            try:
                src_transport = TcpClientTransport(
                    src_info["host"], src_info["port"], timeout=self.adopt_timeout,
                )
                response = src_transport.request(
                    {"op": "export_session", "session": session}
                )
            except (OSError, ConnectionError):
                self._inc("fleet.migration_failures")
                self._probe_shard(src)
                return False
            if not response.get("ok", False):
                # Busy batch, unknown session, … — not movable right now.
                self._inc("fleet.migration_failures")
                return False
            state = response.get("state")
            try:
                with TcpClientTransport(
                    dst_info["host"], dst_info["port"], timeout=self.adopt_timeout,
                ) as dst_transport:
                    adopted = dst_transport.request({
                        "op": "adopt_session", "session": session, "state": state,
                    })
            except (OSError, ConnectionError):
                adopted = {"ok": False}
            if not adopted.get("ok", False):
                # Destination refused: put the session back where it was.
                self._inc("fleet.migration_failures")
                try:
                    src_transport.request({
                        "op": "adopt_session", "session": session, "state": state,
                    })
                except (OSError, ConnectionError):  # pragma: no cover - src died
                    self._probe_shard(src)
                self._probe_shard(dst)
                return False
            self._apply({"c": "rehome", "session": session, "shard": dst})
            self._inc("fleet.migrations")
            self._emit(
                "fleet.migrate", session=session, src_shard=src, dst_shard=dst,
            )
            return True
        finally:
            if src_transport is not None:
                try:
                    src_transport.close()
                except Exception:  # pragma: no cover
                    pass

    # -- routing ------------------------------------------------------------------

    def locate(self, session: str) -> tuple[int, str, int]:
        """Resolve *session* to ``(shard, host, port)``, assigning if new.

        The binary wire's LOCATE frame calls this directly; the dict op
        wraps it.  Raises ``LookupError`` when no live shard can take the
        session.
        """
        if not session:
            raise LookupError("locate needs a non-empty session name")
        with self._lock:
            owner = self.registry.owner(session)
            if owner is not None and not self.registry.is_alive(owner):
                # The owner died between heartbeats; migrate its sessions
                # now rather than waiting for the lease checker.
                self._expire_and_rehome(owner)
                owner = self.registry.owner(session)
                if owner is not None and not self.registry.is_alive(owner):
                    owner = None  # unrecoverable for now: assign fresh below
            if owner is None:
                owner = self.registry.least_loaded()
                if owner is None:
                    raise LookupError("no live shards registered")
                self._apply({"c": "assign", "session": session, "shard": owner})
                self._emit("fleet.locate", session=session, shard=owner)
            info = self.registry.shards[owner]
            self._inc("fleet.locates")
            return owner, info["host"], info["port"]

    # -- the dict-protocol entry point ---------------------------------------------

    def handle(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Process one protocol message (the transports' entry point)."""
        try:
            return self._route(message)
        except Exception as exc:  # protocol boundary: never let it die
            return error_response(f"{type(exc).__name__}: {exc}")

    def _route(self, message: Mapping[str, Any]) -> dict[str, Any]:
        op = message.get("op")
        if op == "register_shard":
            return self._op_register_shard(message)
        if op == "heartbeat":
            return self._op_heartbeat(message)
        if op == "locate":
            return self._op_locate(message)
        if op == "fleet_status":
            return self._op_fleet_status()
        if op == "expire_shard":
            with self._lock:
                self._expire_and_rehome(int(message["shard"]))
            return {"ok": True, "shard": int(message["shard"])}
        if op == "migrate_session":
            return self._op_migrate_session(message)
        if op == "metrics":
            if self.metrics is None:
                return error_response("metrics collection is not enabled")
            return {"ok": True, "metrics": self.metrics.snapshot()}
        if op in _SESSION_OPS:
            return self._op_session_redirect(op, message)
        return error_response(f"unknown coordinator op {op!r}")

    def _op_register_shard(self, message: Mapping[str, Any]) -> dict[str, Any]:
        host = message.get("host")
        port = message.get("port")
        if not isinstance(host, str) or not host or port is None:
            return error_response("register_shard needs 'host' and 'port'")
        with self._lock:
            shard = message.get("shard")
            shard = self.registry.next_shard_id() if shard is None else int(shard)
            wal_dir = message.get("wal_dir")
            self._apply({
                "c": "register", "shard": shard, "host": host,
                "port": int(port),
                "wal_dir": str(wal_dir) if wal_dir is not None else None,
                "until": self._clock() + self.lease_s,
            })
        self._inc("fleet.shard_registrations")
        if self.metrics is not None:
            self.metrics.gauge(
                "fleet.alive_shards", len(self.registry.alive_shards())
            )
        self._emit("fleet.register", shard=shard, host=host, port=int(port))
        return {"ok": True, "shard": shard, "lease_s": self.lease_s}

    def _op_heartbeat(self, message: Mapping[str, Any]) -> dict[str, Any]:
        shard = message.get("shard")
        if shard is None:
            return error_response("heartbeat needs a 'shard' id")
        cmd = {
            "c": "heartbeat", "shard": int(shard),
            "until": self._clock() + self.lease_s,
        }
        load = message.get("load")
        if isinstance(load, Mapping):
            cmd["load"] = dict(load)
        with self._lock:
            result = self._apply(cmd)
        self._inc("fleet.heartbeats")
        # ``alive: false`` = the lease was revoked (expiry or probe); the
        # shard must stop serving — its sessions live elsewhere now.
        return {"ok": True, "alive": bool(result["applied"]),
                "lease_s": self.lease_s}

    def _op_locate(self, message: Mapping[str, Any]) -> dict[str, Any]:
        session = message.get("session")
        if not isinstance(session, str) or not session:
            return error_response("locate needs a non-empty 'session' name")
        hint = message.get("unreachable")
        if hint is not None:
            self._probe_shard(int(hint))
        shard, host, port = self.locate(session)
        return redirect_response(shard, host, port)

    def _op_migrate_session(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Operator/test hook: move one session to a named shard now."""
        session = message.get("session")
        if not isinstance(session, str) or not session:
            return error_response("migrate_session needs a 'session' name")
        if message.get("shard") is None:
            return error_response("migrate_session needs a target 'shard' id")
        dst = int(message["shard"])
        with self._lock:
            src = self.registry.owner(session)
            if src is None:
                return error_response(f"session {session!r} is not assigned")
            if src == dst:
                return {"ok": True, "session": session, "shard": dst,
                        "moved": False}
            moved = self._migrate_locked(session, src, dst)
        if not moved:
            return error_response(
                f"could not migrate session {session!r} to shard {dst}"
            )
        return {"ok": True, "session": session, "shard": dst, "moved": True}

    def _op_fleet_status(self) -> dict[str, Any]:
        with self._lock:
            now = self._clock()
            shards = {
                str(shard): {
                    "host": info["host"],
                    "port": info["port"],
                    "alive": info["alive"],
                    "lease_remaining_s": round(max(0.0, info["until"] - now), 3),
                    "sessions": len(self.registry.sessions_on(shard)),
                }
                for shard, info in sorted(self.registry.shards.items())
            }
            sessions = dict(sorted(self.registry.sessions.items()))
            status = {"ok": True, "lease_s": self.lease_s,
                      "shards": shards, "sessions": sessions}
            if self.planner is not None:
                status["rebalance"] = {
                    "tick": self.planner.tick,
                    "hot_shard": self.planner.hot_shard,
                    "hot_streak": self.planner.hot_streak,
                    "inflight": sorted(self.planner.inflight),
                }
        return status

    def _op_session_redirect(
        self, op: str, message: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Session ops don't run here — answer with where they should go."""
        session = message.get("session")
        if not isinstance(session, str) or not session:
            return error_response(
                f"op {op!r} is served by shards, not the coordinator; "
                "ask 'locate' with a session name"
            )
        try:
            shard, host, port = self.locate(session)
        except LookupError as exc:
            return error_response(str(exc))
        response = error_response(
            f"session {session!r} is served by shard {shard}"
        )
        response["redirect"] = {"shard": shard, "host": host, "port": port}
        return response
