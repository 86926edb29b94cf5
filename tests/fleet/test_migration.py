"""Live migration battery: drain-and-move sessions between healthy shards.

The proactive counterpart of the SIGKILL battery in
``test_fleet_smoke.py``: nothing dies here.  The coordinator's
``migrate_session`` op (and, in the last test, the
:class:`~repro.fleet.rebalance.RebalancePlanner` acting on heartbeat load
reports) quiesces a session on its owning shard, adopts its full state —
cseq high-water marks, reply cache, nonces — onto another live shard, and
flips the registry.  Clients chase the ``moved`` tombstone through
:class:`~repro.harmony.client.SessionMoved`, invalidate their cached
route, re-resolve, and replay unacked work; the sweep must finish
bit-identical to an uninterrupted single server under paired seeding.
"""

import threading
import time

from repro.fleet.launch import (
    FleetSupervisor,
    bench_space,
    session_workload,
    single_server_baseline,
    sweep_results,
)

SESSIONS = ["sweep-0", "sweep-1", "sweep-2"]
STEPS = 8
SEED = 0


def _migrate_owner_away(fleet, name):
    """Coordinator-driven drain-and-move of *name* to the other shard."""
    status = fleet.fleet_status()
    src = status["sessions"][name]
    dst = next(int(s) for s in status["shards"] if int(s) != src)
    response = fleet.coordinator.handle(
        {"op": "migrate_session", "session": name, "shard": dst}
    )
    assert response.get("ok") and response.get("moved"), response
    return src, dst


def test_migrate_session_mid_sweep_bit_identical(tmp_path):
    """Move the mid-workload session between live shards; results identical."""
    with FleetSupervisor(
        2, base_dir=tmp_path, lease_s=2.0, wal=True, sync="batch",
        wire="binary", seed=SEED,
    ) as fleet:
        results = {}
        moved = {}

        for idx, name in enumerate(SESSIONS):
            client = fleet.client(name)
            client.open_session(name, k=1, estimator="min")
            client.register(bench_space())
            midway = (
                (lambda n=name: moved.update(zip(
                    ("src", "dst"), _migrate_owner_away(fleet, n)
                )))
                if idx == 1 else None
            )
            session_workload(
                client, idx, steps=STEPS, seed=SEED, midway=midway
            )
            results[name] = sweep_results(client)
            if idx == 1:
                # the moved tombstone forced a cache invalidation and a
                # fresh coordinator locate for the migrated session
                assert client._factory.locates >= 2
            client.transport.close()

        assert "src" in moved, "the migrate trigger never fired"
        status = fleet.fleet_status()
        assert status["sessions"][SESSIONS[1]] == moved["dst"]
        assert status["shards"][str(moved["src"])]["alive"], (
            "migration must not involve killing the source shard"
        )
        counters = fleet.metrics.snapshot()["counters"]
        assert counters.get("fleet.migrations", 0) >= 1
        assert counters.get("fleet.migration_failures", 0) == 0
        assert counters.get("fleet.lost_sessions", 0) == 0

    baseline = single_server_baseline(
        SESSIONS, seed=SEED, k=1, estimator="min", steps=STEPS
    )
    assert results == baseline, (
        "fleet sweep with a live migration diverged from the "
        "uninterrupted single-server baseline"
    )


def test_migration_under_load_storm_bit_identical(tmp_path):
    """Drain-and-move while storm clients hammer both shards concurrently."""
    with FleetSupervisor(
        2, base_dir=tmp_path, lease_s=2.0, wal=True, sync="batch",
        wire="binary", seed=SEED,
    ) as fleet:
        stop = threading.Event()
        storm_errors: list[Exception] = []

        def storm(name):
            try:
                client = fleet.client(name)
                try:
                    client.open_session(name, k=1, estimator="min")
                    client.register(bench_space())
                    step = 0
                    while not stop.is_set():
                        client.fetch()
                        client.report(1.0 + step * 0.001, step=step)
                        step += 1
                finally:
                    client.transport.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                storm_errors.append(exc)

        storm_threads = [
            threading.Thread(target=storm, args=(f"storm-{i}",))
            for i in range(2)
        ]
        for t in storm_threads:
            t.start()

        try:
            results = {}
            moved = {}
            for idx, name in enumerate(SESSIONS):
                client = fleet.client(name)
                client.open_session(name, k=1, estimator="min")
                client.register(bench_space())
                midway = (
                    (lambda n=name: moved.setdefault(
                        "move", _migrate_owner_away(fleet, n)
                    ))
                    if idx == 1 else None
                )
                session_workload(
                    client, idx, steps=STEPS, seed=SEED, midway=midway
                )
                results[name] = sweep_results(client)
                client.transport.close()
        finally:
            stop.set()
            for t in storm_threads:
                t.join(timeout=30)

        assert "move" in moved, "the migrate trigger never fired"
        assert not storm_errors, f"storm clients failed: {storm_errors[:3]}"
        counters = fleet.metrics.snapshot()["counters"]
        assert counters.get("fleet.migrations", 0) >= 1
        assert counters.get("fleet.migration_failures", 0) == 0

    baseline = single_server_baseline(
        SESSIONS, seed=SEED, k=1, estimator="min", steps=STEPS
    )
    assert results == baseline, (
        "migration under a concurrent load storm diverged from the "
        "uninterrupted single-server baseline"
    )


def test_locate_cache_steady_state_skips_coordinator(tmp_path):
    """Reconnects reuse the cached route; only a move re-asks the coordinator."""
    with FleetSupervisor(
        2, base_dir=tmp_path, lease_s=5.0, wal=False,
        wire="binary", seed=SEED,
    ) as fleet:
        name = "cached"
        client = fleet.client(name)
        client.open_session(name, k=1, estimator="min")
        client.register(bench_space())
        resolver = client._factory
        assert resolver.locates == 1  # the initial resolution

        # Steady state: every forced reconnect dials the cached route and
        # never touches the coordinator again.
        for step in range(3):
            client.transport.close()  # sever; the next call reconnects
            client.fetch()
            client.report(1.0 + step, step=step)
        assert resolver.locates == 1, "steady-state reconnects re-located"
        assert resolver.cache_hits >= 3

        # A migration invalidates the route: exactly one fresh locate.
        _migrate_owner_away(fleet, name)
        client.fetch()
        client.report(99.0, step=3)
        assert resolver.locates == 2, "moved tombstone must force a locate"
        assert resolver.last_shard is not None
        assert resolver.last_shard[0] == fleet.fleet_status()["sessions"][name]
        client.transport.close()


def test_auto_rebalance_drains_the_hot_shard(tmp_path):
    """Planner + heartbeat load reports migrate sessions off a hot shard."""
    with FleetSupervisor(
        2, base_dir=tmp_path, lease_s=1.0, wal=True, sync="batch",
        wire="binary", seed=SEED, rebalance=True,
    ) as fleet:
        clients = {}
        for i in range(4):
            name = f"s-{i}"
            client = fleet.client(name)
            client.open_session(name, k=1, estimator="min")
            client.register(bench_space())
            clients[name] = client
        placement = fleet.fleet_status()["sessions"]
        hot = [n for n in clients if placement[n] == 0]
        assert len(hot) == 2, f"expected round-robin placement, {placement}"

        # hammer only shard 0's sessions: a clean, sustained skew signal
        stop = time.monotonic() + 6.0

        def hammer(client):
            step = 0
            while time.monotonic() < stop:
                client.fetch()
                client.report(1.0 + step * 0.001, step=step)
                step += 1

        threads = [
            threading.Thread(target=hammer, args=(clients[n],)) for n in hot
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        counters = fleet.metrics.snapshot()["counters"]
        assert counters.get("fleet.migrations", 0) >= 1, (
            "the planner never drained the hot shard: "
            f"{fleet.fleet_status().get('rebalance')}"
        )
        assert counters.get("fleet.migration_failures", 0) == 0
        status = fleet.fleet_status()
        assert not status["rebalance"]["inflight"], (
            "migrations must complete, not linger inflight"
        )
        # the hot pair no longer shares shard 0
        owners = {status["sessions"][n] for n in hot}
        assert owners != {0}, f"both hot sessions still on shard 0: {status}"
        for client in clients.values():
            client.transport.close()
