"""Fleet smoke test: kill a shard mid-sweep, finish bit-identically.

The distributed analogue of the single-server SIGKILL battery
(``tests/harmony/test_crash_recovery.py``): launch a real coordinator +
two real ``repro serve`` shard subprocesses with WALs, drive tuning
sessions through coordinator routing, ``SIGKILL`` the shard that owns the
session currently mid-workload, and require the whole sweep to finish
with results bit-identical to one uninterrupted in-process server under
paired seeding.  The client's reconnect loop, the resolver's
unreachable-hint probe, lease expiry, WAL recovery of the dead shard, and
``adopt_session`` on the survivor all get exercised by that one kill.
"""

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


def test_kill_a_shard_mid_sweep_results_bit_identical(tmp_path):
    with FleetSupervisor(
        2, base_dir=tmp_path, lease_s=1.0, wal=True, sync="batch",
        wire="binary", seed=SEED,
    ) as fleet:
        results = {}
        killed = {}

        def kill_owner_of(name):
            """SIGKILL the shard that owns *name* (mid-workload trigger)."""
            status = fleet.fleet_status()
            shard = status["sessions"][name]
            killed["shard"] = shard
            killed["session"] = name
            fleet.kill_shard(shard)

        for idx, name in enumerate(SESSIONS):
            client = fleet.client(name)
            client.open_session(name, k=1, estimator="min")
            client.register(bench_space())
            # the middle session loses its shard halfway through its steps
            midway = (lambda n=name: kill_owner_of(n)) if idx == 1 else None
            session_workload(
                client, idx, steps=STEPS, seed=SEED, midway=midway
            )
            results[name] = sweep_results(client)
            client.transport.close()

        assert "shard" in killed, "the kill trigger never fired"
        status = fleet.fleet_status()
        assert not status["shards"][str(killed["shard"])]["alive"]
        # the killed shard's sessions were re-homed onto the survivor
        survivors = [
            int(s) for s, info in status["shards"].items() if info["alive"]
        ]
        assert survivors and status["sessions"][killed["session"]] in survivors
        counters = fleet.metrics.snapshot()["counters"]
        assert counters.get("fleet.expired_shards", 0) >= 1
        assert counters.get("fleet.rehomed_sessions", 0) >= 1
        assert counters.get("fleet.lost_sessions", 0) == 0

    baseline = single_server_baseline(
        SESSIONS, seed=SEED, k=1, estimator="min", steps=STEPS
    )
    assert results == baseline, (
        "fleet sweep with a SIGKILLed shard diverged from the "
        "uninterrupted single-server baseline"
    )


def test_clean_fleet_sweep_matches_baseline(tmp_path):
    """No faults: routing alone must not perturb results (JSON wire arm)."""
    with FleetSupervisor(
        2, base_dir=tmp_path, lease_s=5.0, wal=False,
        wire="json", seed=SEED,
    ) as fleet:
        results = fleet.run_sweep(SESSIONS, steps=STEPS)
        status = fleet.fleet_status()
        owners = {status["sessions"][n] for n in SESSIONS}
        assert len(owners) == 2, "sessions were not spread across shards"
    baseline = single_server_baseline(
        SESSIONS, seed=SEED, k=1, estimator="min", steps=STEPS
    )
    assert results == baseline



def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_join_attaches_an_externally_started_shard(tmp_path):
    """``repro fleet --join HOST:PORT``: adopt a shard we did not spawn.

    The shard is a plain ``repro serve --coordinator`` process launched
    here, before the coordinator even exists — its agent retries
    registration until the supervisor comes up, ``start()`` blocks until
    the join target has registered, and from then on routing, leases, and
    results are indistinguishable from a supervisor-spawned fleet.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    coord_port = _free_port()
    shard_port = _free_port()
    env = dict(os.environ)
    src = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--workload", "bench", "--wire", "binary",
        "--host", "127.0.0.1", "--port", str(shard_port),
        "--tuner", "pro", "--seed", str(SEED), "--k", "1",
        "--estimator", "min",
        "--coordinator", f"127.0.0.1:{coord_port}", "--shard-id", "0",
    ]
    log = open(tmp_path / "shard.log", "ab")
    proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=env)
    try:
        with FleetSupervisor(
            1, base_dir=tmp_path / "coord", coordinator_port=coord_port,
            join=[("127.0.0.1", shard_port)], wal=False,
            wire="binary", lease_s=2.0, seed=SEED,
        ) as fleet:
            assert fleet._procs == {}, "join mode must not spawn shards"
            status = fleet.fleet_status()
            assert status["shards"]["0"]["alive"]
            client = fleet.client("ext-0")
            client.open_session("ext-0", k=1, estimator="min")
            client.register(bench_space())
            session_workload(client, 0, steps=STEPS, seed=SEED)
            results = {"ext-0": sweep_results(client)}
            client.transport.close()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        log.close()

    baseline = single_server_baseline(
        ["ext-0"], seed=SEED, k=1, estimator="min", steps=STEPS
    )
    assert results == baseline
