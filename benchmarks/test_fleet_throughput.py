"""Fleet aggregate throughput: 1 vs 2 vs 4 shards under a fixed client load.

The tentpole measurement for the distributed tuning fleet: the same four
tuning sessions hammer ``fetch_many``/``report_many`` through coordinator
routing, and the only thing that changes between arms is how many shard
server processes the fleet runs.  Every request models ``--service-delay-us``
of application time on the serving shard (a GIL-releasing sleep under the
shard's service lock), which is what the paper's setting looks like: the
tuned application dominates, serving overhead must not.  One shard
serializes that service time across all sessions; four shards overlap it —
so aggregate requests/sec should scale near-linearly even on a single-CPU
runner, and ``speedup_4`` (4-shard rps over 1-shard rps) is the guarded
headline (floor 2.5x in ``compare_bench.py``).

Each arm records aggregate rps and client-observed round-trip p50/p99 into
the ``fleet`` section of ``BENCH_runner.json``.

The second measurement is the rebalancing headline: a zipf-skewed
16-session workload whose four hottest sessions all land on shard 0 of a
4-shard fleet (the round-robin placement is exploited deliberately), run
once with rebalancing off and once with the :class:`RebalancePlanner`
live.  A paced warmup lets the load EWMAs converge and the planner
drain-and-move sessions off the hot shard; the timed closed-loop phase
then measures makespan.  ``fleet.skew_speedup`` (makespan off / on) is
guarded with a hard floor of 1.5x in ``compare_bench.py``.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fleet.launch import FleetSupervisor, bench_space
from repro.loadgen import session_weights
from test_server_throughput import _update_bench_json

SHARD_COUNTS = (1, 2, 4)
N_CLIENTS = 4
BATCH_WIDTH = 8

#: modeled application service time per request chunk (1 ms) — large
#: against serving overhead, small against the bench budget
SERVICE_DELAY_US = 1000

#: skew arm: sessions, shards, and the zipf exponent.  s=1.0 over 16
#: sessions puts ~62% of the load on the hot shard when the top four
#: sessions co-locate, and caps the ideal rebalanced speedup at ~2.1x
#: (the hottest session's serial chain, weight ~0.30, cannot be split).
N_SKEW_SESSIONS = 16
SKEW_SHARDS = 4
SKEW_S = 1.0

#: paced-warmup wall time: long enough for heartbeat load reports
#: (every ``lease_s/3`` = 0.33 s) and planner cycles (every ``lease_s/4``
#: = 0.25 s, cooldown 5 ticks) to run several migration waves
SKEW_WARMUP_S = 6.0
SKEW_WARMUP_ROUNDS = 240


def _run_arm(n_shards: int, base_dir: Path, rounds: int) -> dict:
    """One fleet arm; returns {shards, clients, msgs, rps, p50_ms, p99_ms}."""
    barrier = threading.Barrier(N_CLIENTS + 1)
    latencies: list[list[float]] = [[] for _ in range(N_CLIENTS)]
    msgs_sent = [0] * N_CLIENTS
    errors: list[Exception] = []

    with FleetSupervisor(
        n_shards,
        base_dir=base_dir,
        wal=False,
        wire="binary",
        lease_s=30.0,
        service_delay_us=SERVICE_DELAY_US,
    ) as fleet:

        def worker(idx: int) -> None:
            try:
                client = fleet.client(f"bench-{idx}")
                try:
                    client.open_session(f"bench-{idx}", k=1, estimator="min")
                    client.register(bench_space())
                    barrier.wait(timeout=60)
                    lat = latencies[idx]
                    for step in range(rounds):
                        t0 = time.perf_counter()
                        configs = client.fetch_many(BATCH_WIDTH)
                        lat.append(time.perf_counter() - t0)
                        times = [
                            1.0 + float(np.sum(np.asarray(c) ** 2))
                            for c in configs
                        ]
                        t0 = time.perf_counter()
                        client.report_many(times, step=step)
                        lat.append(time.perf_counter() - t0)
                        msgs_sent[idx] += 2 * BATCH_WIDTH
                finally:
                    client.transport.close()
            except Exception as exc:  # pragma: no cover - surfaced by assert
                errors.append(exc)
                try:
                    barrier.abort()
                except Exception:
                    pass

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        barrier.wait(timeout=60)  # all sessions routed and registered
        t_start = time.perf_counter()
        for t in threads:
            t.join(timeout=300)
        wall = time.perf_counter() - t_start
        assert not errors, f"client errors in {n_shards}-shard arm: {errors[:3]}"

        # the load must actually have spread: every shard owns a session
        status = fleet.fleet_status()
        owners = {
            status["sessions"][f"bench-{i}"] for i in range(N_CLIENTS)
        }
        assert len(owners) == min(n_shards, N_CLIENTS), (
            f"expected sessions on {min(n_shards, N_CLIENTS)} shards, "
            f"got owners {sorted(owners)}"
        )

    total_msgs = sum(msgs_sent)
    rtts = np.asarray([v for lat in latencies for v in lat], dtype=float)
    return {
        "shards": n_shards,
        "clients": N_CLIENTS,
        "msgs": total_msgs,
        "rps": round(total_msgs / wall, 1),
        "p50_ms": round(float(np.quantile(rtts, 0.5)) * 1e3, 3),
        "p99_ms": round(float(np.quantile(rtts, 0.99)) * 1e3, 3),
    }


@pytest.mark.bench_smoke
def test_smoke_fleet_throughput(scale, tmp_path):
    """Aggregate rps at 1/2/4 shards; headline = 4-shard over 1-shard."""
    rounds = 120 if scale == "full" else 40
    arms = {
        str(n): _run_arm(n, tmp_path / f"fleet-{n}", rounds)
        for n in SHARD_COUNTS
    }

    speedup_2 = arms["2"]["rps"] / arms["1"]["rps"]
    speedup_4 = arms["4"]["rps"] / arms["1"]["rps"]
    assert speedup_4 >= 2.5, (
        "4 shards must deliver >= 2.5x the aggregate throughput of one "
        f"shard under the same client load, got {speedup_4:.2f}x "
        f"({arms['1']['rps']:.0f} -> {arms['4']['rps']:.0f} req/s)"
    )

    _update_bench_json(
        "fleet",
        {
            "batch_width": BATCH_WIDTH,
            "service_delay_us": SERVICE_DELAY_US,
            "rounds": rounds,
            "speedup_2": round(speedup_2, 3),
            "speedup_4": round(speedup_4, 3),
            **arms,
        },
    )


def _skew_weights() -> list[float]:
    """Per-session weights, permuted so round-robin placement co-locates
    the four hottest sessions on shard 0.

    ``least_loaded`` breaks ties toward the lowest shard id, so opening
    sessions sequentially lands session *i* on shard ``i % 4``; giving
    session *i* the weight of rank ``(i % 4) * 4 + i // 4`` therefore
    stacks ranks 0-3 on shard 0, 4-7 on shard 1, and so on.
    """
    ranked = session_weights(N_SKEW_SESSIONS, dist="zipf", s=SKEW_S)
    return [
        float(ranked[(i % SKEW_SHARDS) * SKEW_SHARDS + i // SKEW_SHARDS])
        for i in range(N_SKEW_SESSIONS)
    ]


def _run_rounds(client, n: int, *, pace_s: float | None = None) -> None:
    """*n* fetch/report rounds; evenly paced over *pace_s* when given."""
    start = time.perf_counter()
    for step in range(n):
        if pace_s is not None:
            delay = start + step * (pace_s / n) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        configs = client.fetch_many(BATCH_WIDTH)
        times = [1.0 + float(np.sum(np.asarray(c) ** 2)) for c in configs]
        client.report_many(times, step=step)


def _skew_arm(base_dir: Path, total_rounds: int, *, rebalance: bool) -> dict:
    """One skew arm; returns {makespan_s, migrations, rounds, ...}.

    Paced warmup first — per-session rate proportional to weight, so the
    shard load EWMAs reflect the true skew (a closed loop would saturate
    the hot shard and equalize the *observed* rates) — then the timed
    closed-loop phase whose makespan is the headline.
    """
    weights = _skew_weights()
    warm_rounds = [
        max(1, round(SKEW_WARMUP_ROUNDS * w)) for w in weights
    ]
    timed_rounds = [max(1, round(total_rounds * w)) for w in weights]
    barrier = threading.Barrier(N_SKEW_SESSIONS + 1)
    done = [0.0] * N_SKEW_SESSIONS
    errors: list[Exception] = []

    with FleetSupervisor(
        SKEW_SHARDS,
        base_dir=base_dir,
        wal=False,
        wire="binary",
        lease_s=1.0,
        service_delay_us=SERVICE_DELAY_US,
        rebalance=rebalance,
    ) as fleet:
        # open sessions sequentially: round-robin placement is the point
        clients = []
        for i in range(N_SKEW_SESSIONS):
            client = fleet.client(f"skew-{i}")
            client.open_session(f"skew-{i}", k=1, estimator="min")
            client.register(bench_space())
            clients.append(client)
        status = fleet.fleet_status()
        placement = {
            i: status["sessions"][f"skew-{i}"]
            for i in range(N_SKEW_SESSIONS)
        }
        assert all(
            placement[i] == placement[i % SKEW_SHARDS]
            for i in range(N_SKEW_SESSIONS)
        ), f"expected round-robin placement, got {placement}"

        def worker(idx: int) -> None:
            try:
                client = clients[idx]
                barrier.wait(timeout=120)  # warmup starts together
                _run_rounds(client, warm_rounds[idx], pace_s=SKEW_WARMUP_S)
                barrier.wait(timeout=120)  # timed phase starts together
                _run_rounds(client, timed_rounds[idx])
                done[idx] = time.perf_counter()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
                try:
                    barrier.abort()
                except Exception:
                    pass

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(N_SKEW_SESSIONS)
        ]
        for t in threads:
            t.start()
        barrier.wait(timeout=120)
        barrier.wait(timeout=120)
        t_start = time.perf_counter()
        for t in threads:
            t.join(timeout=600)
        assert not errors, f"client errors in skew arm: {errors[:3]}"
        makespan = max(done) - t_start
        for client in clients:
            client.transport.close()
        counters = fleet.metrics.snapshot()["counters"]
        final_status = fleet.fleet_status()
        final_owners = sorted(
            {final_status["sessions"][f"skew-{i}"]
             for i in range(N_SKEW_SESSIONS)}
        )

    return {
        "rebalance": rebalance,
        "sessions": N_SKEW_SESSIONS,
        "rounds": sum(timed_rounds),
        "makespan_s": round(makespan, 3),
        "migrations": int(counters.get("fleet.migrations", 0)),
        "migration_failures": int(
            counters.get("fleet.migration_failures", 0)
        ),
        "final_owner_shards": final_owners,
    }


@pytest.mark.bench_smoke
def test_smoke_fleet_skew_rebalance(scale, tmp_path):
    """Skewed load, 4 shards: live rebalancing must cut the makespan."""
    total_rounds = 2400 if scale == "full" else 1200
    off = _skew_arm(tmp_path / "skew-off", total_rounds, rebalance=False)
    on = _skew_arm(tmp_path / "skew-on", total_rounds, rebalance=True)

    assert off["migrations"] == 0, "rebalance-off arm must not migrate"
    assert on["migrations"] >= 1, (
        f"the planner never moved a session off the hot shard: {on}"
    )
    skew_speedup = off["makespan_s"] / on["makespan_s"]
    assert skew_speedup >= 1.5, (
        "live rebalancing must cut the skewed-load makespan by >= 1.5x, "
        f"got {skew_speedup:.2f}x "
        f"({off['makespan_s']:.2f}s -> {on['makespan_s']:.2f}s)"
    )

    _update_bench_json(
        "fleet",
        {
            "skew_s": SKEW_S,
            "skew_speedup": round(skew_speedup, 3),
            "skew_off": off,
            "skew_on": on,
        },
    )
