"""Fleet launcher: one coordinator + N shard server subprocesses.

:class:`FleetSupervisor` hosts the :class:`~repro.fleet.coordinator.
FleetCoordinator` in-process (behind the stock asyncio TCP transport)
and spawns each shard as a real ``repro serve`` subprocess — the same entry
point operators run — pointed back at the coordinator with
``--coordinator host:port``.  That makes the smoke tests honest: killing
a shard is ``SIGKILL`` on a real process, not a thread we could never
half-kill, and re-homing recovers from the WAL files that process left
behind.

The module also carries the paired-seeding workload helpers the fleet
sweep, the smoke test, and the bit-identity check all share, so "fleet
run" and "single-server baseline" are the *same call sequence* by
construction.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro
from repro.fleet.client import fleet_client
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.rebalance import RebalancePlanner
from repro.harmony.client import TuningClient
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.transport import InProcessTransport
from repro.obs import MetricsRegistry
from repro.space import IntParameter, ParameterSpace

__all__ = [
    "FleetSupervisor",
    "bench_space",
    "session_workload",
    "sweep_results",
    "single_server_baseline",
]


def bench_space() -> ParameterSpace:
    """The serving benchmarks' tiny integer space (matches ``--workload bench``)."""
    return ParameterSpace([
        IntParameter("a", -10, 10),
        IntParameter("b", -10, 10),
    ])


def _objective(params: dict[str, float]) -> float:
    """Deterministic surrogate cost for a bench-space configuration."""
    return 1.0 + (params["a"] - 3.0) ** 2 + (params["b"] + 1.0) ** 2


def session_workload(
    client: TuningClient,
    idx: int,
    *,
    steps: int = 8,
    seed: int = 0,
    midway: Callable[[], None] | None = None,
) -> None:
    """Drive one session's sweep: lock-step steps, then two batched rounds.

    Pure function of ``(idx, seed)`` plus the assignments the server hands
    back, so running it against a fleet and against a single in-process
    server under the same seeds produces identical report streams.
    *midway* (e.g. a barrier, or the smoke test's kill trigger) runs after
    the first half of the lock-step phase.
    """
    rng = np.random.default_rng([seed, idx])
    half = steps // 2
    for step in range(steps):
        config = client.fetch()
        measure = _objective(client.as_dict(config)) * (1.0 + 0.25 * rng.random())
        client.report(measure, step=step)
        if step == half - 1 and midway is not None:
            midway()
    for step in range(2):
        configs = client.fetch_many(6)
        measures = [
            _objective(client.as_dict(c)) * (1.0 + 0.25 * rng.random())
            for c in configs
        ]
        client.report_many(measures, step=steps + step)


def sweep_results(client: TuningClient) -> dict[str, Any]:
    """The comparable end-state of a session: checkpoint + best.

    The checkpoint deliberately carries the tuner/ledger state but not
    per-client identities (nonces are random per process), so two runs
    that performed the same tuning work compare equal.
    """
    checkpoint = client._retriable(lambda: client._call({"op": "checkpoint"}))
    point, cost, ready = client.best()
    return {
        "checkpoint": checkpoint.get("snapshot"),
        "best_point": [float(x) for x in np.asarray(point).ravel()],
        "best_cost": float(cost),
        "ready": bool(ready),
    }


def single_server_baseline(
    sessions: list[str],
    *,
    tuner: str = "pro",
    seed: int = 0,
    k: int = 1,
    estimator: str = "min",
    steps: int = 8,
) -> dict[str, dict[str, Any]]:
    """Run the identical sweep against one in-process server (the oracle)."""
    from repro.harmony.server import TuningServer

    server = TuningServer(_tuner_factory(tuner, seed), binproto=False)
    results: dict[str, dict[str, Any]] = {}
    for idx, name in enumerate(sessions):
        client = TuningClient(InProcessTransport(server), session=name)
        client.open_session(name, k=k, estimator=estimator)
        client.register(bench_space())
        session_workload(client, idx, steps=steps, seed=seed)
        results[name] = sweep_results(client)
    return results


def _tuner_factory(tuner: str, seed: int) -> Callable:
    """Mirror ``repro serve``'s tuner construction (same factory helper)."""
    from repro.experiments.common import tuner_factory

    return tuner_factory(tuner, rng=seed)


class FleetSupervisor:
    """Launch and supervise a coordinator + N shard fleet on localhost."""

    def __init__(
        self,
        n_shards: int,
        *,
        base_dir: Any,
        tuner: str = "pro",
        seed: int = 0,
        k: int = 1,
        estimator: str = "min",
        wire: str = "binary",
        lease_s: float = 2.0,
        sync: str = "batch",
        wal: bool = True,
        service_delay_us: int = 0,
        reply_cache: int | None = None,
        max_pending: int | None = None,
        host: str = "127.0.0.1",
        coordinator_port: int = 0,
        start_timeout: float = 60.0,
        rebalance: Any = False,
        join: list[tuple[str, int]] | None = None,
    ) -> None:
        #: externally launched shards to await instead of spawning our own
        #: (``repro fleet --join HOST:PORT``); each must be a ``repro serve
        #: --coordinator`` process pointed at this coordinator's address.
        self.join = [(str(h), int(p)) for h, p in join] if join else None
        if self.join is not None:
            n_shards = len(self.join)
        if n_shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self.n_shards = int(n_shards)
        self.base = Path(base_dir)
        self.base.mkdir(parents=True, exist_ok=True)
        self.host = host
        self._opts = dict(
            tuner=tuner, seed=int(seed), k=int(k), estimator=estimator,
            wire=wire, sync=sync, wal=bool(wal),
            service_delay_us=int(service_delay_us), reply_cache=reply_cache,
            max_pending=max_pending,
        )
        self.seed = int(seed)
        self._start_timeout = float(start_timeout)
        self.metrics = MetricsRegistry()
        if rebalance is True:
            planner = RebalancePlanner()
        elif rebalance:
            planner = rebalance  # a pre-configured RebalancePlanner
        else:
            planner = None
        self.planner = planner
        self.coordinator = FleetCoordinator(
            _tuner_factory(tuner, int(seed)),
            lease_s=float(lease_s),
            wal_dir=self.base / "coordinator-wal",
            sync=sync,
            metrics=self.metrics,
            rebalance=planner,
        )
        self._server = AsyncTcpServerTransport(
            self.coordinator, host=host, port=int(coordinator_port)
        )
        self.coordinator_port: int | None = None
        self._procs: dict[int, subprocess.Popen] = {}
        self._logs: list[Any] = []

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the coordinator transport and all shard subprocesses.

        In ``join`` mode no subprocesses are spawned — the call blocks
        until the externally launched shards have registered (they retry
        registration, so they may be started before or after this).
        """
        self._server.start()
        self.coordinator_port = self._server.port
        self.coordinator.start_lease_checker()
        if self.join is None:
            for i in range(self.n_shards):
                self._spawn_shard(i)
        self._wait_for_shards(self.n_shards)
        return self.host, self.coordinator_port

    def _shard_cmd(self, i: int, port_file: Path) -> list[str]:
        opts = self._opts
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--workload", "bench",
            "--wire", opts["wire"],
            "--host", self.host,
            "--port", "0",
            "--port-file", str(port_file),
            "--tuner", opts["tuner"],
            "--seed", str(opts["seed"]),
            "--k", str(opts["k"]),
            "--estimator", opts["estimator"],
            "--coordinator", f"{self.host}:{self.coordinator_port}",
            "--shard-id", str(i),
        ]
        if opts["wal"]:
            cmd += ["--wal-dir", str(self.base / f"shard-{i}-wal"),
                    "--sync", opts["sync"]]
        if opts["service_delay_us"]:
            cmd += ["--service-delay-us", str(opts["service_delay_us"])]
        if opts["reply_cache"] is not None:
            cmd += ["--reply-cache", str(opts["reply_cache"])]
        if opts["max_pending"] is not None:
            cmd += ["--max-pending", str(opts["max_pending"])]
        return cmd

    def _spawn_shard(self, i: int) -> None:
        port_file = self.base / f"shard-{i}.port"
        port_file.unlink(missing_ok=True)
        log = open(self.base / f"shard-{i}.log", "ab")
        self._logs.append(log)
        env = dict(os.environ)
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._procs[i] = subprocess.Popen(
            self._shard_cmd(i, port_file), stdout=log, stderr=log, env=env
        )

    def _wait_for_shards(self, n_alive: int) -> None:
        deadline = time.monotonic() + self._start_timeout
        while time.monotonic() < deadline:
            status = self.coordinator.handle({"op": "fleet_status"})
            alive = [
                s for s, info in status.get("shards", {}).items()
                if info["alive"]
            ]
            if len(alive) >= n_alive:
                return
            for i, proc in self._procs.items():
                if proc.poll() is not None and proc.returncode not in (0, None):
                    raise RuntimeError(
                        f"shard {i} exited with {proc.returncode} before "
                        f"registering (see {self.base / f'shard-{i}.log'})"
                    )
            time.sleep(0.05)
        raise TimeoutError(
            f"only {len(alive)}/{n_alive} shards registered within "
            f"{self._start_timeout}s"
        )

    def kill_shard(self, i: int, sig: int = signal.SIGKILL) -> None:
        """Kill shard *i*'s process (default SIGKILL: no cleanup, no flush)."""
        proc = self._procs.get(i)
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(sig)
        proc.wait(timeout=10.0)

    def stop(self) -> None:
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs.values():
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=10.0)
        self._procs.clear()
        self._server.stop()
        self.coordinator.stop()
        for log in self._logs:
            log.close()
        self._logs.clear()

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- conveniences --------------------------------------------------------------

    def client(self, session: str) -> TuningClient:
        assert self.coordinator_port is not None, "call start() first"
        return fleet_client(self.host, self.coordinator_port, session)

    def fleet_status(self) -> dict:
        return self.coordinator.handle({"op": "fleet_status"})

    def run_sweep(
        self, sessions: list[str], *, steps: int = 8
    ) -> dict[str, dict[str, Any]]:
        """Run the paired-seeding workload over *sessions*, one at a time."""
        results: dict[str, dict[str, Any]] = {}
        for idx, name in enumerate(sessions):
            client = self.client(name)
            client.open_session(name, k=self._opts["k"],
                                estimator=self._opts["estimator"])
            client.register(bench_space())
            session_workload(client, idx, steps=steps, seed=self.seed)
            results[name] = sweep_results(client)
            client.transport.close()
        return results
