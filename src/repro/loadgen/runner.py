"""The load generator: reproducible open- and closed-loop load.

Two canonical load models, both driving a *live* tuning server (JSON or
binary wire) through the real client stack:

* **closed loop** — ``sessions`` logical sessions each run ``steps``
  fetch/report rounds as fast as the server answers.  Concurrency is the
  knob; offered rate follows service time.  This is how the paper's
  applications actually behave (each rank blocks on its next
  configuration), and it is the model the capacity sweep uses.
* **open loop** — requests arrive on a schedule drawn from
  :mod:`repro.loadgen.arrivals` at a fixed mean ``rate``, regardless of
  how fast the server is answering.  Latency is measured from the
  *scheduled arrival*, so queueing delay counts (no coordinated
  omission); work the generator cannot even submit in time shows up as
  lag, and work the server refuses past the retry budget shows up
  against the error budget.

Everything is seeded: the arrival schedule, the session→worker pinning,
and the synthetic workload are all deterministic given the config, so a
capacity number is a *reproduction*, not an anecdote.

Each connection is one lock-step :class:`TcpClientTransport` driven by
one host thread, which takes its share of the logical sessions round by
round, so thousands of sessions fit on a small CI box: at most
``connections`` requests are in flight, however many sessions there are.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.harmony.client import ServerBusy, TuningClient
from repro.harmony.transport import TcpClientTransport
from repro.loadgen.arrivals import ARRIVALS, interarrival_times
from repro.loadgen.slo import LatencyRecorder, SloPolicy
from repro.space import IntParameter, ParameterSpace

__all__ = ["LoadgenConfig", "LoadReport", "LoadGenerator", "loadgen_space"]

#: open-loop per-worker queue bound: arrivals past this are dropped (and
#: counted as errors) instead of ballooning generator memory
_OPEN_QUEUE_BOUND = 4096


def loadgen_space() -> ParameterSpace:
    """The synthetic tunable space the generator registers with."""
    return ParameterSpace(
        [IntParameter("a", -10, 10), IntParameter("b", -10, 10)]
    )


def _workload_value(point: np.ndarray) -> float:
    """The synthetic 'measured step time' for a configuration."""
    a, b = float(point[0]), float(point[1])
    return 1.0 + (a - 3.0) ** 2 + (b + 2.0) ** 2


@dataclass(frozen=True)
class LoadgenConfig:
    """Everything one load point needs to be reproduced."""

    mode: str = "closed"  # "closed" | "open"
    sessions: int = 8  # logical sessions (protocol-level concurrency)
    steps: int = 4  # closed loop: fetch/report rounds per session
    duration_s: float = 5.0  # open loop: how long to offer load
    rate: float = 100.0  # open loop: mean arrivals per second
    arrival: str = "poisson"  # open loop: interarrival process
    tail_alpha: float = 1.5  # pareto arrivals: tail index (>1)
    connections: int = 4  # sockets == host threads
    wire: str = "binary"  # "binary" | "json"
    batch: int = 1  # configurations per fetch when > 1
    busy_retries: int = 16  # closed loop: sheds absorbed per call
    slo: SloPolicy = field(default_factory=SloPolicy)
    seed: int = 0
    session_prefix: str = "lg"

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.wire not in ("binary", "json"):
            raise ValueError(f"wire must be 'binary' or 'json', got {self.wire!r}")
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.connections < 1:
            raise ValueError(f"connections must be >= 1, got {self.connections}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"arrival must be one of {ARRIVALS}, got {self.arrival!r}"
            )


@dataclass
class LoadReport:
    """What one load point measured."""

    config: LoadgenConfig
    wall_s: float
    summary: dict  # LatencyRecorder.summary()
    violations: list[str]  # empty == SLO held
    busy_retried: int  # sheds absorbed inside client retry loops
    max_lag_ms: float = 0.0  # open loop: worst submit-behind-schedule

    @property
    def slo_ok(self) -> bool:
        return not self.violations

    @property
    def rps(self) -> float:
        """Successful requests per second over the measured window."""
        if self.wall_s <= 0:
            return 0.0
        return self.summary.get("ok", 0) / self.wall_s

    def to_dict(self) -> dict:
        return {
            "mode": self.config.mode,
            "sessions": self.config.sessions,
            "connections": self.config.connections,
            "wire": self.config.wire,
            "wall_s": round(self.wall_s, 4),
            "rps": round(self.rps, 2),
            "busy_retried": self.busy_retried,
            "max_lag_ms": round(self.max_lag_ms, 3),
            "slo_ok": self.slo_ok,
            "violations": list(self.violations),
            **self.summary,
        }


class LoadGenerator:
    """Drives one live server address with one :class:`LoadgenConfig`."""

    def __init__(
        self,
        host: str,
        port: int,
        config: LoadgenConfig | None = None,
        *,
        space: ParameterSpace | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.config = config if config is not None else LoadgenConfig()
        self.space = space if space is not None else loadgen_space()
        self.timeout = float(timeout)

    # -- plumbing -------------------------------------------------------------

    def _dial(self) -> TcpClientTransport:
        transport = TcpClientTransport(self.host, self.port, timeout=self.timeout)
        # The JSON wire declines the binary frames a server offers at register.
        transport.supports_binary = self.config.wire == "binary"
        return transport

    def _session_names(self) -> list[str]:
        return [f"{self.config.session_prefix}-{i}" for i in range(self.config.sessions)]

    def _make_clients(self, transport, names: list[str], *, busy_retries: int):
        """One registered client per logical session, all sharing *transport*."""
        clients = []
        for name in names:
            client = TuningClient(
                transport,
                session=name,
                busy_retries=busy_retries,
            )
            client.open_session(name)
            client.register(self.space)
            clients.append(client)
        return clients

    def _shard(self, names: list[str]) -> list[list[str]]:
        """Pin sessions to workers round-robin (deterministic)."""
        workers = min(self.config.connections, len(names))
        shards: list[list[str]] = [[] for _ in range(workers)]
        for i, name in enumerate(names):
            shards[i % workers].append(name)
        return shards

    # -- entry point ----------------------------------------------------------

    def run(self) -> LoadReport:
        if self.config.mode == "closed":
            return self._run_closed()
        return self._run_open()

    # -- closed loop ----------------------------------------------------------

    def _run_closed(self) -> LoadReport:
        cfg = self.config
        recorder = LatencyRecorder()
        shards = self._shard(self._session_names())
        barrier = threading.Barrier(len(shards) + 1)
        busy_total = [0] * len(shards)
        failures: list[BaseException] = []

        def worker(idx: int, names: list[str]) -> None:
            transport = self._dial()
            try:
                clients = self._make_clients(
                    transport, names, busy_retries=cfg.busy_retries
                )
                barrier.wait()  # register/warmup excluded from measurement
                for _ in range(cfg.steps):
                    for client in clients:
                        self._one_round(client, recorder)
                busy_total[idx] = sum(c.busy_seen for c in clients)
            except BaseException as exc:  # noqa: BLE001 - ledger, not control flow
                failures.append(exc)
                barrier.abort()
            finally:
                transport.close()

        threads = [
            threading.Thread(target=worker, args=(i, names), daemon=True)
            for i, names in enumerate(shards)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if failures:
            raise failures[0]
        return LoadReport(
            config=cfg,
            wall_s=wall,
            summary=recorder.summary(),
            violations=recorder.check(cfg.slo),
            busy_retried=sum(busy_total),
        )

    def _one_round(self, client: TuningClient, recorder: LatencyRecorder) -> None:
        """One fetch/report unit of work, timed end to end."""
        cfg = self.config
        start = time.perf_counter()
        try:
            if cfg.batch > 1:
                points = client.fetch_many(cfg.batch)
                client.report_many([_workload_value(p) for p in points])
            else:
                point = client.fetch()
                client.report(_workload_value(point))
        except ServerBusy:
            recorder.busy()  # shed past the retry budget
            return
        except (ConnectionError, OSError, TimeoutError, RuntimeError):
            recorder.error()
            return
        recorder.ok(time.perf_counter() - start)

    # -- open loop ------------------------------------------------------------

    def _run_open(self) -> LoadReport:
        cfg = self.config
        recorder = LatencyRecorder()
        names = self._session_names()
        shards = self._shard(names)
        queues: list[queue.Queue] = [
            queue.Queue(maxsize=_OPEN_QUEUE_BOUND) for _ in shards
        ]
        ready = threading.Barrier(len(shards) + 1)
        max_lag = [0.0] * len(shards)
        busy_total = [0] * len(shards)
        failures: list[BaseException] = []

        def worker(idx: int, my_names: list[str]) -> None:
            transport = self._dial()
            try:
                # Setup (open_session/register) retries through busy spells;
                # the *measured* phase sheds instead — a refused request is
                # a lost arrival — so the retry budget drops to 0 after.
                clients = dict(
                    zip(
                        my_names,
                        self._make_clients(
                            transport, my_names, busy_retries=10_000
                        ),
                    )
                )
                for client in clients.values():
                    client.busy_retries = 0
                ready.wait()
                while True:
                    job = queues[idx].get()
                    if job is None:
                        break
                    scheduled, name = job
                    lag = time.perf_counter() - scheduled
                    if lag > max_lag[idx]:
                        max_lag[idx] = lag
                    client = clients[name]
                    try:
                        if cfg.batch > 1:
                            points = client.fetch_many(cfg.batch)
                            client.report_many(
                                [_workload_value(p) for p in points]
                            )
                        else:
                            point = client.fetch()
                            client.report(_workload_value(point))
                    except ServerBusy:
                        busy_total[idx] += 1
                        recorder.busy()
                        continue
                    except (ConnectionError, OSError, TimeoutError, RuntimeError):
                        recorder.error()
                        continue
                    # Latency from *scheduled arrival*: queueing counts.
                    recorder.ok(time.perf_counter() - scheduled)
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)
                ready.abort()
            finally:
                transport.close()

        threads = [
            threading.Thread(target=worker, args=(i, names_i), daemon=True)
            for i, names_i in enumerate(shards)
        ]
        for thread in threads:
            thread.start()
        ready.wait()

        # Pace arrivals off a pre-drawn schedule (reproducible), assigning
        # each arrival to its session's pinned worker.
        rng = np.random.default_rng(cfg.seed)
        n_expected = max(16, int(cfg.rate * cfg.duration_s * 2))
        gaps = interarrival_times(
            cfg.arrival, cfg.rate, n_expected, rng=rng, tail_alpha=cfg.tail_alpha
        )
        start = time.perf_counter()
        deadline = start + cfg.duration_s
        next_at = start
        i = 0
        while True:
            next_at += float(gaps[i % gaps.size])
            i += 1
            if next_at >= deadline:
                break
            delay = next_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            name = names[(i - 1) % len(names)]
            widx = names.index(name) % len(shards)
            try:
                queues[widx].put_nowait((next_at, name))
            except queue.Full:
                recorder.error()  # generator-side drop: bounded memory
        for q in queues:
            q.put(None)
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if failures:
            raise failures[0]
        return LoadReport(
            config=cfg,
            wall_s=wall,
            summary=recorder.summary(),
            violations=recorder.check(cfg.slo),
            busy_retried=sum(busy_total),
            max_lag_ms=max(max_lag) * 1e3 if max_lag else 0.0,
        )
