"""Overload battery: an undersized server degrades gracefully, then recovers.

The server here is deliberately tiny — a pending-work budget of 4 with a
modeled 2ms of service time per frame — and the offered load is far past
it.  Graceful degradation means, concretely:

* queue depth stays bounded by the budget (peak pending never exceeds it);
* the excess is refused with an explicit ``busy`` + ``retry_after`` hint,
  never a hang, a crash, or a silent drop;
* clients that honor the hint all finish, and the ledger balances —
  every admitted unit completes, every session's reports all land;
* after the storm passes, latency returns to the unloaded baseline and
  the controller reads fully drained.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.sampling import MinEstimator, SamplingPlan
from repro.experiments.common import tuner_factory
from repro.harmony.admission import AdmissionController
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.client import ServerBusy, TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.transport import TcpClientTransport
from repro.obs import MetricsRegistry
from repro.space import IntParameter, ParameterSpace

BUDGET = 4
N_WORKERS = 16
ROUNDS = 12


def make_space():
    return ParameterSpace([IntParameter("a", -10, 10), IntParameter("b", -10, 10)])


def make_server(*, service_delay_s=0.002, retry_after_s=0.005, sessions=()):
    server = TuningServer(
        tuner_factory("pro", rng=0),
        space=make_space(),
        plan=SamplingPlan(1, MinEstimator()),
        metrics=MetricsRegistry(max_samples=4096),
        service_delay_s=service_delay_s,
    )
    for name in sessions:
        server.handle({"op": "open_session", "session": name})
    server.admission = AdmissionController(BUDGET, retry_after_s=retry_after_s)
    return server


def measure_rtts(port, n, *, session=None):
    """n fetch/report round trips on a fresh connection; returns latencies."""
    latencies = []
    with TcpClientTransport("127.0.0.1", port) as transport:
        client = TuningClient(transport, session=session, busy_retries=1000,
                              busy_backoff_cap=0.05)
        client.register(make_space())
        for _ in range(n):
            start = time.perf_counter()
            point = client.fetch()
            client.report(1.0 + float(np.sum(point**2)))
            latencies.append(time.perf_counter() - start)
    return latencies


class TestOverloadBattery:
    def test_graceful_degradation_and_recovery(self):
        sessions = [f"ov-{i}" for i in range(N_WORKERS)]
        server = make_server(sessions=["probe", "post"] + sessions)
        with AsyncTcpServerTransport(server) as transport:
            port = transport.port

            # -- unloaded baseline ---------------------------------------
            base = measure_rtts(port, 30, session="probe")
            p99_base = float(np.percentile(base, 99))

            # -- the storm: ~4x more workers than the budget -------------
            finished = []
            busy_seen = []
            failures = []

            def worker(name):
                try:
                    with TcpClientTransport("127.0.0.1", port) as t:
                        client = TuningClient(
                            t, session=name,
                            busy_retries=10_000, busy_backoff_cap=0.05,
                        )
                        client.register(make_space())
                        for _ in range(ROUNDS):
                            point = client.fetch()
                            client.report(1.0 + float(np.sum(point**2)))
                        assert client.status()["n_reports"] == ROUNDS
                        busy_seen.append(client.busy_seen)
                        finished.append(name)
                except BaseException as exc:  # noqa: BLE001 - the ledger
                    failures.append((name, exc))

            threads = [
                threading.Thread(target=worker, args=(name,), daemon=True)
                for name in sessions
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)

            # zero crashes, zero hangs, zero desyncs: everyone finished
            # with every report accounted for
            assert not failures, failures
            assert sorted(finished) == sorted(sessions)

            snapshot = server.admission.snapshot()
            # bounded queue: depth never exceeded the budget
            assert snapshot["peak_pending"] <= BUDGET
            # the overload actually bit: work was shed, clients saw busy
            assert snapshot["shed"] > 0
            assert sum(busy_seen) > 0
            # the ledger balances and the server has fully drained
            assert snapshot["pending"] == 0
            assert snapshot["admitted"] == snapshot["completed"]
            # sheds surfaced in the server's metrics too
            counters = server.metrics.snapshot()["counters"]
            assert counters.get("server.shed_msgs", 0) > 0
            assert counters.get("server.shed_events", 0) > 0

            # -- recovery: back to the unloaded baseline -----------------
            post = measure_rtts(port, 30, session="post")
            p99_post = float(np.percentile(post, 99))
            assert p99_post <= max(2.0 * p99_base, p99_base + 0.05), (
                f"post-overload p99 {p99_post * 1e3:.1f}ms never recovered "
                f"(baseline {p99_base * 1e3:.1f}ms)"
            )
        assert server.admission.pending == 0


class TestGrantRelease:
    def test_units_are_released_before_the_reply(self):
        """A lock-step client holding its reply never finds its own request
        still charged: the grant is returned before the response is
        written."""
        server = make_server(service_delay_s=0.0, sessions=["s"])
        charged = 0
        with AsyncTcpServerTransport(server) as transport:
            with TcpClientTransport("127.0.0.1", transport.port) as t:
                client = TuningClient(t, session="s")
                client.register(make_space())
                for step in range(150):
                    point = client.fetch()
                    charged += server.admission.pending != 0
                    client.report(1.0 + float(np.sum(point**2)), step=step)
                    charged += server.admission.pending != 0
        assert charged == 0, (
            f"{charged} of 300 replies arrived with their units still charged"
        )


class TestBusyWire:
    """The busy signal itself, on both wire dialects, deterministically."""

    def _saturated_server(self):
        server = make_server(service_delay_s=0.0, sessions=["s"])
        # Fill the budget by hand: every subsequent arrival must shed.
        assert server.admission.try_admit(BUDGET)
        return server

    def test_json_busy_envelope_carries_retry_after(self):
        server = self._saturated_server()
        with AsyncTcpServerTransport(server) as transport:
            with TcpClientTransport("127.0.0.1", transport.port) as t:
                response = t.request({"op": "status", "seq": 41, "session": "s"})
        assert response["ok"] is False
        assert response["error"] == "busy"
        assert response["busy"] is True
        assert response["retry_after"] > 0
        assert response["seq"] == 41  # lock-step clients stay in sync

    def test_client_raises_server_busy_once_retries_exhausted(self):
        server = self._saturated_server()
        with AsyncTcpServerTransport(server) as transport:
            with TcpClientTransport("127.0.0.1", transport.port) as t:
                client = TuningClient(t, session="s", busy_retries=2,
                                      busy_backoff_cap=0.01)
                with pytest.raises(ServerBusy) as excinfo:
                    client.register(make_space())
        assert excinfo.value.retry_after > 0
        assert client.busy_seen == 2  # absorbed its whole budget first

    def test_binary_busy_frame_round_trips(self):
        server = make_server(service_delay_s=0.0, sessions=["s"])
        with AsyncTcpServerTransport(server) as transport:
            with TcpClientTransport("127.0.0.1", transport.port) as t:
                client = TuningClient(t, session="s", busy_retries=1000,
                                      busy_backoff_cap=0.01)
                client.register(make_space())
                assert client._binproto  # talking the binary wire
                # saturate *after* the handshake so only the wire op sheds
                assert server.admission.try_admit(BUDGET)
                with pytest.raises(ServerBusy) as excinfo:
                    t.fetch_many_wire("s", client.client_id, 4)
                assert excinfo.value.retry_after > 0
                # draining the budget heals it, same connection
                server.admission.complete(BUDGET)
                points, tokens = t.fetch_many_wire("s", client.client_id, 4)
                assert len(points) == 4 and len(tokens) == 4

    def test_busy_client_recovers_when_budget_drains(self):
        server = self._saturated_server()
        with AsyncTcpServerTransport(server) as transport:
            with TcpClientTransport("127.0.0.1", transport.port) as t:
                client = TuningClient(t, session="s", busy_retries=1000,
                                      busy_backoff_cap=0.01)
                # drain the hand-filled budget once the first arrival has
                # shed (a bounded wait: a loaded host may be slow to send it)
                def drain():
                    deadline = time.monotonic() + 10.0
                    while server.admission.shed == 0 and time.monotonic() < deadline:
                        time.sleep(0.001)
                    server.admission.complete(BUDGET)

                threading.Thread(target=drain, daemon=True).start()
                client.register(make_space())  # retries through the busy spell
                assert client.busy_seen > 0
                point = client.fetch()
                client.report(1.0 + float(np.sum(point**2)))
                assert client.status()["n_reports"] == 1
