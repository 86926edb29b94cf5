"""Concurrent multi-client stress tests for the TCP server."""

import json
import socket
import threading

import numpy as np
import pytest

from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import MinEstimator, SamplingPlan
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.client import TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.transport import TcpClientTransport
from repro.space import IntParameter, ParameterSpace

TRANSPORTS = [AsyncTcpServerTransport]


def make_space():
    return ParameterSpace([IntParameter("a", -10, 10), IntParameter("b", -10, 10)])


def objective(point):
    a, b = point
    return 1.0 + (a - 3) ** 2 + (b + 2) ** 2


def make_server(k=1):
    return TuningServer(
        lambda s: ParallelRankOrdering(s), plan=SamplingPlan(k, MinEstimator())
    )


@pytest.mark.parametrize("transport_cls", TRANSPORTS)
class TestConcurrentClients:
    def test_stress_no_lost_samples(self, transport_cls):
        """N clients x M iterations: every report lands, none double-counted."""
        n_clients, n_steps = 8, 40
        server = make_server(k=2)
        errors = []

        def worker(seed):
            try:
                with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                    client = TuningClient(transport)
                    client.register(make_space())
                    for step in range(n_steps):
                        config = client.fetch()
                        client.report(objective(config), step=step)
            except Exception as exc:  # pragma: no cover - diagnosed by assert
                errors.append(exc)

        with transport_cls(server, port=0) as tcp:
            threads = [
                threading.Thread(target=worker, args=(c,))
                for c in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        assert not errors
        # Ledger consistency: every single report was absorbed...
        assert server.n_reports == n_clients * n_steps
        # ...and the per-step barrier log saw every step index.
        assert server.step_times().size == n_steps

    def test_stress_batched_clients(self, transport_cls):
        """Same invariants when every client uses the batch frames."""
        n_clients, n_rounds, width = 4, 10, 8
        server = make_server(k=2)
        errors = []

        def worker(seed):
            try:
                with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                    client = TuningClient(transport)
                    client.register(make_space())
                    for step in range(n_rounds):
                        configs = client.fetch_many(width)
                        client.report_many(
                            [objective(c) for c in configs], step=step
                        )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with transport_cls(server, port=0) as tcp:
            threads = [
                threading.Thread(target=worker, args=(c,))
                for c in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors
        assert server.n_reports == n_clients * n_rounds * width

    def test_mixed_sessions_under_concurrency(self, transport_cls):
        """Clients on different sessions never cross-contaminate ledgers."""
        server = make_server()
        errors = []

        def worker(name):
            try:
                with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                    client = TuningClient(transport, session=name)
                    client.open_session(name)
                    client.register(make_space())
                    for step in range(25):
                        config = client.fetch()
                        client.report(objective(config), step=step)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with transport_cls(server, port=0) as tcp:
            threads = [
                threading.Thread(target=worker, args=(f"s{i}",))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors
        for i in range(4):
            assert server.session(f"s{i}").n_reports == 25
        assert server.n_reports == 0


@pytest.mark.parametrize("transport_cls", TRANSPORTS)
def test_malformed_then_valid_frames(transport_cls):
    """A bad frame earns an error response without poisoning the connection."""
    server = make_server()
    with transport_cls(server, port=0) as tcp:
        with socket.create_connection(("127.0.0.1", tcp.port), timeout=5) as s:
            fh = s.makefile("rb")
            s.sendall(b"{broken\n")
            assert not json.loads(fh.readline())["ok"]
            s.sendall(b'{"op": "status"}\n')
            assert json.loads(fh.readline())["ok"]
