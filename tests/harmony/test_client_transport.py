"""Integration tests: client API over in-process and TCP transports."""

import threading

import numpy as np
import pytest

from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.client import TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.transport import InProcessTransport, TcpClientTransport
from repro.space import IntParameter, ParameterSpace


def make_space():
    return ParameterSpace([IntParameter("a", -10, 10), IntParameter("b", -10, 10)])


def objective(point):
    a, b = point
    return 1.0 + (a - 3) ** 2 + (b + 2) ** 2


def make_server():
    return TuningServer(lambda s: ParallelRankOrdering(s), plan=SamplingPlan(1))


class TestClientInProcess:
    def test_full_tuning_loop(self):
        server = make_server()
        client = TuningClient(InProcessTransport(server))
        client.register(make_space())
        for step in range(600):
            config = client.fetch()
            client.report(objective(config), step=step)
        point, value, converged = client.best()
        assert converged
        assert list(point) == [3.0, -2.0]
        assert value == 1.0

    def test_fetch_before_register_raises(self):
        client = TuningClient(InProcessTransport(make_server()))
        with pytest.raises(RuntimeError):
            client.fetch()

    def test_report_without_fetch_raises(self):
        client = TuningClient(InProcessTransport(make_server()))
        client.register(make_space())
        with pytest.raises(RuntimeError):
            client.report(1.0)

    def test_double_report_raises(self):
        client = TuningClient(InProcessTransport(make_server()))
        client.register(make_space())
        client.fetch()
        client.report(1.0)
        with pytest.raises(RuntimeError):
            client.report(1.0)

    def test_as_dict(self):
        client = TuningClient(InProcessTransport(make_server()))
        client.register(make_space())
        config = client.fetch()
        d = client.as_dict(config)
        assert set(d) == {"a", "b"}
        client.report(objective(config))

    def test_status(self):
        client = TuningClient(InProcessTransport(make_server()))
        client.register(make_space())
        assert client.status()["registered"]

    def test_server_error_surfaces(self):
        client = TuningClient(InProcessTransport(make_server()))
        with pytest.raises(RuntimeError, match="tuning server error"):
            client.status()  # allowed, registered False — not an error
            client._call({"op": "nonsense"})


class TestTcpTransport:
    def test_tcp_round_trip(self):
        server = make_server()
        with AsyncTcpServerTransport(server, port=0) as tcp:
            assert tcp.port is not None
            with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                client = TuningClient(transport)
                client.register(make_space())
                for step in range(120):
                    config = client.fetch()
                    client.report(objective(config), step=step)
                point, value, _ = client.best()
                assert objective(point) == value

    def test_multiple_tcp_clients(self):
        server = make_server()
        with AsyncTcpServerTransport(server, port=0) as tcp:
            results = []
            errors = []

            def worker():
                try:
                    with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                        client = TuningClient(transport)
                        client.register(make_space())
                        for step in range(60):
                            config = client.fetch()
                            client.report(objective(config), step=step)
                        results.append(client.best())
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert len(results) == 3
            # Server reconstructed barrier times for the reported steps.
            assert server.step_times().size == 60

    def test_malformed_json_gets_error_response(self):
        import json
        import socket

        server = make_server()
        with AsyncTcpServerTransport(server, port=0) as tcp:
            with socket.create_connection(("127.0.0.1", tcp.port), timeout=5) as s:
                s.sendall(b"this is not json\n")
                fh = s.makefile("rb")
                resp = json.loads(fh.readline())
                assert not resp["ok"]

    def test_double_start_rejected(self):
        tcp = AsyncTcpServerTransport(make_server(), port=0)
        tcp.start()
        try:
            with pytest.raises(RuntimeError):
                tcp.start()
        finally:
            tcp.stop()
