"""The TCP server: round trips, batching, hardening, equivalence."""

import contextlib
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.harmony.admission import AdmissionController
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.client import TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.transport import (
    InProcessTransport,
    PipelinedTcpClientTransport,
    TcpClientTransport,
)
from repro.obs import Tracer, canonical_events
from repro.space import IntParameter, ParameterSpace


def make_space():
    return ParameterSpace([IntParameter("a", -10, 10), IntParameter("b", -10, 10)])


def objective(point):
    a, b = point
    return 1.0 + (a - 3) ** 2 + (b + 2) ** 2


def make_server(**kwargs):
    return TuningServer(
        lambda s: ParallelRankOrdering(s), plan=SamplingPlan(1), **kwargs
    )


class TestAsyncRoundTrips:
    def test_tuning_loop_over_async_tcp(self):
        server = make_server()
        with AsyncTcpServerTransport(server, port=0) as tcp:
            assert tcp.port is not None
            with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                client = TuningClient(transport)
                client.register(make_space())
                for step in range(150):
                    config = client.fetch()
                    client.report(objective(config), step=step)
                point, value, _ = client.best()
                assert objective(point) == value
        assert server.n_reports == 150

    def test_batched_fetch_report(self):
        server = make_server()
        with AsyncTcpServerTransport(server, port=0) as tcp:
            with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                client = TuningClient(transport)
                client.register(make_space())
                for step in range(20):
                    configs = client.fetch_many(4)
                    assert len(configs) == 4
                    client.report_many(
                        [objective(c) for c in configs], step=step
                    )
        assert server.n_reports == 80

    def test_pipelined_client(self):
        server = make_server()
        with AsyncTcpServerTransport(server, port=0) as tcp:
            with PipelinedTcpClientTransport("127.0.0.1", tcp.port) as transport:
                client = TuningClient(transport)
                client.register(make_space())
                # Many status queries genuinely in flight at once.
                futures = [
                    transport.submit({"op": "status"}) for _ in range(32)
                ]
                responses = [f.result(timeout=10) for f in futures]
                assert all(r["ok"] for r in responses)
                # And the ordinary tuning loop still works on top.
                for step in range(30):
                    configs = client.fetch_many(2)
                    client.report_many([objective(c) for c in configs], step=step)
        assert server.n_reports == 60

    def test_pipelined_client_survives_idle_time(self):
        """The socket timeout bounds sends, not silence: a connection left
        idle for longer than ``timeout`` still answers the next request."""
        with AsyncTcpServerTransport(make_server(), port=0) as tcp:
            with PipelinedTcpClientTransport(
                "127.0.0.1", tcp.port, timeout=0.3
            ) as transport:
                assert transport.request({"op": "status"})["ok"]
                time.sleep(0.6)
                assert transport._reader.is_alive()
                assert transport.request({"op": "status"})["ok"]

    def test_unencodable_message_frees_its_inflight_slot(self):
        with AsyncTcpServerTransport(make_server(), port=0) as tcp:
            with PipelinedTcpClientTransport(
                "127.0.0.1", tcp.port, timeout=10, max_inflight=2
            ) as transport:
                for _ in range(3):
                    with pytest.raises(TypeError):
                        transport.submit({"op": "status", "bad": object()})
                assert transport._pending == {}
                # Both slots are still free: this would block forever if a
                # failed encode had kept one.
                futures = [transport.submit({"op": "status"}) for _ in range(2)]
                assert all(f.result(timeout=10)["ok"] for f in futures)

    def test_double_start_rejected(self):
        tcp = AsyncTcpServerTransport(make_server(), port=0)
        tcp.start()
        try:
            with pytest.raises(RuntimeError):
                tcp.start()
        finally:
            tcp.stop()

    def test_stop_is_idempotent(self):
        tcp = AsyncTcpServerTransport(make_server(), port=0)
        tcp.start()
        tcp.stop()
        tcp.stop()  # second stop is a no-op, not an error

    def test_admitted_frames_are_answered_on_the_loop_thread(self):
        """With admission on, handlers run on the event loop itself: no
        dispatch thread is started, and every request is handled on the
        loop's own thread."""
        server = make_server()
        server.admission = AdmissionController(8)
        handled_on = set()
        handle = server.handle

        def recording_handle(message):
            handled_on.add(threading.get_ident())
            return handle(message)

        server.handle = recording_handle
        with AsyncTcpServerTransport(server, port=0) as tcp:
            with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                client = TuningClient(transport)
                client.register(make_space())
                for step in range(20):
                    config = client.fetch()
                    client.report(objective(config), step=step)
            dispatch = [
                t.name for t in threading.enumerate()
                if t.name.startswith("aio-dispatch")
            ]
            loop_thread = tcp._thread.ident
        assert dispatch == []
        assert handled_on == {loop_thread}
        assert server.n_reports == 20
        assert server.admission.admitted == server.admission.completed > 0


class TestAsyncHardening:
    def test_malformed_json_gets_error_response(self):
        with AsyncTcpServerTransport(make_server(), port=0) as tcp:
            with socket.create_connection(("127.0.0.1", tcp.port), timeout=5) as s:
                s.sendall(b"this is not json\n")
                resp = json.loads(s.makefile("rb").readline())
                assert not resp["ok"]

    def test_oversized_frame_rejected_and_closed(self):
        server = make_server()
        with AsyncTcpServerTransport(server, port=0, max_line_bytes=4096) as tcp:
            with socket.create_connection(("127.0.0.1", tcp.port), timeout=5) as s:
                s.sendall(b"x" * 10000 + b"\n")
                fh = s.makefile("rb")
                resp = json.loads(fh.readline())
                assert not resp["ok"]
                assert "exceeds" in resp["error"]
                assert fh.readline() == b""  # server closed the connection
            # The server survives and serves fresh connections.
            with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                assert TuningClient(transport).status() is not None

    def test_oversized_unterminated_frame_rejected(self):
        """A frame that never ends hits the cap without a newline."""
        server = make_server()
        with AsyncTcpServerTransport(server, port=0, max_line_bytes=2048) as tcp:
            with socket.create_connection(("127.0.0.1", tcp.port), timeout=5) as s:
                s.sendall(b"z" * 5000)  # no newline at all
                resp = json.loads(s.makefile("rb").readline())
                assert not resp["ok"]

    def test_mid_request_disconnect_tolerated(self):
        server = make_server()
        with AsyncTcpServerTransport(server, port=0) as tcp:
            s = socket.create_connection(("127.0.0.1", tcp.port), timeout=5)
            s.sendall(b'{"op": "stat')  # half a frame, then vanish
            s.close()
            with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                client = TuningClient(transport)
                client.register(make_space())
                config = client.fetch()
                client.report(objective(config), step=0)
        assert server.n_reports == 1


def drive_deterministic(transport, tracer):
    """One seeded single-client run; *transport* maps a server to a client
    transport context."""
    server = make_server(tracer=tracer)
    with transport(server) as client_transport:
        client = TuningClient(client_transport)
        client.register(make_space())
        for step in range(200):
            config = client.fetch()
            client.report(objective(config), step=step)
        best = client.best()
    return server, best


@contextlib.contextmanager
def over_tcp(server):
    with AsyncTcpServerTransport(server, port=0) as tcp:
        with TcpClientTransport("127.0.0.1", tcp.port) as transport:
            yield transport


@contextlib.contextmanager
def in_process(server):
    yield InProcessTransport(server)


class TestTransportEquivalence:
    def test_tcp_session_matches_in_process(self):
        """Paired seeding: serving over TCP must drive the tuner exactly as
        direct calls do — results must not depend on scheduling.

        Reuses the golden-trace harness (`canonical_events` with volatile
        fields stripped) to compare the two request streams event by
        event, on top of the end-state assertions.
        """
        tracer_tcp = Tracer(label="server")
        tracer_ref = Tracer(label="server")
        server_tcp, best_tcp = drive_deterministic(over_tcp, tracer_tcp)
        server_ref, best_ref = drive_deterministic(in_process, tracer_ref)

        assert list(best_tcp[0]) == list(best_ref[0])
        assert best_tcp[1] == best_ref[1]
        assert server_tcp.n_reports == server_ref.n_reports
        assert (
            server_tcp.step_times().tolist() == server_ref.step_times().tolist()
        )

        events_tcp = canonical_events(tracer_tcp.drain(), strip=True)
        events_ref = canonical_events(tracer_ref.drain(), strip=True)
        assert events_tcp == events_ref
        assert any(e["kind"] == "server.request" for e in events_tcp)

    def test_batched_path_matches_single_path(self):
        """fetch_many/report_many must reach the same answer as the loop."""

        def run(batched):
            server = make_server()
            with AsyncTcpServerTransport(server, port=0) as tcp:
                with TcpClientTransport("127.0.0.1", tcp.port) as transport:
                    client = TuningClient(transport)
                    client.register(make_space())
                    for step in range(100):
                        if batched:
                            configs = client.fetch_many(1)
                            client.report_many(
                                [objective(configs[0])], step=step
                            )
                        else:
                            config = client.fetch()
                            client.report(objective(config), step=step)
                    return client.best()

        best_b, best_s = run(True), run(False)
        assert list(best_b[0]) == list(best_s[0])
        assert best_b[1] == best_s[1]
