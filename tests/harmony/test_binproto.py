"""Binary wire format: codec round trips, hostile-frame fuzzing, mixed
JSON+binary clients on one port, and JSON-vs-binary session parity.

The decoder is the server's attack surface: every fuzz test here asserts
the only failure mode for malformed bytes is :class:`WireError` (or a
clean ``("oversized",)`` from the splitter) — never an uncontrolled
exception, never a crash, never a silent mis-parse.
"""

import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.harmony import binproto, protocol
from repro.harmony.binproto import (
    BINPROTO_VERSION,
    FrameSplitter,
    HEADER_SIZE,
    MAGIC,
    MSG_ACK,
    MSG_ERROR,
    MSG_FETCH_MANY,
    MSG_POINTS,
    MSG_REPORT_MANY,
    WireError,
)
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


def make_server(*, binproto_on=True, tracer=None):
    return TuningServer(
        lambda s: ParallelRankOrdering(s),
        plan=SamplingPlan(1),
        binproto=binproto_on,
        tracer=tracer,
    )


# -- codec round trips --------------------------------------------------------------


class TestRoundTrip:
    @given(
        seq=st.integers(0, 2**32 - 1),
        client=st.integers(-1, 2**31 - 1),
        n=st.integers(1, protocol.MAX_BATCH_MSGS),
        session=st.text(max_size=40).filter(lambda s: len(s.encode()) < 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_fetch_many(self, seq, client, n, session):
        frame = binproto.encode_fetch_many(seq, session, client, n)
        items = FrameSplitter().feed(frame)
        assert items == [("bin", MSG_FETCH_MANY, seq, frame[HEADER_SIZE:])]
        got_client, got_n, got_session = binproto.decode_fetch_many(
            frame[HEADER_SIZE:]
        )
        assert (got_client, got_n, got_session) == (client, n, session)

    @given(
        client=st.integers(-1, 2**31 - 1),
        step=st.integers(-1, 2**31 - 1),
        times=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=64
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_report_many(self, client, step, times):
        tokens = np.arange(len(times), dtype=np.int32)
        arr = np.asarray(times)
        frame = binproto.encode_report_many(5, "s", client, step, tokens, arr)
        got = binproto.decode_report_many(frame[HEADER_SIZE:])
        got_client, got_step, got_session, got_tokens, got_times = got
        assert (got_client, got_step, got_session) == (client, step, "s")
        assert np.array_equal(got_tokens, tokens)
        assert np.array_equal(got_times, arr)
        assert not got_times.flags.writeable  # zero-copy view of the payload

    @given(
        n=st.integers(1, 64),
        dim=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_points_response(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-5, 5, (n, dim))
        tokens = rng.integers(0, 1 << 30, n).astype(np.int32)
        frame = binproto.encode_points(9, tokens, points)
        kind, got_tokens, got_points = binproto.decode_response(
            MSG_POINTS, frame[HEADER_SIZE:]
        )
        assert kind == "points"
        assert np.array_equal(got_tokens, tokens)
        assert np.array_equal(got_points, points)

    def test_ack_and_error(self):
        kind, n_ok, n_stale = binproto.decode_response(
            MSG_ACK, binproto.encode_ack(1, 7, 2)[HEADER_SIZE:]
        )
        assert (kind, n_ok, n_stale) == ("ack", 7, 2)
        kind, text = binproto.decode_response(
            MSG_ERROR, binproto.encode_error(1, "boom " * 100)[HEADER_SIZE:]
        )
        assert kind == "error"
        assert len(text.encode()) <= binproto.ERROR_TEXT_MAX


# -- hostile frames -----------------------------------------------------------------


class TestHostileFrames:
    @given(data=st.binary(max_size=512))
    @settings(max_examples=200, deadline=None)
    def test_splitter_never_raises_on_garbage(self, data):
        splitter = FrameSplitter()
        for item in splitter.feed(data):
            assert item[0] in ("json", "bin", "oversized")

    @given(data=st.binary(max_size=256), chunk=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_splitter_chunking_invariant(self, data, chunk):
        """Byte-at-a-time delivery yields the same frames as one chunk."""
        whole = FrameSplitter().feed(data)
        split = FrameSplitter()
        items = []
        for i in range(0, len(data), chunk):
            items.extend(split.feed(data[i : i + chunk]))
        # A trailing incomplete frame is pending in both; completed frames
        # must agree exactly.
        assert items == whole

    @given(cut=st.integers(0, 1))
    @settings(max_examples=10, deadline=None)
    def test_truncated_frame_stays_pending(self, cut):
        frame = binproto.encode_fetch_many(3, "sess", 1, 8)
        splitter = FrameSplitter()
        assert splitter.feed(frame[: len(frame) - 1 - cut]) == []
        items = splitter.feed(frame[len(frame) - 1 - cut :])
        assert len(items) == 1 and items[0][0] == "bin"

    def test_oversized_binary_frame_poisons_the_stream(self):
        huge = struct.pack(
            "<BBII", MAGIC, MSG_FETCH_MANY, 0, protocol.MAX_LINE_BYTES + 1
        )
        splitter = FrameSplitter()
        assert splitter.feed(huge) == [("oversized",)]
        assert splitter.oversized
        # Once desynchronized nothing further is parsed.
        assert splitter.feed(binproto.encode_fetch_many(1, "s", 1, 1)) == []

    @given(payload=st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_decoders_raise_only_wire_error(self, payload):
        for decode in (binproto.decode_fetch_many, binproto.decode_report_many):
            try:
                decode(payload)
            except WireError:
                pass
        for msg_type in (MSG_POINTS, MSG_ACK, MSG_ERROR, 0x55):
            try:
                binproto.decode_response(msg_type, payload)
            except WireError:
                pass

    @given(payload=st.binary(max_size=120), seed=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_corrupted_valid_frame_never_crashes(self, payload, seed):
        rng = np.random.default_rng(seed)
        frame = bytearray(
            binproto.encode_report_many(
                1, "s", 2, 3, np.arange(4, dtype=np.int32), np.ones(4)
            )
        )
        pos = int(rng.integers(HEADER_SIZE, len(frame)))
        frame[pos] ^= 0xFF
        try:
            binproto.decode_report_many(bytes(frame[HEADER_SIZE:]))
        except WireError:
            pass

    def test_batch_count_bounds_are_enforced(self):
        head = struct.pack("<iIH", 0, 0, 1) + b"s"
        with pytest.raises(WireError, match="outside"):
            binproto.decode_fetch_many(head)
        big = struct.pack("<iIH", 0, protocol.MAX_BATCH_MSGS + 1, 1) + b"s"
        with pytest.raises(WireError, match="outside"):
            binproto.decode_fetch_many(big)

    def test_dispatch_frame_answers_garbage_with_error_frame(self):
        server = make_server()
        out = binproto.dispatch_frame(server, MSG_REPORT_MANY, 11, b"\x00" * 3)
        items = FrameSplitter().feed(out)
        assert items[0][1] == MSG_ERROR and items[0][2] == 11

    def test_dispatch_frame_rejects_response_types(self):
        server = make_server()
        out = binproto.dispatch_frame(server, MSG_POINTS, 4, b"")
        kind, text = binproto.decode_response(MSG_ERROR, FrameSplitter().feed(out)[0][3])
        assert kind == "error"


# -- negotiation --------------------------------------------------------------------


class TestNegotiation:
    @staticmethod
    def _register_msg():
        from repro.space.serialize import space_to_spec

        return {
            "op": "register",
            "params": space_to_spec(make_space()),
            "version": protocol.PROTOCOL_VERSION,
        }

    def test_server_advertises_version_when_enabled(self):
        response = make_server().handle(self._register_msg())
        assert response["ok"]
        assert response["binproto"] == BINPROTO_VERSION

    def test_disabled_server_does_not_advertise(self):
        response = make_server(binproto_on=False).handle(self._register_msg())
        assert response["ok"]
        assert "binproto" not in response

    def test_in_process_client_stays_json(self):
        # The in-process transport has no byte stream to sniff — the client
        # must not switch even though the server advertises.
        client = TuningClient(InProcessTransport(make_server()))
        client.register(make_space())
        assert client._binproto is False

    def test_tcp_client_negotiates_binary(self):
        with AsyncTcpServerTransport(make_server(), port=0) as tcp:
            with TcpClientTransport("127.0.0.1", tcp.port) as t:
                client = TuningClient(t)
                client.register(make_space())
                assert client._binproto is True

    def test_json_wire_server_refuses_binary_frames(self):
        import socket

        with AsyncTcpServerTransport(make_server(), port=0, wire="json") as tcp:
            with socket.create_connection(("127.0.0.1", tcp.port), timeout=10) as s:
                s.sendall(binproto.encode_fetch_many(2, "default", 0, 4))
                file = s.makefile("rb")
                msg_type, seq, payload = binproto.read_frame(file)
        assert msg_type == MSG_ERROR and seq == 2
        _kind, text = binproto.decode_response(MSG_ERROR, payload)
        assert "disabled" in text


# -- mixed clients on one server ----------------------------------------------------


class TestMixedClients:
    @pytest.mark.parametrize("client_cls", [TcpClientTransport,
                                            PipelinedTcpClientTransport])
    def test_json_and_binary_clients_share_one_port(self, client_cls):
        server = make_server()
        width, rounds = 8, 30
        wires: dict[int, bool] = {}
        errors: list[Exception] = []

        def run_client(idx: int, legacy: bool):
            try:
                with client_cls("127.0.0.1", tcp.port, timeout=30) as t:
                    if legacy:
                        t.supports_binary = False  # a pre-binproto client
                    client = TuningClient(t)
                    client.register(make_space())
                    wires[idx] = client._binproto
                    for step in range(rounds):
                        configs = client.fetch_many(width)
                        client.report_many(
                            [objective(c) for c in configs], step=step
                        )
            except Exception as exc:  # pragma: no cover - assertion below
                errors.append(exc)

        with AsyncTcpServerTransport(server, port=0) as tcp:
            threads = [
                threading.Thread(target=run_client, args=(i, i % 2 == 0))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors
        assert [wires[i] for i in range(4)] == [False, True, False, True]
        assert server.n_reports == 4 * rounds * width
        best = server.handle({"op": "best"})
        assert best["ok"] and best["value"] == 1.0
        assert best["point"] == [3.0, -2.0]


# -- JSON vs binary session parity --------------------------------------------------


class TestWireParity:
    def _run_session(self, use_binary: bool, seed: int):
        """One batched tuning session; returns (fetched, best, trace)."""
        tracer = Tracer()
        server = make_server(binproto_on=use_binary, tracer=tracer)
        rng = np.random.default_rng(seed)  # paired noise across both wires
        fetched = []
        with AsyncTcpServerTransport(server, port=0) as tcp:
            with TcpClientTransport("127.0.0.1", tcp.port, timeout=30) as t:
                client = TuningClient(t)
                client.register(make_space())
                assert client._binproto is use_binary
                for step in range(40):
                    configs = client.fetch_many(16)
                    fetched.append(np.asarray(configs))
                    times = [
                        objective(c) + rng.uniform(0.0, 0.1) for c in configs
                    ]
                    client.report_many(times, step=step)
                best = client.best()
        return np.asarray(fetched), best, tracer.drain()

    def test_stripped_trace_and_trajectory_equality(self):
        json_fetched, json_best, json_trace = self._run_session(False, seed=42)
        bin_fetched, bin_best, bin_trace = self._run_session(True, seed=42)

        # The tuner must see an identical world through either wire: same
        # proposed configurations in the same order, same final optimum.
        assert np.array_equal(json_fetched, bin_fetched)
        assert np.array_equal(json_best[0], bin_best[0])
        assert json_best[1:] == bin_best[1:]

        # Wire-level events intentionally differ in granularity (one
        # server.request per JSON batch vs one tagged server.batch per
        # binary frame); everything *above* the wire must canonicalize to
        # the same stripped trace.
        wire_kinds = {"server.request", "server.batch"}
        strip = lambda events: [  # noqa: E731
            e for e in canonical_events(events) if e["kind"] not in wire_kinds
        ]
        assert strip(json_trace) == strip(bin_trace)

        # And the binary run must actually have used the binary wire.
        assert any(
            e.get("wire") == "binary" and e["kind"] == "server.batch"
            for e in bin_trace
        )
        assert not any(e.get("wire") == "binary" for e in json_trace)


class _JsonOps:
    """One-message JSON ops on a session (``op_fetch`` / ``op_report``)."""

    def __init__(self, session):
        self.session = session

    def fetch(self, client, cseq):
        response = self.session.op_fetch({"client_id": client, "cseq": cseq})
        assert response["ok"], response
        return response["point"], response["token"]

    def report(self, client, token, t, step, cseq):
        message = {"client_id": client, "token": token, "time": t, "step": step}
        if cseq is not None:
            message["cseq"] = cseq
        response = self.session.op_report(message)
        assert response["ok"], response
        return int(bool(response.get("stale")))


class _ArrayOps:
    """The same ops through the array core, one element at a time."""

    def __init__(self, session):
        self.session = session

    def fetch(self, client, cseq):
        points, tokens = self.session.fetch_many_arrays(
            1, client_id=client, cseq=cseq
        )
        return points[0].tolist(), int(tokens[0])

    def report(self, client, token, t, step, cseq):
        _, n_stale = self.session.report_many_arrays(
            np.array([token], dtype=np.int32), np.array([t]),
            client_id=client, step=step, cseq=cseq,
        )
        return n_stale


class TestSessionWireParity:
    """Both wires share one assignment rule and one absorption rule, so one
    script driven through ``op_fetch``/``op_report`` and through
    ``fetch_many_arrays(1)``/one-element ``report_many_arrays`` must leave
    paired sessions in the same state — with K = 2, requeues that make
    later reports stale, incumbent (-1) reports, and unstamped re-reports
    of an already-logged ``(step, client)`` cell."""

    CLIENTS = 3
    STEPS = 60

    def _drive(self, ops):
        session = ops.session
        for _ in range(self.CLIENTS):
            assert session.op_register({})["ok"]
        rng = np.random.default_rng(7)
        cseqs = [0] * self.CLIENTS

        def stamp(client):
            cseqs[client] += 1
            return cseqs[client] - 1

        trace, n_stale, n_incumbent = [], 0, 0
        for step in range(self.STEPS):
            held = [ops.fetch(c, stamp(c)) for c in range(self.CLIENTS)]
            if step % 3 == 1:
                # The in-flight samples are handed out again; the helpers'
                # reports land first, so the holders' reports may be stale.
                session.op_requeue()
                helpers = [ops.fetch(c, stamp(c)) for c in range(self.CLIENTS)]
                for c, (point, token) in enumerate(helpers):
                    t = objective(point) + rng.uniform(0.0, 0.1)
                    n_stale += ops.report(c, token, t, step, stamp(c))
                trace.extend(helpers)
            trace.extend(held)
            for c in rng.permutation(self.CLIENTS).tolist():
                point, token = held[c]
                n_incumbent += token < 0
                t = objective(point) + rng.uniform(0.0, 0.1)
                n_stale += ops.report(c, token, t, step, stamp(c))
            if step % 4 == 3:
                point, token = held[0]
                n_stale += ops.report(0, token, objective(point), step, None)
        return trace, n_stale, n_incumbent

    @staticmethod
    def _state_without_caches(session):
        state = session.state_dict()
        for client in state["clients"].values():
            del client["cache"]
        return state

    def test_json_ops_and_array_core_agree(self):
        json_session, array_session = (
            TuningServer(
                lambda s: ParallelRankOrdering(s), space=make_space(),
                plan=SamplingPlan(2),
            ).default_session
            for _ in range(2)
        )
        json_trace, json_stale, json_incumbent = self._drive(
            _JsonOps(json_session)
        )
        array_trace, array_stale, array_incumbent = self._drive(
            _ArrayOps(array_session)
        )
        assert json_trace == array_trace
        assert json_stale == array_stale
        assert json_incumbent == array_incumbent
        # the script must exercise what it claims to cover
        assert json_stale > 0 and json_incumbent > 0
        assert json_session.op_best() == array_session.op_best()
        assert self._state_without_caches(json_session) == (
            self._state_without_caches(array_session)
        )
