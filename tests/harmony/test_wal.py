"""The durability layer: WAL framing, recovery replay, exactly-once RPC.

The crash battery proper (SIGKILL-ing a real server subprocess) lives in
``test_crash_recovery.py``; this file covers the same machinery in-process,
where every intermediate state can be inspected: segment framing and
rotation, snapshot+truncate, replay equivalence, the per-client dedupe
contract, the ack-implies-durable invariant, and the client's
reconnect-and-replay path under injected connection drops.
"""

import numpy as np
import pytest

from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.faults import FaultPlan, dropping_factory
from repro.harmony.client import TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.transport import InProcessTransport
from repro.harmony.wal import (
    WalError,
    WalWriter,
    encode_record,
    read_segment,
    recover_server,
    replay_dir,
)
from repro.space import IntParameter, ParameterSpace


def make_space():
    return ParameterSpace([IntParameter("a", -8, 8), IntParameter("b", -8, 8)])


def factory(space):
    return ParallelRankOrdering(space)


def cost(point):
    a, b = point
    return 1.0 + (a - 2) ** 2 + (b + 3) ** 2


def drive(client, start, steps):
    for step in range(start, start + steps):
        config = client.fetch()
        client.report(cost(config), step=step)


def durable_server(wal_dir, **wal_kwargs):
    server = TuningServer(factory, plan=SamplingPlan(1))
    server.attach_wal(WalWriter(wal_dir, **wal_kwargs))
    return server


def checkpoint(server):
    response = server.handle({"op": "checkpoint"})
    assert response["ok"], response
    return response["snapshot"]


class TestFraming:
    def test_round_trip(self, tmp_path):
        wal = WalWriter(tmp_path)
        records = [{"t": "op", "m": {"op": "register", "i": i}} for i in range(7)]
        for record in records:
            wal.append(record)
        wal.close()
        segs = sorted(tmp_path.glob("wal-*.log"))
        assert len(segs) == 1
        read = [r for r, _ in read_segment(segs[0])]
        assert read == records

    def test_torn_tail_stops_cleanly(self, tmp_path):
        wal = WalWriter(tmp_path)
        wal.append({"t": "op", "m": {"i": 0}})
        wal.append({"t": "op", "m": {"i": 1}})
        wal.close()
        seg = next(tmp_path.glob("wal-*.log"))
        data = seg.read_bytes()
        seg.write_bytes(data[:-3])  # tear the final record
        read = [r for r, _ in read_segment(seg)]
        assert read == [{"t": "op", "m": {"i": 0}}]

    def test_crc_corruption_stops_cleanly(self, tmp_path):
        wal = WalWriter(tmp_path)
        wal.append({"t": "op", "m": {"i": 0}})
        wal.append({"t": "op", "m": {"i": 1}})
        wal.close()
        seg = next(tmp_path.glob("wal-*.log"))
        data = bytearray(seg.read_bytes())
        first_len = len(encode_record({"t": "op", "m": {"i": 0}}))
        data[first_len + 12] ^= 0xFF  # flip a payload byte of record 2
        seg.write_bytes(bytes(data))
        read = [r for r, _ in read_segment(seg)]
        assert read == [{"t": "op", "m": {"i": 0}}]

    def test_segment_rotation(self, tmp_path):
        wal = WalWriter(tmp_path, segment_bytes=256)
        for i in range(32):
            wal.append({"t": "op", "m": {"op": "x", "i": i}})
        wal.close()
        segs = sorted(tmp_path.glob("wal-*.log"))
        assert len(segs) > 1
        _, ops, stats = replay_dir(tmp_path)
        assert [op["m"]["i"] for op in ops] == list(range(32))
        assert stats["segments"] == len(segs)

    def test_writer_resumes_after_last_segment(self, tmp_path):
        wal = WalWriter(tmp_path)
        wal.append({"t": "op", "m": {"i": 0}})
        wal.close()
        wal2 = WalWriter(tmp_path)
        wal2.append({"t": "op", "m": {"i": 1}})
        wal2.close()
        _, ops, _ = replay_dir(tmp_path)
        assert [op["m"]["i"] for op in ops] == [0, 1]

    def test_bad_sync_mode_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WalWriter(tmp_path, sync="sometimes")


class TestRecovery:
    def test_replay_rebuilds_exact_state(self, tmp_path):
        server = durable_server(tmp_path)
        client = TuningClient(InProcessTransport(server), nonce="c0")
        client.register(make_space())
        drive(client, 0, 25)
        expected = checkpoint(server)
        server.close_wal()

        recovered = recover_server(factory, tmp_path, plan=SamplingPlan(1))
        assert checkpoint(recovered) == expected
        assert recovered.n_reports == 25

    def test_recovered_run_matches_uninterrupted(self, tmp_path):
        """The acceptance invariant, in-process: crash + replay + resume
        lands on results bit-identical to a never-crashed paired run."""
        baseline = TuningServer(factory, plan=SamplingPlan(1))
        base_client = TuningClient(InProcessTransport(baseline), nonce="c0")
        base_client.register(make_space())
        drive(base_client, 0, 40)

        server = durable_server(tmp_path)
        client = TuningClient(InProcessTransport(server), nonce="c0")
        client.register(make_space())
        drive(client, 0, 17)  # "crash" mid-sweep: drop the server entirely
        server.close_wal()
        recovered = recover_server(factory, tmp_path, plan=SamplingPlan(1))
        client.transport = InProcessTransport(recovered)
        client._register_message(resume=True)
        drive(client, 17, 23)

        assert checkpoint(recovered) == checkpoint(baseline)
        assert recovered.handle({"op": "best"}) == baseline.handle({"op": "best"})

    def test_snapshot_truncates_and_recovers(self, tmp_path):
        server = durable_server(tmp_path, snapshot_bytes=1)
        client = TuningClient(InProcessTransport(server), nonce="c0")
        client.register(make_space())
        drive(client, 0, 10)
        expected = checkpoint(server)
        assert server._wal.n_snapshots > 0
        # snapshot+truncate keeps the directory from accumulating segments
        snapshot, ops, _ = replay_dir(tmp_path)
        assert snapshot is not None
        server.close_wal()
        recovered = recover_server(factory, tmp_path, plan=SamplingPlan(1))
        assert checkpoint(recovered) == expected

    def test_recovery_truncates_torn_tail(self, tmp_path):
        server = durable_server(tmp_path)
        client = TuningClient(InProcessTransport(server), nonce="c0")
        client.register(make_space())
        drive(client, 0, 5)
        expected = checkpoint(server)
        server.close_wal()
        seg = sorted(tmp_path.glob("wal-*.log"))[-1]
        with open(seg, "ab") as fh:
            fh.write(b"\x07\x00\x00\x00garbage")  # a torn in-flight append
        recovered = recover_server(factory, tmp_path, plan=SamplingPlan(1))
        assert checkpoint(recovered) == expected
        # the torn bytes are gone: a fresh replay sees no corruption
        _, _, stats = replay_dir(tmp_path)
        assert stats["torn"] is None

    def test_multi_session_recovery(self, tmp_path):
        server = durable_server(tmp_path)
        client = TuningClient(InProcessTransport(server))
        client.open_session("alpha", k=2, estimator="mean")
        client.register(make_space())
        drive(client, 0, 8)
        expected = server.session("alpha").op_checkpoint()
        server.close_wal()
        recovered = recover_server(factory, tmp_path)
        session = recovered.session("alpha")
        assert session is not None
        assert session.plan.k == 2
        assert session.op_checkpoint() == expected

    def test_recovery_emits_metrics_and_trace(self, tmp_path):
        from repro.obs import MetricsRegistry
        from repro.obs.trace import Tracer

        server = durable_server(tmp_path)
        client = TuningClient(InProcessTransport(server), nonce="c0")
        client.register(make_space())
        drive(client, 0, 5)
        server.close_wal()
        metrics = MetricsRegistry()
        tracer = Tracer(label="recovery")
        recovered = recover_server(
            factory, tmp_path, plan=SamplingPlan(1),
            metrics=metrics, tracer=tracer,
        )
        counters = metrics.snapshot()["counters"]
        assert counters["wal.recoveries"] == 1
        assert counters["wal.replayed_records"] == 11  # register + 5*(fetch+report)
        kinds = [e["kind"] for e in tracer.drain()]
        assert "wal.recover" in kinds
        assert recovered.n_reports == 5


class TestExactlyOnce:
    def register(self, server, nonce="c0"):
        response = server.handle(
            {"op": "register",
             "params": [{"name": "a", "type": "int", "lower": -8, "upper": 8},
                        {"name": "b", "type": "int", "lower": -8, "upper": 8}],
             "nonce": nonce}
        )
        assert response["ok"], response
        return response["client_id"]

    def test_duplicate_report_does_not_mutate(self):
        server = TuningServer(factory, plan=SamplingPlan(1))
        cid = self.register(server)
        fetched = server.handle({"op": "fetch", "client_id": cid, "cseq": 0})
        message = {"op": "report", "client_id": cid, "token": fetched["token"],
                   "time": 1.5, "step": 0, "cseq": 1}
        first = server.handle(message)
        assert first["ok"]
        snap = checkpoint(server)
        for _ in range(3):
            again = server.handle(dict(message))
            assert again["ok"]
        assert checkpoint(server) == snap
        assert server.n_reports == 1

    def test_fetch_retry_returns_original_assignment(self):
        server = TuningServer(factory, plan=SamplingPlan(1))
        cid = self.register(server)
        first = server.handle({"op": "fetch", "client_id": cid, "cseq": 0})
        again = server.handle({"op": "fetch", "client_id": cid, "cseq": 0})
        assert again == first
        # and the retry did not consume a second assignment slot
        assert sum(server.default_session._assigned) == 1

    def test_unstamped_requests_are_not_deduplicated(self):
        server = TuningServer(factory, plan=SamplingPlan(1))
        cid = self.register(server)
        server.handle({"op": "fetch", "client_id": cid})
        server.handle({"op": "fetch", "client_id": cid})
        assert sum(server.default_session._assigned) == 2

    def test_register_nonce_is_idempotent(self):
        server = TuningServer(factory, plan=SamplingPlan(1))
        cid = self.register(server, nonce="nn")
        for _ in range(3):
            response = server.handle({"op": "register", "nonce": "nn"})
            assert response["client_id"] == cid
            assert response["resumed"] is True
        fresh = server.handle({"op": "register", "nonce": "other"})
        assert fresh["client_id"] == cid + 1

    def test_resume_unknown_client_rejected(self):
        server = TuningServer(factory, plan=SamplingPlan(1))
        self.register(server)
        response = server.handle({"op": "register", "resume": 99})
        assert not response["ok"]

    def test_evicted_fetch_reply_is_an_error(self):
        from repro.harmony import server as server_mod

        server = TuningServer(factory, plan=SamplingPlan(1))
        cid = self.register(server)
        span = server_mod._REPLY_CACHE + 4
        for cseq in range(span):
            fetched = server.handle({"op": "fetch", "client_id": cid,
                                     "cseq": 2 * cseq})
            server.handle({"op": "report", "client_id": cid,
                           "token": fetched["token"], "time": 1.0,
                           "step": cseq, "cseq": 2 * cseq + 1})
        stale_fetch = server.handle({"op": "fetch", "client_id": cid, "cseq": 0})
        assert not stale_fetch["ok"] and "evicted" in stale_fetch["error"]
        # an evicted *report* retry still acks (the measurement is absorbed)
        stale_report = server.handle({"op": "report", "client_id": cid,
                                      "token": 0, "time": 1.0, "step": 0,
                                      "cseq": 1})
        assert stale_report["ok"] and stale_report["duplicate"] is True

    def test_duplicate_binary_report_many(self):
        server = TuningServer(factory, plan=SamplingPlan(1))
        cid = self.register(server)
        session = server.default_session
        points, tokens = session.fetch_many_arrays(4, client_id=cid, cseq=0)
        n_ok, n_stale = session.report_many_arrays(
            tokens, np.full(4, 2.0), client_id=cid, step=0, cseq=1
        )
        assert (n_ok, n_stale) == (4, 0)
        snap = checkpoint(server)
        again = session.report_many_arrays(
            tokens, np.full(4, 2.0), client_id=cid, step=0, cseq=1
        )
        assert again == (4, 0)
        assert checkpoint(server) == snap
        retry_points, retry_tokens = session.fetch_many_arrays(
            4, client_id=cid, cseq=0
        )
        np.testing.assert_array_equal(retry_points, points)
        np.testing.assert_array_equal(retry_tokens, tokens)


class TestAckImpliesDurable:
    def test_every_acked_report_is_in_the_log(self, tmp_path):
        """Regression for the group-commit placement: by the time a client
        holds an ACK, the report must already be replayable from disk."""
        server = durable_server(tmp_path, sync="batch")
        with AsyncTcpServerTransport(server, port=0) as transport:
            from repro.harmony.transport import TcpClientTransport

            with TcpClientTransport("127.0.0.1", transport.port) as conn:
                client = TuningClient(conn, nonce="c0")
                client.register(make_space())
                for step in range(6):
                    config = client.fetch()
                    client.report(cost(config), step=step)
                    # no flush, no close: whatever is durable now is what a
                    # SIGKILL would leave behind
                    _, ops, _ = replay_dir(tmp_path)
                    acked = [op for op in ops if op["m"].get("op") == "report"]
                    assert len(acked) == step + 1
        server.close_wal()

    def test_read_only_round_trip_commits_nothing(self, tmp_path):
        """A chunk that appended nothing (here a ``best`` query after a
        committed report) costs no fsync."""
        from repro.harmony.transport import TcpClientTransport

        server = TuningServer(factory, plan=SamplingPlan(1))
        wal = WalWriter(tmp_path, sync="batch")
        server.attach_wal(wal)
        with AsyncTcpServerTransport(server, port=0) as transport:
            with TcpClientTransport("127.0.0.1", transport.port) as conn:
                client = TuningClient(conn, nonce="c0")
                client.register(make_space())
                client.report(cost(client.fetch()), step=0)
                committed = wal.n_commits
                assert committed > 0
                client.best()
                assert wal.n_commits == committed
                client.report(cost(client.fetch()), step=1)
                assert wal.n_commits > committed
        server.close_wal()

    @pytest.mark.parametrize(
        "sync,fsyncs", [("batch", 1), ("always", 1), ("off", 0)]
    )
    def test_commit_without_appends_is_a_no_op(
        self, tmp_path, monkeypatch, sync, fsyncs
    ):
        import repro.harmony.wal as wal_module

        calls = []
        real_fsync = wal_module.os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", counting_fsync)
        wal = WalWriter(tmp_path, sync=sync)
        wal.append({"t": "op", "m": {"op": "requeue", "session": "default"}})
        for _ in range(3):
            wal.commit()
        assert len(calls) == fsyncs
        assert wal.n_commits == fsyncs
        _, ops, _ = replay_dir(tmp_path)
        assert len(ops) == 1
        wal.close()

    def test_concurrent_commits_never_skip_a_pending_append(self, tmp_path):
        """Stress for the clean/dirty flag: six threads (more than the
        cores) append and commit with a short switch interval; after each
        commit returns, the thread's own record must already be in the
        file.  A commit that wrongly saw the log clean would leave the
        record in the userspace buffer, invisible here."""
        import sys
        import threading

        wal = WalWriter(tmp_path, sync="batch")
        segment = tmp_path / "wal-00000000.log"
        missing = []

        def worker(w):
            for i in range(60):
                record = {"t": "op", "m": {"op": "requeue", "w": w, "i": i}}
                wal.append(record)
                wal.commit()
                if encode_record(record) not in segment.read_bytes():
                    missing.append((w, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert missing == []
        assert wal.n_appends == 360
        wal.close()

    def test_async_stop_flushes_pending_appends(self, tmp_path):
        server = durable_server(tmp_path, sync="off")
        with AsyncTcpServerTransport(server, port=0):
            # an append that never went through a request's group commit
            server.wal_append({"t": "op", "m": {"op": "requeue",
                                                "session": "default"}})
        _, ops, _ = replay_dir(tmp_path)
        assert {"t": "op", "m": {"op": "requeue", "session": "default"}} in ops


class TestReconnect:
    def test_client_survives_scheduled_connection_drops(self, tmp_path):
        """Injected lost-ACK drops leave results identical to a clean run."""
        baseline = TuningServer(factory, plan=SamplingPlan(1))
        base_client = TuningClient(InProcessTransport(baseline), nonce="c0")
        base_client.register(make_space())
        drive(base_client, 0, 30)

        server = TuningServer(factory, plan=SamplingPlan(1))
        plan = FaultPlan(seed=11, conn_drop=0.25)
        make = lambda: InProcessTransport(server)
        client = TuningClient(
            transport_factory=dropping_factory(make, plan),
            nonce="c0", reconnect_delay=0.0,
        )
        client.register(make_space())
        drive(client, 0, 30)

        assert checkpoint(server) == checkpoint(baseline)
        assert server.handle({"op": "best"}) == baseline.handle({"op": "best"})

    def test_drop_schedule_actually_fires(self):
        plan = FaultPlan(seed=11, conn_drop=0.25)
        fired = sum(plan.conn_drop_at(0, i) for i in range(61))
        assert fired > 0
        # deterministic: the same key always answers the same way
        assert [plan.conn_drop_at(0, i) for i in range(61)] == [
            plan.conn_drop_at(0, i) for i in range(61)
        ]
