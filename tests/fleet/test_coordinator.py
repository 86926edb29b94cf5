"""Coordinator behavior: leases, routing, redirects, re-homing, agents."""

import threading
import time

import pytest

from repro.experiments.common import tuner_factory
from repro.fleet.client import FleetResolver, fleet_client
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.launch import bench_space
from repro.fleet.shard import ShardAgent
from repro.harmony import binproto
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.client import ServerRedirect, TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.transport import InProcessTransport, TcpClientTransport
from repro.obs import MetricsRegistry
from tests.helpers import wait_for


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t


def make_coordinator(**kwargs):
    kwargs.setdefault("clock", FakeClock())
    return FleetCoordinator(tuner_factory("pro", rng=0), **kwargs)


def register(coord, shard=None, port=7000):
    message = {"op": "register_shard", "host": "127.0.0.1",
               "port": port if shard is None else port + shard}
    if shard is not None:
        message["shard"] = shard
    return coord.handle(message)


class TestLeases:
    def test_register_assigns_sequential_ids(self):
        coord = make_coordinator(lease_s=5.0)
        assert register(coord)["shard"] == 0
        assert register(coord)["shard"] == 1

    def test_heartbeat_keeps_shard_alive_past_one_lease(self):
        clock = FakeClock()
        coord = make_coordinator(lease_s=5.0, clock=clock)
        register(coord, shard=0)
        clock.t = 4.0
        assert coord.handle({"op": "heartbeat", "shard": 0})["alive"]
        clock.t = 8.0  # past the original lease, inside the renewed one
        assert coord.check_leases() == []
        assert coord.registry.is_alive(0)

    def test_missed_heartbeats_expire_the_shard(self):
        clock = FakeClock()
        coord = make_coordinator(lease_s=5.0, clock=clock)
        register(coord, shard=0)
        clock.t = 6.0
        assert coord.check_leases() == [0]
        assert not coord.registry.is_alive(0)
        # the late heartbeat is refused: the shard must re-register
        assert not coord.handle({"op": "heartbeat", "shard": 0})["alive"]

    def test_heartbeat_unknown_shard_not_alive(self):
        coord = make_coordinator()
        assert not coord.handle({"op": "heartbeat", "shard": 3})["alive"]

    def test_invalid_lease_rejected(self):
        with pytest.raises(ValueError, match="lease_s"):
            make_coordinator(lease_s=0.0)


class TestRouting:
    def test_locate_assigns_new_session_to_least_loaded(self):
        coord = make_coordinator()
        register(coord, shard=0)
        register(coord, shard=1)
        first = coord.handle({"op": "locate", "session": "a"})
        second = coord.handle({"op": "locate", "session": "b"})
        assert first["ok"] and second["ok"]
        assert {first["redirect"]["shard"], second["redirect"]["shard"]} == {0, 1}

    def test_locate_is_sticky(self):
        coord = make_coordinator()
        register(coord, shard=0)
        register(coord, shard=1)
        owner = coord.handle({"op": "locate", "session": "a"})["redirect"]
        for _ in range(3):
            again = coord.handle({"op": "locate", "session": "a"})["redirect"]
            assert again == owner

    def test_locate_with_no_shards_is_an_error(self):
        coord = make_coordinator()
        response = coord.handle({"op": "locate", "session": "a"})
        assert not response["ok"]
        assert "no live shards" in response["error"]

    def test_session_op_gets_redirect_envelope(self):
        coord = make_coordinator()
        register(coord, shard=0, port=7000)
        response = coord.handle({"op": "status", "session": "a"})
        assert not response["ok"]
        assert response["redirect"]["port"] == 7000

    def test_client_surfaces_redirect_as_server_redirect(self):
        coord = make_coordinator()
        register(coord, shard=0, port=7123)
        client = TuningClient(InProcessTransport(coord), session="a")
        with pytest.raises(ServerRedirect) as info:
            client.status()
        assert info.value.shard == 0
        assert info.value.port == 7123

    def test_session_op_without_session_is_plain_error(self):
        coord = make_coordinator()
        register(coord, shard=0)
        response = coord.handle({"op": "fetch"})
        assert not response["ok"] and "redirect" not in response

    def test_unknown_op_is_an_error(self):
        coord = make_coordinator()
        assert not coord.handle({"op": "launch_missiles"})["ok"]

    def test_fleet_status_shape(self):
        clock = FakeClock()
        coord = make_coordinator(lease_s=5.0, clock=clock)
        register(coord, shard=0)
        coord.handle({"op": "locate", "session": "a"})
        status = coord.handle({"op": "fleet_status"})
        assert status["ok"]
        assert status["shards"]["0"]["alive"]
        assert status["shards"]["0"]["sessions"] == 1
        assert status["sessions"] == {"a": 0}


def _one_frame(raw):
    """Split one encoded frame back into (msg_type, seq, payload)."""
    ((_, msg_type, seq, payload),) = binproto.FrameSplitter().feed(raw)
    return msg_type, seq, payload


class TestBinprotoLocate:
    def test_locate_frame_round_trip(self):
        coord = make_coordinator()
        register(coord, shard=0, port=7050)
        msg_type, seq, payload = _one_frame(binproto.encode_locate(9, "mysession"))
        out = binproto.dispatch_frame(coord, msg_type, seq, payload)
        out_type, out_seq, out_payload = _one_frame(out)
        assert out_seq == 9
        kind, shard, host, port = binproto.decode_response(out_type, out_payload)
        assert (kind, shard, host, port) == ("redirect", 0, "127.0.0.1", 7050)

    def test_locate_frame_against_plain_server_errors(self):
        server = TuningServer(tuner_factory("pro", rng=0))
        msg_type, seq, payload = _one_frame(binproto.encode_locate(3, "x"))
        out = binproto.dispatch_frame(server, msg_type, seq, payload)
        out_type, _, out_payload = _one_frame(out)
        kind, text = binproto.decode_response(out_type, out_payload)
        assert kind == "error" and "does not route" in text

    def test_locate_frame_no_shards_errors(self):
        coord = make_coordinator()
        msg_type, seq, payload = _one_frame(binproto.encode_locate(1, "x"))
        out = binproto.dispatch_frame(coord, msg_type, seq, payload)
        out_type, _, out_payload = _one_frame(out)
        kind, text = binproto.decode_response(out_type, out_payload)
        assert kind == "error"

    def test_malformed_locate_payloads(self):
        with pytest.raises(binproto.WireError):
            binproto.decode_locate(b"")
        with pytest.raises(binproto.WireError):
            binproto.decode_locate(b"\x05\x00ab")  # slen says 5, 2 given
        with pytest.raises(binproto.WireError):
            binproto.decode_response(binproto.MSG_REDIRECT, b"\x00")


class TestDurability:
    def test_restart_recovers_registry_with_fresh_leases(self, tmp_path):
        clock = FakeClock()
        coord = make_coordinator(
            lease_s=5.0, wal_dir=tmp_path / "wal", clock=clock
        )
        register(coord, shard=0)
        register(coord, shard=1)
        coord.handle({"op": "locate", "session": "a"})
        coord.handle({"op": "expire_shard", "shard": 1})
        coord.stop()

        clock2 = FakeClock(1000.0)  # a restart resets monotonic time
        coord2 = make_coordinator(
            lease_s=5.0, wal_dir=tmp_path / "wal", clock=clock2
        )
        assert coord2.registry.alive_shards() == [0]
        assert coord2.registry.owner("a") is not None
        # the surviving shard got a fresh restart-grace lease on the new clock
        assert coord2.registry.shards[0]["until"] == pytest.approx(1005.0)
        coord2.stop()


def _start_shard(tmp_path, name, *, wal=True):
    """A real TuningServer shard behind a TCP transport (no subprocess)."""
    wal_dir = tmp_path / f"{name}-wal"
    if wal:
        from repro.harmony.wal import recover_server

        server = recover_server(
            tuner_factory("pro", rng=0), wal_dir, binproto=False, sync="batch"
        )
    else:
        server = TuningServer(tuner_factory("pro", rng=0), binproto=False)
    transport = AsyncTcpServerTransport(server, host="127.0.0.1", port=0)
    transport.start()
    return server, transport, wal_dir


class TestRehoming:
    def test_expired_shard_sessions_adopted_bit_identically(self, tmp_path):
        clock = FakeClock()
        coord = make_coordinator(lease_s=5.0, clock=clock)
        server_a, ta, wal_a = _start_shard(tmp_path, "a")
        server_b, tb, wal_b = _start_shard(tmp_path, "b")
        coord.handle({"op": "register_shard", "host": "127.0.0.1",
                      "port": ta.port, "wal_dir": str(wal_a)})
        coord.handle({"op": "register_shard", "host": "127.0.0.1",
                      "port": tb.port, "wal_dir": str(wal_b)})
        redirect = coord.handle({"op": "locate", "session": "s"})["redirect"]
        shard_a = redirect["shard"]
        assert redirect["port"] == ta.port  # shard a registered first

        # run some real tuning traffic against shard a
        client = TuningClient(
            TcpClientTransport("127.0.0.1", ta.port), session="s"
        )
        client.open_session("s")
        client.register(bench_space())
        for step in range(4):
            point = client.fetch()
            client.report(1.0 + float(point[0]) ** 2, step=step)
        before = client._call({"op": "checkpoint"})["snapshot"]
        client.transport.close()

        # shard a "dies": stop its transport, let its lease lapse while
        # shard b keeps heartbeating
        ta.stop()
        clock.t = 6.0
        coord.handle({"op": "heartbeat", "shard": 1})
        clock.t = 10.0
        assert coord.check_leases() == [shard_a]

        # the session now lives on shard b, rebuilt from shard a's WAL
        moved = coord.handle({"op": "locate", "session": "s"})["redirect"]
        assert moved["port"] == tb.port
        survivor = TuningClient(
            TcpClientTransport("127.0.0.1", tb.port), session="s"
        )
        after = survivor._call({"op": "checkpoint"})["snapshot"]
        assert after == before
        survivor.transport.close()
        tb.stop()
        server_a.close_wal()
        server_b.close_wal()
        coord.stop()

    def test_rehome_without_wal_reopens_fresh(self, tmp_path):
        clock = FakeClock()
        metrics = MetricsRegistry()
        coord = make_coordinator(lease_s=5.0, clock=clock, metrics=metrics)
        server_a, ta, _ = _start_shard(tmp_path, "a", wal=False)
        server_b, tb, _ = _start_shard(tmp_path, "b", wal=False)
        coord.handle({"op": "register_shard", "host": "127.0.0.1",
                      "port": ta.port, "wal_dir": None})
        coord.handle({"op": "register_shard", "host": "127.0.0.1",
                      "port": tb.port, "wal_dir": None})
        coord.handle({"op": "locate", "session": "s"})
        ta.stop()
        clock.t = 6.0
        coord.handle({"op": "heartbeat", "shard": 1})
        clock.t = 10.0
        coord.check_leases()
        moved = coord.handle({"op": "locate", "session": "s"})["redirect"]
        assert moved["port"] == tb.port
        # no WAL to recover from: available again, but counted as lost
        counters = metrics.snapshot()["counters"]
        assert counters.get("fleet.lost_sessions", 0) == 1
        assert counters.get("fleet.rehomed_sessions", 0) == 0
        tb.stop()
        coord.stop()

    def test_no_survivor_keeps_mapping_and_errors_locate(self, tmp_path):
        clock = FakeClock()
        coord = make_coordinator(lease_s=5.0, clock=clock)
        server_a, ta, wal_a = _start_shard(tmp_path, "a")
        coord.handle({"op": "register_shard", "host": "127.0.0.1",
                      "port": ta.port, "wal_dir": str(wal_a)})
        coord.handle({"op": "locate", "session": "s"})
        ta.stop()
        clock.t = 10.0
        coord.check_leases()
        response = coord.handle({"op": "locate", "session": "s"})
        assert not response["ok"]
        # the mapping survives so a future shard can still recover the state
        assert coord.registry.owner("s") == 0
        server_a.close_wal()
        coord.stop()


class TestShardAgent:
    def test_agent_registers_heartbeats_and_sees_revocation(self):
        coord = make_coordinator(lease_s=0.6, clock=time.monotonic)
        with AsyncTcpServerTransport(coord, host="127.0.0.1", port=0) as transport:
            revoked = threading.Event()
            agent = ShardAgent(
                ("127.0.0.1", transport.port),
                host="127.0.0.1", port=9999,
                on_revoked=revoked.set,
            )
            shard = agent.start()
            assert shard == 0
            assert agent.lease_s == pytest.approx(0.6)
            # lease renewal keeps it alive well past one lease interval:
            # poll the whole window instead of sleeping blind, asserting
            # liveness at every check along the way
            start = time.monotonic()

            def alive_past_lease():
                assert not coord.check_leases()
                assert coord.registry.is_alive(0)
                return time.monotonic() - start > 1.0

            wait_for(alive_past_lease, timeout=5.0, interval=0.05,
                     desc="a full lease interval of renewed heartbeats")
            # revoke: the agent notices on its next heartbeat
            coord.handle({"op": "expire_shard", "shard": 0})
            assert revoked.wait(timeout=5.0)
            assert agent.revoked.is_set()
            agent.stop()
        coord.stop()

    def test_agent_register_timeout_raises(self):
        agent = ShardAgent(
            ("127.0.0.1", 1), host="127.0.0.1", port=9999,
            register_timeout=0.3,
        )
        with pytest.raises(RuntimeError, match="could not register"):
            agent.start()

    def test_resolver_requires_session(self):
        with pytest.raises(ValueError):
            FleetResolver("127.0.0.1", 1, "")

    def test_fleet_client_end_to_end_in_process_shard(self, tmp_path):
        """fleet_client resolves through a real coordinator to a real shard."""
        coord = make_coordinator(lease_s=30.0, clock=time.monotonic)
        server, ts, wal_dir = _start_shard(tmp_path, "a", wal=False)
        with AsyncTcpServerTransport(coord, host="127.0.0.1", port=0) as tc:
            coord.handle({"op": "register_shard", "host": "127.0.0.1",
                          "port": ts.port, "wal_dir": None})
            client = fleet_client("127.0.0.1", tc.port, "mysession")
            client.open_session("mysession")
            client.register(bench_space())
            point = client.fetch()
            client.report(1.0 + float(point[0]) ** 2, step=0)
            assert client.status()["n_reports"] == 1
            client.transport.close()
        ts.stop()
        coord.stop()
