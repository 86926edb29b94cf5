"""The configurable exactly-once reply cache (``reply_cache_size``)."""

import json

import numpy as np
import pytest

from repro.experiments.common import tuner_factory
from repro.fleet.launch import bench_space
from repro.harmony import server as server_module
from repro.harmony.client import TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.transport import InProcessTransport
from repro.harmony.wal import recover_server


def make_server(**kwargs):
    return TuningServer(tuner_factory("pro", rng=0), binproto=False, **kwargs)


def register_client(server):
    client = TuningClient(InProcessTransport(server))
    client.register(bench_space())
    return client


class TestConfigurableSize:
    def test_default_size_is_64(self):
        assert make_server().default_session._reply_cache_size == 64

    def test_size_reaches_every_session(self):
        server = make_server(reply_cache_size=3)
        server.handle({"op": "open_session", "session": "other"})
        assert server.default_session._reply_cache_size == 3
        assert server.session("other")._reply_cache_size == 3

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="reply_cache_size"):
            make_server(reply_cache_size=0)

    def test_recover_server_passes_size_through(self, tmp_path):
        server = recover_server(
            tuner_factory("pro", rng=0), tmp_path / "wal",
            binproto=False, reply_cache_size=5,
        )
        assert server.default_session._reply_cache_size == 5
        server.close_wal()


class TestEvictionSemantics:
    def test_retry_within_window_returns_cached_reply(self):
        server = make_server(reply_cache_size=4)
        client = register_client(server)
        first = server.handle(
            {"op": "fetch", "client_id": client.client_id, "cseq": 0}
        )
        retry = server.handle(
            {"op": "fetch", "client_id": client.client_id, "cseq": 0}
        )
        assert retry == first

    def test_evicted_fetch_retry_is_an_explicit_error(self):
        size = 3
        server = make_server(reply_cache_size=size)
        client = register_client(server)
        # advance the window far enough that cseq 0 falls out of the cache
        # (cseqs are one monotonic per-client stream shared by all ops)
        for step in range(size + 2):
            response = server.handle(
                {"op": "fetch", "client_id": client.client_id, "cseq": 2 * step}
            )
            assert response["ok"]
            report = server.handle({
                "op": "report", "client_id": client.client_id,
                "token": response["token"], "time": 1.0, "step": step,
                "cseq": 2 * step + 1,
            })
            assert report["ok"]
        retry = server.handle(
            {"op": "fetch", "client_id": client.client_id, "cseq": 0}
        )
        assert not retry["ok"]
        assert "evicted" in retry["error"]

    def test_default_size_does_not_evict_inside_small_window(self):
        server = make_server()  # default 64
        client = register_client(server)
        responses = [
            server.handle(
                {"op": "fetch", "client_id": client.client_id, "cseq": c}
            )
            for c in range(10)
        ]
        retry = server.handle(
            {"op": "fetch", "client_id": client.client_id, "cseq": 0}
        )
        assert retry == responses[0]

    def test_non_default_size_survives_state_round_trip(self):
        """Adopting a session on a differently-configured server keeps the
        *receiving* server's bound (config is per-server, not migrated)."""
        small = make_server(reply_cache_size=2)
        client = register_client(small)
        for cseq in range(3):
            server_response = small.handle(
                {"op": "fetch", "client_id": client.client_id, "cseq": cseq}
            )
            assert server_response["ok"]
        state = small.default_session.state_dict()
        big = make_server(reply_cache_size=64)
        adopted = big.handle(
            {"op": "adopt_session", "session": "moved", "state": state}
        )
        assert adopted["ok"]
        assert big.session("moved")._reply_cache_size == 64
        # the cached window that survived the move still answers retries
        retry = big.handle({
            "op": "fetch", "client_id": client.client_id, "cseq": 2,
            "session": "moved",
        })
        assert retry["ok"]


class TestRestoredCacheForms:
    """A restored session answers retries exactly like the live one did:
    its reply cache comes back in the live forms, not the JSON ones."""

    def _restore(self, route):
        server = make_server()
        client = register_client(server)
        cid = client.client_id
        session = server.default_session
        fetched = server.handle({"op": "fetch", "client_id": cid, "cseq": 0})
        server.handle({
            "op": "report", "client_id": cid, "token": fetched["token"],
            "time": 1.0, "step": 0, "cseq": 1,
        })
        points, tokens = session.fetch_many_arrays(3, client_id=cid, cseq=2)
        state = json.loads(json.dumps(session.state_dict()))
        other = make_server()
        if route == "restore_state":
            other.restore_state({"default": state})
        else:
            assert other.handle({
                "op": "adopt_session", "session": "default", "state": state,
            })["ok"]
        restored = other.default_session
        return cid, fetched, points, tokens, state, restored

    @pytest.mark.parametrize("route", ["restore_state", "adopt_session"])
    def test_retried_fetches_after_restore(self, route):
        cid, fetched, points, tokens, _, restored = self._restore(route)
        retry_points, retry_tokens = restored.fetch_many_arrays(
            3, client_id=cid, cseq=2
        )
        assert isinstance(retry_points, np.ndarray)
        assert retry_points.dtype == np.float64 and retry_points.shape == (3, 2)
        assert retry_tokens.dtype == np.int32 and retry_tokens.shape == (3,)
        assert np.array_equal(retry_points, points)
        assert np.array_equal(retry_tokens, tokens)
        retry = restored.op_fetch({"client_id": cid, "cseq": 0})
        assert retry == fetched

    @pytest.mark.parametrize("route", ["restore_state", "adopt_session"])
    def test_cache_entries_take_the_live_forms(self, route):
        cid, fetched, _, _, state, restored = self._restore(route)
        cache = restored._clients[cid]["cache"]
        assert cache[0] == (
            "fetch", fetched["token"], tuple(fetched["point"])
        )
        assert cache[1] is server_module._ACK_REPLY
        kind, points, tokens = cache[2]
        assert kind == "points"
        assert isinstance(points, np.ndarray) and points.dtype == np.float64
        assert isinstance(tokens, np.ndarray) and tokens.dtype == np.int32
        # and the snapshot they serialize to is byte-for-byte the original
        assert json.dumps(restored.state_dict()) == json.dumps(state)
