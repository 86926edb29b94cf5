"""Multi-session serving: named sessions, isolation, metrics, compatibility."""

import numpy as np
import pytest

from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.harmony.client import TuningClient
from repro.harmony.server import DEFAULT_SESSION, TuningServer
from repro.harmony.transport import InProcessTransport
from repro.obs import MetricsRegistry, Tracer
from repro.space import IntParameter, ParameterSpace
from repro.space.serialize import space_to_spec


def make_space(lo=-10, hi=10):
    return ParameterSpace([IntParameter("a", lo, hi), IntParameter("b", lo, hi)])


def make_server(**kwargs):
    return TuningServer(lambda s: ParallelRankOrdering(s),
                        plan=SamplingPlan(1), **kwargs)


def drive(server, session, objective, steps):
    name = {"session": session} if session else {}
    server.handle(
        {"op": "register", "params": space_to_spec(make_space()), **name}
    )
    for step in range(steps):
        resp = server.handle({"op": "fetch", "client_id": 0, **name})
        point = np.asarray(resp["point"])
        server.handle(
            {"op": "report", "client_id": 0, "token": resp["token"],
             "time": objective(point), "step": step, **name}
        )


class TestSessionManagement:
    def test_open_and_list(self):
        server = make_server()
        resp = server.handle({"op": "open_session", "session": "runA"})
        assert resp["ok"] and resp["created"]
        listing = server.handle({"op": "list_sessions"})
        assert set(listing["sessions"]) == {DEFAULT_SESSION, "runA"}

    def test_open_is_idempotent(self):
        server = make_server()
        assert server.handle({"op": "open_session", "session": "x"})["created"]
        resp = server.handle({"op": "open_session", "session": "x"})
        assert resp["ok"] and not resp["created"]

    def test_open_needs_name(self):
        assert not make_server().handle({"op": "open_session"})["ok"]

    def test_close_session(self):
        server = make_server()
        server.handle({"op": "open_session", "session": "tmp"})
        resp = server.handle({"op": "close_session", "session": "tmp"})
        assert resp["ok"]
        assert "tmp" not in server.session_names()

    def test_close_default_rejected(self):
        resp = make_server().handle(
            {"op": "close_session", "session": DEFAULT_SESSION}
        )
        assert not resp["ok"]

    def test_close_missing_rejected(self):
        assert not make_server().handle(
            {"op": "close_session", "session": "ghost"}
        )["ok"]

    def test_unknown_session_addressed(self):
        resp = make_server().handle({"op": "status", "session": "ghost"})
        assert not resp["ok"]
        assert "open_session" in resp["error"]

    def test_session_plan_override(self):
        server = make_server()
        server.handle({"op": "open_session", "session": "k3",
                       "k": 3, "estimator": "median"})
        session = server.session("k3")
        assert session.plan.k == 3
        assert server.handle(
            {"op": "open_session", "session": "bad", "estimator": "bogus"}
        ) == {
            "ok": False,
            "error": "unknown estimator 'bogus'; known: ['mean', 'median', 'min']",
        }

    def test_session_with_preset_params(self):
        server = make_server()
        server.handle({"op": "open_session", "session": "preset",
                       "params": space_to_spec(make_space())})
        resp = server.handle({"op": "register", "session": "preset"})
        assert resp["ok"]


class TestSessionIsolation:
    def test_two_sessions_tune_independently(self):
        server = make_server()
        server.handle({"op": "open_session", "session": "left"})
        server.handle({"op": "open_session", "session": "right"})

        def f_left(p):
            return 1.0 + (p[0] - 3) ** 2 + (p[1] + 2) ** 2

        def f_right(p):
            return 1.0 + (p[0] + 4) ** 2 + (p[1] - 5) ** 2

        drive(server, "left", f_left, 600)
        drive(server, "right", f_right, 600)
        best_left = server.handle({"op": "best", "session": "left"})
        best_right = server.handle({"op": "best", "session": "right"})
        assert best_left["point"] == [3.0, -2.0]
        assert best_right["point"] == [-4.0, 5.0]

    def test_sessions_have_separate_ledgers(self):
        server = make_server()
        server.handle({"op": "open_session", "session": "other"})
        drive(server, "other", lambda p: 2.0, 5)
        assert server.session("other").n_reports == 5
        assert server.n_reports == 0  # the default session saw nothing

    def test_named_session_matches_dedicated_server(self):
        """A named session behaves exactly like a whole single-session server."""

        def f(p):
            return 1.0 + (p[0] - 1) ** 2 + (p[1] - 1) ** 2

        multi = make_server()
        multi.handle({"op": "open_session", "session": "paired"})
        drive(multi, "paired", f, 300)
        solo = make_server()
        drive(solo, None, f, 300)
        assert (
            multi.handle({"op": "best", "session": "paired"})["point"]
            == solo.handle({"op": "best"})["point"]
        )
        assert multi.session("paired").n_reports == solo.n_reports

    def test_per_session_checkpoint(self):
        server = make_server()
        server.handle({"op": "open_session", "session": "ck"})
        drive(server, "ck", lambda p: 1.0 + p[0] ** 2 + p[1] ** 2, 20)
        snap = server.handle({"op": "checkpoint", "session": "ck"})
        assert snap["ok"]
        fresh = make_server()
        fresh.handle({"op": "open_session", "session": "ck"})
        assert fresh.handle(
            {"op": "restore", "session": "ck", "snapshot": snap["snapshot"]}
        )["ok"]
        assert fresh.session("ck").n_reports == 20


class TestCompatibilitySurface:
    def test_default_properties_delegate(self):
        server = make_server()
        drive(server, None, lambda p: 3.0, 4)
        assert server.tuner is not None
        assert server.space is not None
        assert server.plan.k == 1
        assert server.n_reports == 4
        assert server.step_times().size == 4
        assert server.total_time() == pytest.approx(12.0)

    def test_client_session_addressing(self):
        server = make_server()
        transport = InProcessTransport(server)
        client = TuningClient(transport)
        created = client.open_session("mine", k=2, estimator="min")
        assert created
        client.register(make_space())
        config = client.fetch()
        client.report(5.0, step=0)
        assert server.session("mine").n_reports == 1
        assert server.n_reports == 0
        assert client.status()["session"] == "mine"
        assert config.shape == (2,)


class TestServerObservability:
    def test_metrics_counters_and_latency(self):
        metrics = MetricsRegistry(max_samples=128)
        server = make_server(metrics=metrics)
        drive(server, None, lambda p: 1.0, 10)
        snap = metrics.snapshot()
        assert snap["counters"]["server.requests"] == 21  # register + 10*(fetch+report)
        assert snap["counters"]["server.op.fetch"] == 10
        assert snap["histograms"]["server.handle_s"]["count"] == 21
        assert snap["gauges"]["server.sessions"] == 1.0

    def test_metrics_op_round_trip(self):
        metrics = MetricsRegistry()
        server = make_server(metrics=metrics)
        server.handle({"op": "status"})
        resp = server.handle({"op": "metrics"})
        assert resp["ok"]
        assert resp["metrics"]["counters"]["server.requests"] >= 1

    def test_metrics_op_without_registry_errors(self):
        assert not make_server().handle({"op": "metrics"})["ok"]

    def test_error_counter(self):
        metrics = MetricsRegistry()
        server = make_server(metrics=metrics)
        server.handle({"op": "nonsense"})
        assert metrics.snapshot()["counters"]["server.errors"] == 1

    def test_tracer_records_requests_and_sessions(self):
        tracer = Tracer(label="server")
        server = make_server(tracer=tracer)
        server.handle({"op": "open_session", "session": "traced"})
        server.handle({"op": "status", "session": "traced"})
        server.observe_batch(4)
        kinds = [e["kind"] for e in tracer.drain()]
        assert "server.session" in kinds
        assert "server.request" in kinds
        assert "server.batch" in kinds

    def test_batch_frames_counted(self):
        from repro.harmony import protocol

        metrics = MetricsRegistry()
        server = make_server(metrics=metrics)
        protocol.dispatch(
            server, {"op": "batch", "msgs": [{"op": "status"}] * 3}
        )
        snap = metrics.snapshot()
        assert snap["counters"]["server.batch_frames"] == 1
        assert snap["counters"]["server.batch_msgs"] == 3


class TestBoundedMetrics:
    def test_window_caps_samples_but_counts_total(self):
        metrics = MetricsRegistry(max_samples=8)
        for i in range(20):
            metrics.observe("h", float(i))
        hist = metrics.snapshot()["histograms"]["h"]
        assert hist["count"] == 8
        assert hist["total"] == 20
        assert hist["min"] == 12.0  # only the window survives

    def test_uncapped_has_no_total_field(self):
        metrics = MetricsRegistry()
        metrics.observe("h", 1.0)
        assert "total" not in metrics.snapshot()["histograms"]["h"]

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_samples=0)
