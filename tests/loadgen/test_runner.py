"""The load generator against live in-process servers (both loops)."""

import threading
import time

import pytest

from repro.core.sampling import MinEstimator, SamplingPlan
from repro.experiments.common import tuner_factory
from repro.harmony.admission import AdmissionController
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.server import TuningServer
from repro.loadgen import LoadGenerator, LoadgenConfig, SloPolicy, loadgen_space


def make_server(*, admission=None, service_delay_s=0.0):
    server = TuningServer(
        tuner_factory("pro", rng=0),
        space=loadgen_space(),
        plan=SamplingPlan(1, MinEstimator()),
        service_delay_s=service_delay_s,
    )
    if admission is not None:
        server.admission = admission
    return server


#: generous SLO so CI-box jitter cannot fail functional assertions
_LOOSE = SloPolicy(latency_s=30.0, error_budget=0.5)


class TestLoadgenConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LoadgenConfig(mode="spiral")
        with pytest.raises(ValueError):
            LoadgenConfig(sessions=0)
        with pytest.raises(ValueError):
            LoadgenConfig(wire="carrier-pigeon")
        with pytest.raises(ValueError):
            LoadgenConfig(arrival="weibull")
        with pytest.raises(ValueError):
            LoadgenConfig(connections=0)


class TestClosedLoop:
    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_every_session_completes_every_step(self, wire):
        server = make_server()
        with AsyncTcpServerTransport(server) as transport:
            config = LoadgenConfig(
                mode="closed", sessions=6, steps=3, connections=2,
                wire=wire, slo=_LOOSE,
            )
            report = LoadGenerator("127.0.0.1", transport.port, config).run()
        assert report.summary["ok"] == 6 * 3
        assert report.summary["busy"] == 0
        assert report.summary["error"] == 0
        assert report.slo_ok
        assert report.rps > 0

    def test_batched_rounds_count_once_per_round(self):
        server = make_server()
        with AsyncTcpServerTransport(server) as transport:
            config = LoadgenConfig(
                mode="closed", sessions=2, steps=2, connections=1,
                batch=4, slo=_LOOSE,
            )
            report = LoadGenerator("127.0.0.1", transport.port, config).run()
        assert report.summary["ok"] == 2 * 2

    @pytest.mark.parametrize("wire, binary", [("binary", True), ("json", False)])
    def test_wire_picks_the_batch_dialect(self, wire, binary):
        """Against one binary-capable server, batched rounds ride binary
        frames on the binary wire and JSON batch frames on the JSON wire."""
        server = make_server()
        frames = []
        server.observe_binary = lambda op, n_msgs: frames.append(op)
        with AsyncTcpServerTransport(server) as transport:
            config = LoadgenConfig(
                mode="closed", sessions=2, steps=2, connections=1,
                batch=4, wire=wire, slo=_LOOSE,
            )
            report = LoadGenerator("127.0.0.1", transport.port, config).run()
        assert report.summary["ok"] == 2 * 2
        assert bool(frames) is binary

    def test_admission_pressure_is_absorbed_by_retries(self):
        """A tiny budget under many sessions: work sheds, retries land it
        all anyway, and the report counts the absorbed sheds."""
        admission = AdmissionController(2, retry_after_s=0.002)
        server = make_server(admission=admission, service_delay_s=0.001)
        # Hold the whole budget so the first arrivals must shed, and give
        # it back once one has (a bounded wait): the shed does not depend
        # on contention, which a loaded host may never produce.
        assert admission.try_admit(2)

        def release():
            deadline = time.monotonic() + 10.0
            while admission.shed == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            admission.complete(2)

        threading.Thread(target=release, daemon=True).start()
        with AsyncTcpServerTransport(server) as transport:
            config = LoadgenConfig(
                mode="closed", sessions=8, steps=3, connections=4,
                busy_retries=10_000, slo=_LOOSE,
            )
            report = LoadGenerator("127.0.0.1", transport.port, config).run()
        assert report.summary["ok"] == 8 * 3
        assert report.busy_retried > 0
        assert server.admission.pending == 0

    def test_to_dict_is_json_ready(self):
        server = make_server()
        with AsyncTcpServerTransport(server) as transport:
            config = LoadgenConfig(
                mode="closed", sessions=2, steps=1, connections=1, slo=_LOOSE
            )
            report = LoadGenerator("127.0.0.1", transport.port, config).run()
        d = report.to_dict()
        for key in ("mode", "sessions", "rps", "p99_ms", "slo_ok", "ok"):
            assert key in d


class TestOpenLoop:
    def test_offered_rate_is_roughly_delivered(self):
        server = make_server()
        with AsyncTcpServerTransport(server) as transport:
            config = LoadgenConfig(
                mode="open", sessions=4, duration_s=1.0, rate=100.0,
                arrival="uniform", connections=2, slo=_LOOSE,
            )
            report = LoadGenerator("127.0.0.1", transport.port, config).run()
        # a healthy server should complete most of one second at 100/s
        assert report.summary["ok"] >= 60
        assert report.summary["error"] == 0

    def test_heavy_tail_arrivals_record_sheds_not_retries(self):
        """Open loop against a saturated budget: refused arrivals count
        against the error budget instead of being retried."""
        server = make_server(
            admission=AdmissionController(1, retry_after_s=0.002),
            service_delay_s=0.005,
        )
        with AsyncTcpServerTransport(server) as transport:
            config = LoadgenConfig(
                mode="open", sessions=4, duration_s=1.0, rate=400.0,
                arrival="pareto", tail_alpha=1.5, connections=4,
                slo=SloPolicy(latency_s=30.0, error_budget=0.0001),
            )
            report = LoadGenerator("127.0.0.1", transport.port, config).run()
        assert report.summary["busy"] > 0
        assert not report.slo_ok  # the blown budget is *visible*
        assert any("budget" in v for v in report.violations)
        assert server.admission.pending == 0

    def test_reproducible_arrival_schedule(self):
        """Same seed, same config: the same number of arrivals get offered."""
        counts = []
        for _ in range(2):
            server = make_server()
            with AsyncTcpServerTransport(server) as transport:
                config = LoadgenConfig(
                    mode="open", sessions=2, duration_s=0.5, rate=80.0,
                    arrival="poisson", connections=1, seed=7, slo=_LOOSE,
                )
                report = LoadGenerator(
                    "127.0.0.1", transport.port, config
                ).run()
            counts.append(report.summary["count"])
        assert counts[0] == counts[1]
