"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_tuner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--tuner", "bogus"])


class TestTune:
    def test_single_trial(self, capsys):
        code = main(["tune", "--budget", "60", "--rho", "0", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "best config" in out
        assert "Total_Time" in out

    def test_plot_flag(self, capsys):
        code = main(["tune", "--budget", "60", "--rho", "0", "--plot"])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-step barrier time" in out

    def test_multi_trial_sweep(self, capsys):
        code = main(
            ["tune", "--budget", "60", "--trials", "3", "--rho", "0.2", "--k", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mean NTT" in out

    def test_json_export_single(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(
            ["tune", "--budget", "40", "--rho", "0", "--json", str(target)]
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["tuner_name"] == "ParallelRankOrdering"
        assert len(data["step_times"]) == 40

    def test_json_export_sweep(self, tmp_path, capsys):
        target = tmp_path / "sweep.json"
        code = main(
            ["tune", "--budget", "40", "--trials", "2", "--json", str(target)]
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["cells"][0]["name"] == "pro"

    def test_other_tuners(self, capsys):
        for tuner in ("sro", "neldermead", "random"):
            assert main(["tune", "--tuner", tuner, "--budget", "30", "--rho", "0"]) == 0
            capsys.readouterr()

    def test_parallel_sweep_matches_serial(self, tmp_path, capsys):
        """--jobs/--executor change the schedule, never the numbers."""
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        base = ["tune", "--budget", "40", "--trials", "3", "--rho", "0.2",
                "--seed", "5"]
        assert main(base + ["--json", str(serial)]) == 0
        assert main(
            base + ["--executor", "process", "-j", "2", "--json", str(pooled)]
        ) == 0
        capsys.readouterr()
        assert json.loads(serial.read_text()) == json.loads(pooled.read_text())

    @pytest.mark.parametrize(
        "flags", [["-j", "2"], ["--executor", "process"]], ids=["jobs", "process"]
    )
    def test_cache_stats_needs_serial_executor(self, flags, capsys):
        code = main(["tune", "--budget", "30", "--trials", "3",
                     "--cache-stats"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert "--cache-stats needs the serial executor" in captured.err
        assert "db cache" not in captured.out

    @pytest.mark.parametrize(
        "flags",
        [["--trials", "3", "--executor", "serial", "-j", "4"], ["-j", "2"]],
        # one trial runs in this process whatever the executor flags say
        ids=["serial-sweep", "single-trial"],
    )
    def test_cache_stats_counts_serial_queries(self, flags, capsys):
        code = main(["tune", "--budget", "30", "--cache-stats"] + flags)
        line = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("db cache")]
        assert code == 0
        assert len(line) == 1
        assert not line[0].startswith("db cache          : 0 queries")

    def test_bare_jobs_flag_accepted(self, capsys):
        # `-j 2` alone implies the process executor.
        code = main(["tune", "--budget", "30", "--trials", "2", "-j", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean NTT" in out

    def test_serial_executor_ignores_jobs(self, capsys):
        # Explicit serial wins: the jobs count is dropped, not an error.
        code = main(["tune", "--budget", "30", "--trials", "2",
                     "--executor", "serial", "-j", "4"])
        assert code == 0
        assert "mean NTT" in capsys.readouterr().out


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7077

    def test_serve_round_trip(self, tmp_path):
        """Host for a bounded duration; a real client tunes against it."""
        import threading

        import numpy as np

        from repro.harmony.client import TuningClient
        from repro.harmony.transport import TcpClientTransport
        from repro.space import IntParameter, ParameterSpace
        from tests.helpers import wait_port_file

        port_file = tmp_path / "port"
        trace = tmp_path / "serve.jsonl"
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(["serve", "--port", "0",
                      "--duration", "3", "--port-file", str(port_file),
                      "--trace", str(trace)])
            )
        )
        thread.start()
        try:
            port = wait_port_file(port_file, timeout=5)
            space = ParameterSpace(
                [IntParameter("a", -5, 5), IntParameter("b", -5, 5)]
            )
            with TcpClientTransport("127.0.0.1", port) as t:
                client = TuningClient(t)
                client.register(space)
                for step in range(10):
                    config = client.fetch()
                    client.report(1.0 + float(np.sum(config**2)), step=step)
                assert client.status()["n_reports"] == 10
        finally:
            thread.join(timeout=15)
        assert codes == [0]
        events = [json.loads(l) for l in trace.read_text().splitlines()]
        assert sum(e["kind"] == "server.request" for e in events) >= 22


class TestServeFleetFlags:
    def test_serve_gained_fleet_flags(self):
        args = build_parser().parse_args(
            ["serve", "--reply-cache", "128", "--metrics-port", "9100",
             "--coordinator", "127.0.0.1:7070", "--shard-id", "3",
             "--service-delay-us", "500"]
        )
        assert args.reply_cache == 128
        assert args.metrics_port == 9100
        assert args.coordinator == "127.0.0.1:7070"
        assert args.shard_id == 3
        assert args.service_delay_us == 500

    def test_serve_fleet_flags_default_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.reply_cache is None
        assert args.metrics_port is None
        assert args.coordinator is None
        assert args.service_delay_us == 0

    def test_invalid_reply_cache_rejected_at_runtime(self, capsys):
        code = main(["serve", "--port", "0", "--duration", "1",
                     "--reply-cache", "0"])
        assert code == 2
        assert "reply_cache_size" in capsys.readouterr().err


class TestFleet:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.shards == 2
        assert args.sessions is None
        assert args.wire == "binary"
        assert args.lease_s == 2.0
        assert not args.no_wal
        assert args.kill_shard is None
        assert not args.baseline_check

    def test_unknown_wire_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--wire", "morse"])

    def test_single_shard_sweep_with_baseline_check(self, tmp_path, capsys):
        """End-to-end CLI run: 1 shard, 1 session, bit-identity verified."""
        code = main(
            ["fleet", "--shards", "1", "--sessions", "1", "--steps", "4",
             "--no-wal", "--dir", str(tmp_path), "--baseline-check"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet up" in out
        assert "bit-identical" in out


class TestLoadgen:
    @pytest.mark.parametrize("wire", ["binary", "json"])
    def test_ramp_against_a_live_server(self, wire, tmp_path, capsys):
        """Both ramp points finish every session's every step; the SLO is
        generous, so a loaded host cannot flip the exit code."""
        from repro.core.sampling import MinEstimator, SamplingPlan
        from repro.experiments.common import tuner_factory
        from repro.harmony.aio import AsyncTcpServerTransport
        from repro.harmony.server import TuningServer
        from repro.loadgen import loadgen_space

        server = TuningServer(
            tuner_factory("pro", rng=0), space=loadgen_space(),
            plan=SamplingPlan(1, MinEstimator()),
        )
        out = tmp_path / "loadgen.json"
        with AsyncTcpServerTransport(server, port=0) as tcp:
            code = main(["loadgen", "--port", str(tcp.port), "--wire", wire,
                         "--sessions", "4,8", "--steps", "3",
                         "--connections", "2", "--slo-ms", "60000",
                         "--json", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert [(r["sessions"], r["wire"], r["ok"]) for r in reports] == [
            (4, wire, 4 * 3), (8, wire, 8 * 3),
        ]
        assert "loadgen: closed loop" in capsys.readouterr().out

    @pytest.mark.parametrize("sessions", ["0", "x"])
    def test_bad_session_ramp_exits_2(self, sessions, capsys):
        code = main(["loadgen", "--port", "1", "--sessions", sessions])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrace:
    def test_trace_output(self, capsys):
        code = main(["trace", "--nodes", "4", "--iterations", "120"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_cross_correlation" in out
        assert "Hill alpha" in out
        assert "truncated at 5 x median" in out


class TestObsTrace:
    def test_tune_single_trial_writes_trace(self, tmp_path, capsys):
        target = tmp_path / "run.jsonl"
        code = main(["tune", "--budget", "40", "--rho", "0",
                     "--trace", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"wrote {target}" in out
        events = [json.loads(l) for l in target.read_text().splitlines()]
        kinds = {e["kind"] for e in events}
        assert "session.start" in kinds and "session.end" in kinds
        assert sum(e["kind"] == "session.step" for e in events) == 40

    def test_tune_sweep_writes_trace(self, tmp_path, capsys):
        target = tmp_path / "sweep.jsonl"
        code = main(["tune", "--budget", "40", "--trials", "2",
                     "--trace", str(target)])
        capsys.readouterr()
        assert code == 0
        events = [json.loads(l) for l in target.read_text().splitlines()]
        kinds = {e["kind"] for e in events}
        assert {"sweep.start", "sweep.end", "trial.settled"} <= kinds
        settled = [e for e in events if e["kind"] == "trial.settled"]
        assert len(settled) == 2

    def test_trace_path_summarizes(self, tmp_path, capsys):
        target = tmp_path / "run.jsonl"
        assert main(["tune", "--budget", "40", "--trials", "2",
                     "--trace", str(target)]) == 0
        capsys.readouterr()
        code = main(["trace", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace:" in out and "events" in out
        assert "trial.settled" in out

    def test_trace_summary_missing_file_fails(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "no such trace" in capsys.readouterr().err


class TestSurface:
    def test_surface_heatmap(self, capsys):
        code = main(["surface"])
        out = capsys.readouterr().out
        assert code == 0
        assert "local minima" in out
        assert "scale:" in out

    def test_bad_fixed_spec(self, capsys):
        code = main(["surface", "--fixed", "nodes"])
        assert code == 2
        assert "name=value" in capsys.readouterr().err


class TestFigures:
    def test_fig08(self, capsys):
        assert main(["figures", "fig08"]) == 0
        assert "local minima" in capsys.readouterr().out

    def test_fig09_tiny(self, capsys):
        assert main(["figures", "fig09", "--trials", "2"]) == 0
        assert "axial beats minimal" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


class TestStencilWorkload:
    def test_tune_stencil(self, capsys):
        code = main(
            ["tune", "--workload", "stencil", "--budget", "40", "--rho", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tile_x" in out

    def test_tune_stencil_sweep_json(self, tmp_path, capsys):
        target = tmp_path / "stencil.json"
        code = main(
            ["tune", "--workload", "stencil", "--budget", "30",
             "--trials", "2", "--json", str(target)]
        )
        assert code == 0
        assert target.exists()

class TestRateAdmissionFlags:
    def test_parser_accepts_rate_policy(self):
        args = build_parser().parse_args(
            ["serve", "--shed-policy", "rate", "--max-pending", "64",
             "--refill-rate", "200"]
        )
        assert args.shed_policy == "rate"
        assert args.max_pending == 64
        assert args.refill_rate == 200.0

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.shed_policy == "reject"
        assert args.refill_rate is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shed-policy", "lifo"])

    def test_rate_policy_requires_both_knobs(self, capsys):
        code = main(["serve", "--port", "0", "--duration", "1",
                     "--shed-policy", "rate", "--max-pending", "64"])
        assert code == 2
        assert "--refill-rate" in capsys.readouterr().err

    def test_refill_rate_is_rate_policy_only(self, capsys):
        code = main(["serve", "--port", "0", "--duration", "1",
                     "--max-pending", "64", "--refill-rate", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--refill-rate only applies to --shed-policy rate" in err


class TestFleetRebalanceFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.rebalance is False
        assert args.skew == "none"
        assert args.join is None
        assert args.coordinator_port == 0

    def test_parser_accepts_the_rebalance_demo(self):
        args = build_parser().parse_args(
            ["fleet", "--shards", "4", "--skew", "pareto", "--rebalance"]
        )
        assert args.rebalance and args.skew == "pareto"

    def test_join_accumulates_endpoints(self):
        args = build_parser().parse_args(
            ["fleet", "--join", "127.0.0.1:9001", "--join", ":9002"]
        )
        assert args.join == ["127.0.0.1:9001", ":9002"]

    def test_unknown_skew_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--skew", "bimodal"])

    def test_skew_conflicts_with_baseline_check(self, capsys):
        code = main(["fleet", "--shards", "1", "--sessions", "1",
                     "--steps", "2", "--no-wal",
                     "--skew", "zipf", "--baseline-check"])
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    def test_skewed_sweep_reshapes_per_session_steps(self, tmp_path, capsys):
        code = main(
            ["fleet", "--shards", "1", "--sessions", "2", "--steps", "4",
             "--no-wal", "--dir", str(tmp_path), "--skew", "zipf"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "skewed sweep (zipf)" in out
        assert "fleet up" in out
