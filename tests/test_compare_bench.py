"""Unit tests for the bench_smoke regression guard (benchmarks/compare_bench.py)."""

import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from compare_bench import CEILINGS, FLOORS, GUARDED, compare, main  # noqa: E402
import test_server_throughput as bench_writer  # noqa: E402


def payload(sweep=3.0, cluster=2.5, obs=0.01, sweep_cpu=0.9, wal=0.05,
            fleet=3.2, skew=1.8, replay=2.5, cap_p99=20.0, cap_floor=1024):
    return {
        "sweep": {"speedup": sweep},
        "cluster_step": {"speedup": cluster},
        "obs": {"overhead_frac": obs},
        "sweep_cpu": {"speedup": sweep_cpu},
        "server": {"wal_overhead_frac": wal, "report_replay_speedup": replay},
        "fleet": {"speedup_4": fleet, "skew_speedup": skew},
        "capacity": {"p99_anchor_ms": cap_p99, "sessions_floor": cap_floor},
    }


class TestCompare:
    def test_passes_within_tolerance(self):
        assert compare(payload(), payload(sweep=2.5), tolerance=0.2) == []

    def test_flags_regression_beyond_tolerance(self):
        failures = compare(payload(sweep=3.0), payload(sweep=2.0), tolerance=0.2)
        assert len(failures) == 1
        assert "sweep.speedup" in failures[0]

    def test_missing_baseline_metric_passes_vacuously(self):
        baseline = {"cluster_step": {"speedup": 2.5}}  # no sweep section yet
        assert compare(baseline, payload(), tolerance=0.2) == []

    def test_metric_dropped_from_current_run_fails(self):
        current = {"cluster_step": {"speedup": 2.5}}
        failures = compare(payload(), current, tolerance=0.2)
        assert any("missing" in f for f in failures)

    def test_every_guarded_metric_is_a_ratio(self):
        assert all("speedup" in key for _, key in GUARDED)

    def test_binary_wire_headlines_are_guarded(self):
        assert ("server", "binary_speedup") in GUARDED
        assert ("wire", "speedup_16") in GUARDED

    def test_fleet_aggregate_speedup_is_guarded(self):
        assert ("fleet", "speedup_4") in GUARDED


class TestCeilings:
    def test_tracing_overhead_has_a_hard_ceiling(self):
        assert ("obs", "overhead_frac", 0.02) in CEILINGS

    def test_under_ceiling_passes(self):
        assert compare(payload(), payload(obs=0.019), tolerance=0.2) == []

    def test_over_ceiling_fails_regardless_of_baseline(self):
        # A worse baseline does not excuse busting the absolute ceiling.
        failures = compare(payload(obs=0.05), payload(obs=0.03), tolerance=0.2)
        assert any("obs.overhead_frac" in f and "ceiling" in f for f in failures)

    def test_ceiling_metric_new_in_this_run_passes(self):
        baseline = {"sweep": {"speedup": 3.0}, "cluster_step": {"speedup": 2.5}}
        assert compare(baseline, payload(), tolerance=0.2) == []

    def test_ceiling_metric_dropped_from_current_fails(self):
        current = {"sweep": {"speedup": 3.0}, "cluster_step": {"speedup": 2.5}}
        failures = compare(payload(), current, tolerance=0.2)
        assert any("obs.overhead_frac" in f and "missing" in f for f in failures)

    def test_wal_overhead_has_a_hard_ceiling(self):
        assert ("server", "wal_overhead_frac", 0.10) in CEILINGS

    def test_wal_overhead_over_ceiling_fails(self):
        failures = compare(payload(), payload(wal=0.25), tolerance=0.2)
        assert any(
            "server.wal_overhead_frac" in f and "ceiling" in f
            for f in failures
        )


class TestFloors:
    def test_cpu_sweep_has_a_hard_floor(self):
        assert ("sweep_cpu", "speedup", 0.6) in FLOORS

    def test_above_floor_passes(self):
        # Losing to serial (< 1.0) is expected on a small box; only a
        # collapse below the floor fails.
        assert compare(payload(), payload(sweep_cpu=0.7), tolerance=0.2) == []

    def test_below_floor_fails_regardless_of_baseline(self):
        failures = compare(
            payload(sweep_cpu=0.3), payload(sweep_cpu=0.4), tolerance=0.2
        )
        assert any("sweep_cpu.speedup" in f and "floor" in f for f in failures)

    def test_floor_metric_new_in_this_run_passes(self):
        baseline = {"sweep": {"speedup": 3.0}}
        assert compare(baseline, payload(), tolerance=0.2) == []

    def test_floor_metric_dropped_from_current_fails(self):
        current = {k: v for k, v in payload().items() if k != "sweep_cpu"}
        failures = compare(payload(), current, tolerance=0.2)
        assert any("sweep_cpu.speedup" in f and "missing" in f for f in failures)


class TestFleetFloor:
    def test_fleet_scaling_has_a_hard_floor(self):
        assert ("fleet", "speedup_4", 2.5) in FLOORS

    def test_near_linear_scaling_passes(self):
        assert compare(payload(), payload(fleet=3.4), tolerance=0.2) == []

    def test_sublinear_collapse_fails_regardless_of_baseline(self):
        # Even if the committed baseline already degraded, dropping below
        # 2.5x aggregate throughput at 4 shards is an absolute failure.
        failures = compare(
            payload(fleet=2.0), payload(fleet=2.2), tolerance=0.5
        )
        assert any("fleet.speedup_4" in f and "floor" in f for f in failures)

    def test_regression_within_floor_still_caught_by_guard(self):
        # 3.6 -> 2.6 stays above the floor but busts the 20% tolerance.
        failures = compare(
            payload(fleet=3.6), payload(fleet=2.6), tolerance=0.2
        )
        assert any(
            "fleet.speedup_4" in f and "floor" not in f for f in failures
        )

    def test_fleet_metric_dropped_from_current_fails(self):
        current = {k: v for k, v in payload().items() if k != "fleet"}
        failures = compare(payload(), current, tolerance=0.2)
        assert any("fleet.speedup_4" in f and "missing" in f for f in failures)


class TestSkewFloor:
    def test_skew_speedup_is_guarded(self):
        assert ("fleet", "skew_speedup") in GUARDED

    def test_skew_speedup_has_a_hard_floor(self):
        assert ("fleet", "skew_speedup", 1.5) in FLOORS

    def test_report_replay_speedup_is_guarded(self):
        assert ("server", "report_replay_speedup") in GUARDED

    def test_above_floor_passes(self):
        assert compare(payload(), payload(skew=1.9), tolerance=0.2) == []

    def test_below_floor_fails_regardless_of_baseline(self):
        # Even a baseline already under the floor does not excuse it: the
        # planner must keep earning >= 1.5x on the skewed workload.
        failures = compare(
            payload(skew=1.3), payload(skew=1.4), tolerance=0.5
        )
        assert any(
            "fleet.skew_speedup" in f and "floor" in f for f in failures
        )

    def test_regression_within_floor_still_caught_by_guard(self):
        # 2.2 -> 1.6 stays above the floor but busts the 20% tolerance.
        failures = compare(
            payload(skew=2.2), payload(skew=1.6), tolerance=0.2
        )
        assert any(
            "fleet.skew_speedup" in f and "floor" not in f for f in failures
        )

    def test_skew_metric_dropped_from_current_fails(self):
        current = payload()
        del current["fleet"]["skew_speedup"]
        failures = compare(payload(), current, tolerance=0.2)
        assert any(
            "fleet.skew_speedup" in f and "missing" in f for f in failures
        )


class TestCapacityGuards:
    def test_anchor_p99_has_a_hard_ceiling(self):
        assert ("capacity", "p99_anchor_ms", 500.0) in CEILINGS

    def test_sessions_floor_is_guarded(self):
        assert ("capacity", "sessions_floor", 256) in FLOORS

    def test_bounded_tail_passes(self):
        assert compare(payload(), payload(cap_p99=120.0), tolerance=0.2) == []

    def test_unbounded_queueing_tail_fails_regardless_of_baseline(self):
        # A server that queues unboundedly instead of shedding shows up as
        # a p99 in the seconds; a bad baseline does not excuse it.
        failures = compare(
            payload(cap_p99=900.0), payload(cap_p99=750.0), tolerance=0.2
        )
        assert any(
            "capacity.p99_anchor_ms" in f and "ceiling" in f for f in failures
        )

    def test_sustained_sessions_below_floor_fails(self):
        failures = compare(
            payload(cap_floor=64), payload(cap_floor=64), tolerance=0.2
        )
        assert any(
            "capacity.sessions_floor" in f and "floor" in f for f in failures
        )

    def test_capacity_new_in_this_run_passes(self):
        baseline = {k: v for k, v in payload().items() if k != "capacity"}
        assert compare(baseline, payload(), tolerance=0.2) == []

    def test_capacity_dropped_from_current_fails(self):
        current = {k: v for k, v in payload().items() if k != "capacity"}
        failures = compare(payload(), current, tolerance=0.2)
        assert any(
            "capacity.p99_anchor_ms" in f and "missing" in f for f in failures
        )
        assert any(
            "capacity.sessions_floor" in f and "missing" in f for f in failures
        )


class TestMain:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", payload())
        cur = self._write(tmp_path, "cur.json", payload())
        assert main(["--baseline", base, "--current", cur]) == 0
        assert "no guarded regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", payload(cluster=4.0))
        cur = self._write(tmp_path, "cur.json", payload(cluster=1.0))
        assert main(["--baseline", base, "--current", cur]) == 1
        assert "cluster_step.speedup" in capsys.readouterr().err

    def test_exit_two_on_bad_input(self, tmp_path):
        base = self._write(tmp_path, "base.json", payload())
        assert main(["--baseline", base, "--current", str(tmp_path / "nope.json")]) == 2
        cur = self._write(tmp_path, "cur.json", payload())
        assert main(["--baseline", base, "--current", cur, "--tolerance", "1.5"]) == 2


class TestRunStamps:
    """Which lines this run rewrote, and on what host: report only."""

    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_writer_stamps_the_file_and_each_key(self, tmp_path, monkeypatch):
        path = tmp_path / "bench.json"
        section = {"speedup": 2.0, "run_ids": {"speedup": "old"}}
        path.write_text(json.dumps({"server": section}))
        monkeypatch.setattr(bench_writer, "BENCH_JSON", path)
        bench_writer._update_bench_json("server", {"report_replay_speedup": 3.0})
        data = json.loads(path.read_text())
        run_id = bench_writer.RUN_ID
        assert data["run_id"] == run_id
        assert data["python"] == platform.python_version()
        assert data["server"]["run_ids"] == {
            "speedup": "old", "report_replay_speedup": run_id
        }

    def test_marks_lines_this_run_did_not_rewrite(self, tmp_path, capsys):
        current = payload()
        current["run_id"] = "r2"
        current["cluster_step"]["run_ids"] = {"speedup": "r2"}
        current["server"]["run_ids"] = {"report_replay_speedup": "r1"}
        base = self._write(tmp_path, "base.json", payload())
        cur = self._write(tmp_path, "cur.json", current)
        assert main(["--baseline", base, "--current", cur]) == 0
        lines = capsys.readouterr().out.splitlines()
        marked = {line.split(":")[0] for line in lines if "not rewritten" in line}
        assert "server.report_replay_speedup" in marked
        assert "cluster_step.speedup" not in marked
        # an unstamped file marks nothing
        cur = self._write(tmp_path, "plain.json", payload())
        assert main(["--baseline", base, "--current", cur]) == 0
        assert "not rewritten" not in capsys.readouterr().out

    def test_prints_context_only_when_it_differs(self, tmp_path, capsys):
        stamped = dict(payload(), cpu_count=2, python="3.11.7")
        base = self._write(tmp_path, "base.json", stamped)
        same = self._write(tmp_path, "same.json", stamped)
        assert main(["--baseline", base, "--current", same]) == 0
        assert "context differs" not in capsys.readouterr().out
        other = self._write(tmp_path, "other.json", dict(stamped, cpu_count=4))
        assert main(["--baseline", base, "--current", other]) == 0
        out = capsys.readouterr().out
        assert "cpu_count baseline=2 current=4" in out
        assert "python baseline=3.11.7 current=3.11.7" in out
