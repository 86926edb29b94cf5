"""Tests of the benchmark harness itself: percentile rule, hygiene, oracles.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402

RUN = HERE / "run.py"


# -- percentile rule ----------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="p99 needs 1000 samples, got 999"):
        harness.percentile(np.arange(999.0), 99.0)
    values = np.arange(1000.0)
    assert harness.percentile(values, 99.0) == pytest.approx(np.percentile(values, 99))
    assert harness.percentile(values, 50.0) == pytest.approx(499.5)


def test_trimmed_mean_drops_the_extremes_and_follows_the_mix():
    assert harness.trimmed_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert harness.trimmed_mean([100.0] + [1.0] * 8 + [0.0]) == pytest.approx(1.0)
    # Two speed modes: the median jumps between them, the mean does not.
    fast, slow = [1.0] * 11, [1.3] * 9
    assert harness.median(fast + slow) == 1.0
    assert harness.trimmed_mean(fast + slow) == pytest.approx((9 + 7 * 1.3) / 16)


def test_fast_quartile_reads_the_fast_side():
    assert harness.fast_quartile([5.0, 1.0, 4.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert harness.fast_quartile([5.0, 1.0, 4.0, 2.0, 3.0], rate=True) == pytest.approx(4.0)
    # Half the dwells on a core 1.7x slower: the fast side is unmoved.
    fast, slow = [1.0] * 10, [1.7] * 10
    assert harness.fast_quartile(fast + slow) == pytest.approx(1.0)
    assert harness.fast_quartile(fast) == pytest.approx(1.0)


def test_core_rotation_moves_every_thread_and_restores(monkeypatch):
    import served

    if len(served.CORES) < 2:
        pytest.skip("needs two cores")
    monkeypatch.setattr(served, "DWELL_S", 0.05)
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    seen: set[frozenset] = set()
    try:
        with served.CoreRotation([child.pid], time.perf_counter()):
            deadline = time.monotonic() + 5.0
            wanted = {frozenset({core}) for core in served.CORES}
            while time.monotonic() < deadline and not wanted <= seen:
                seen.add(frozenset(os.sched_getaffinity(child.pid)))
                time.sleep(0.005)
        assert wanted <= seen
        assert os.sched_getaffinity(child.pid) == {served.CORES[-1]}
    finally:
        child.kill()
        child.wait()


# -- layer recorder ---------------------------------------------------------------


def test_snapshot_diff_covers_only_the_window():
    rec = layers.Recorder()
    inner = rec.wrap("inner", lambda x: x, out=lambda r: r)
    outer = rec.wrap("outer", lambda x: inner(x) + 1, size=lambda a: 1)
    outer(2)
    before = rec.snapshot()
    outer(5)
    outer(7)
    window = layers.diff(rec.snapshot(), before)
    assert window["stats"]["outer"][0] == 2
    assert window["stats"]["inner"][0] == 2
    assert len(window["stats"]["outer"][3]) == 2
    assert window["counters"] == {"outer.items": 2, "inner.out": 12}
    # Self time excludes the nested call.
    n, total, self_s, _ = window["stats"]["outer"]
    assert 0 < self_s < total


# -- oracles ----------------------------------------------------------------------------


def _served_streams(n_sessions=3, steps=12, ranks=4, seed=0):
    """Streams and states of a few sessions run on an in-process server,
    exactly as the served workloads record them."""
    from repro.core.sampling import MinEstimator, SamplingPlan
    from repro.harmony.client import TuningClient
    from repro.harmony.transport import InProcessTransport

    import served

    space = served.make_space("bench")
    plan = SamplingPlan(1, MinEstimator())
    server = oracle.reference_server(space, plan)
    streams, states = {}, {}
    rng = np.random.default_rng(seed)
    for i in range(n_sessions):
        name = f"s{i:03d}.0"
        client = TuningClient(InProcessTransport(server))
        client.open_session(name, k=2, estimator="min")
        client.register(space)
        rounds = streams[name] = []
        for step in range(steps):
            points = np.asarray(client.fetch_many(ranks))
            times = 1.0 + rng.random(ranks)
            client.report_many(list(times), step=step)
            rounds.append((points, times))
        states[name] = json.loads(oracle.canonical(oracle.session_state(server, name)))
    return space, plan, streams, states


def test_served_oracle_accepts_a_faithful_run():
    space, plan, streams, states = _served_streams()
    reference, diverged = oracle.replay_sessions(
        streams, space=space, plan=plan, k=2, batched=True
    )
    assert diverged == []
    assert oracle.compare_states(states, reference, "in-process") == []


def test_served_oracle_flags_an_altered_result():
    space, plan, streams, states = _served_streams()
    name = "s001.0"
    states[name]["best"]["value"] += 1e-9
    reference, _ = oracle.replay_sessions(
        streams, space=space, plan=plan, k=2, batched=True
    )
    assert oracle.compare_states(states, reference, "in-process") == [
        f"in-process: {name} best differs"
    ]
    # An altered measurement changes what the reference tuner is told.
    points, times = streams[name][0]
    streams[name][0] = (points, times * 2.0)
    reference, _ = oracle.replay_sessions(
        streams, space=space, plan=plan, k=2, batched=True
    )
    flagged = oracle.compare_states(states, reference, "in-process")
    assert any(line.startswith(f"in-process: {name} checkpoint") for line in flagged)


def test_served_oracle_flags_a_diverged_assignment():
    space, plan, streams, _states = _served_streams()
    points, times = streams["s000.0"][3]
    streams["s000.0"][3] = (points + 1.0, times)
    _reference, diverged = oracle.replay_sessions(
        streams, space=space, plan=plan, k=2, batched=True
    )
    assert diverged == ["s000.0: assignments differ from the reference"]


def test_wal_oracle_matches_and_flags(tmp_path):
    from repro.core.sampling import MinEstimator, SamplingPlan
    from repro.experiments.common import tuner_factory
    from repro.harmony.client import TuningClient
    from repro.harmony.transport import InProcessTransport
    from repro.harmony.wal import recover_server

    import served

    space = served.make_space("bench")
    plan = SamplingPlan(1, MinEstimator())
    server = recover_server(tuner_factory("pro", rng=0), tmp_path, space=space, plan=plan)
    client = TuningClient(InProcessTransport(server))
    client.open_session("s000.0", k=1, estimator="min")
    client.register(space)
    for step in range(10):
        client.fetch()
        client.report(1.0 + step / 10, step=step)
    served_state = {"s000.0": {"checkpoint": server.session("s000.0").op_checkpoint()}}
    server.close_wal()
    served_state = json.loads(oracle.canonical(served_state))
    recovered = oracle.recovered_states(tmp_path, ["s000.0"], space=space, plan=plan)
    assert oracle.compare_states(served_state, recovered, "wal") == []
    served_state["s000.0"]["checkpoint"]["snapshot"]["n_reports"] += 1
    assert oracle.compare_states(served_state, recovered, "wal") == [
        "wal: s000.0 checkpoint differs"
    ]


def test_fig10_oracle_flags_altered_cell_and_broken_claim():
    from repro.experiments.fig10_sampling import SamplingStudy

    def study(mean):
        mean = np.asarray(mean, dtype=float)
        return SamplingStudy((0.0, 0.15), (1, 3), mean, np.ones_like(mean), 4)

    good = study([[1.0, 2.0], [3.0, 2.5]])
    rerun = study([[2.5]])
    assert oracle.check_study(good, rerun, (0.15, 3)) == []
    assert len(oracle.check_study(good, study([[2.6]]), (0.15, 3))) == 1
    flat = study([[2.0, 2.0], [3.0, 2.5]])
    assert oracle.check_study(flat, rerun, (0.15, 3)) == [
        "fig10 rho=0 row does not increase in K: [2.0, 2.0]"
    ]


def test_reproducibility_oracle():
    assert oracle.check_reproducible({"a": 1.0}, {"a": 1.0}, "x") == []
    assert oracle.check_reproducible({"a": 1.0}, {"a": 1.0 + 1e-12}, "x") == [
        "x: rerun from the same seed differs"
    ]


# -- traced window ------------------------------------------------------------------------


def test_traced_served_run_brackets_the_server_window():
    """Server and client layer figures cover one window: the server's
    busy time fits inside the client's socket wait, and layers the
    workload does not use in that window read 0."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "served_gs2_wal", "--seed", "5",
         "--seconds", "4", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["wire.gap_ms"] >= 0.0
    assert 0.0 < m["coverage"] <= 1.0
    assert m["transport.respond_ms"] > 0.0 and m["wal.commits"] > 0.0
    assert m["wal.bytes"] > 0.0 and m["binproto.codec_ms"] > 0.0
    # Only registration speaks JSON here: the start-up registrations and
    # the post-run state queries fall outside the window, the sessions
    # reopened every 64 steps inside it.
    assert m["protocol.json_codec_ms"] < 0.1 * m["binproto.codec_ms"]
    # Without --max-pending the admission stage only checks that it is off.
    assert m["admission.plan_ms"] < 0.01 * m["transport.respond_ms"]
    assert m["admission.shed"] == 0.0 and m["cluster.run_ms"] == 0.0


# -- hygiene ------------------------------------------------------------------------------


def test_leak_census_flags_what_a_run_leaves_behind():
    before = harness.census()
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        found = harness.leaks(before, harness.census(), pids=[proc.pid])
        assert found == [f"child process {proc.pid} still running"]
    finally:
        proc.kill()
        proc.wait()
    assert harness.leaks(before, harness.census(), pids=[proc.pid]) == []


def _descendants(pid: int) -> list[int]:
    out = []
    try:
        kids = harness.children(pid)
    except FileNotFoundError:
        return out
    for kid in kids:
        out.append(kid)
        out.extend(_descendants(kid))
    return out


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


@pytest.mark.parametrize(
    "workload, sig, min_children",
    [("served_json_small", signal.SIGTERM, 1), ("fig10_sweep", signal.SIGINT, 2)],
)
def test_interrupted_run_leaves_no_orphan(workload, sig, min_children):
    """Interrupt a run while its server (or pool) is up: it must exit
    non-zero without a result and take every descendant with it."""
    shm_before = set(os.listdir("/dev/shm"))
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "30", "--trace", "0"],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    seen: set[int] = set()
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and proc.poll() is None:
            seen.update(_descendants(proc.pid))
            if len([p for p in _descendants(proc.pid) if _alive(p)]) >= min_children:
                time.sleep(1.0)
                seen.update(_descendants(proc.pid))
                break
            time.sleep(0.05)
        assert proc.poll() is None, "run ended before it could be interrupted"
        proc.send_signal(sig)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert b'"correct"' not in out, out[-500:]
    assert b"interrupted" in err, err[-2000:]
    assert seen, "no child process was observed"
    survivors = [pid for pid in seen if _alive(pid)]
    for pid in survivors:  # do not let a failing run leak into the next test
        os.kill(pid, signal.SIGKILL)
    assert survivors == [], f"orphans after interrupt: {survivors}"
    assert set(os.listdir("/dev/shm")) - shm_before == set()
