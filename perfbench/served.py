"""The served workloads: PRO tuning over the wire against ``repro serve``.

Load shape: one load-generator process (the benchmark itself) with two
connections, one thread each, each a lock-step ``TcpClientTransport``.
Sessions are pinned round-robin to connections.  The loop is closed
because an SPMD application blocks on its next configuration.  The
server and the load generator share one core, and move together to the
next core every ``DWELL_S`` seconds of the load (see ``CORES``).  Each
session is one application run of ``STEPS`` time steps; when it ends, the
slot opens a fresh session (the next run of the application).  A slot's
first run is cut short by the slot's share of the cycle, so the slots'
runs are spread evenly over it instead of all searching, and then all
serving incumbents, at once: in step, 256 sessions swung a run's round
p50 about 2x within each 16k-round cycle, and where a run stopped in
the cycle moved its figures.

``STEPS`` comes from where PRO converges on this very loop (the same
``Slot`` driven in process, 4 seeds): on the GS2 space (64 sessions,
8 ranks, K=2) sessions converged at step 38 (median), 51 (p90), 71
(max); on the ``bench`` space (128 sessions, 1 rank, K=1) at 41.5, 59
and 112.  The two spaces converge alike, so one cadence serves both:
64 steps, past the p90 of both, so about nine runs in ten tune to
convergence and then serve their incumbent, as the paper's online loop
does, while the tuner's search stays a steady share of the rounds.
"""

from __future__ import annotations

import gc
import json
import os
import re
import shutil
import signal
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import harness
import layers
import oracle

CONNECTIONS = 2
#: server start-ups per run; setup_s is their median
SETUPS = 3
#: idle throughput of the client-side noise (ParetoNoise, alpha = 1.7)
RHO = 0.2
#: seconds the server and the load generator stay on one core before
#: both move to the next; each dwell is one block of the run's figures
DWELL_S = 1.0
#: steps of each slot's first session that ``ntt`` covers
NTT_STEPS = 16
#: time steps per application run (session); see the module docstring
STEPS = 64

# The server and the load generator share one core at a time, and move
# together to the next core every DWELL_S seconds of the load.  Left to
# the scheduler on two cores, where their threads landed flipped whole
# runs between two throughput modes about 2x apart: that is the
# scheduler, not the program.  A core each was faster but tied each run
# to two vCPUs' speed phases.  On one fixed core, a run rode that core's
# phase: the vCPUs of a shared host change speed independently (a fixed
# Python loop alternating between two of them: correlation 0.06), by up
# to 1.7x, in phases that can outlast a run; one served_json_small run
# read a round p50 of 1.3-1.4 ms in every block, the next 0.9-1.7 ms.
# Moving between the cores, every run samples each of them (see _blocks).
CORES = sorted(os.sched_getaffinity(0))


@dataclass(frozen=True)
class ServedConfig:
    sessions: int
    #: configurations per time step (ranks of one SPMD application);
    #: 1 means unbatched ``fetch``/``report``
    ranks: int
    k: int
    space: str
    wire: str
    wal: bool
    max_pending: int | None


WORKLOADS = {
    "served_gs2_wal": ServedConfig(
        sessions=16, ranks=8, k=2, space="gs2", wire="binary", wal=True,
        max_pending=None,
    ),
    "served_json_small": ServedConfig(
        sessions=256, ranks=1, k=1, space="bench", wire="json", wal=False,
        max_pending=512,
    ),
}


def make_space(kind: str):
    if kind == "gs2":
        from repro.apps.gs2 import GS2Surrogate

        return GS2Surrogate().space()
    from repro.space import IntParameter, ParameterSpace

    # The `repro serve --workload bench` preset.
    return ParameterSpace([IntParameter("a", -10, 10), IntParameter("b", -10, 10)])


class Application:
    """Measures configurations client-side, seeded per session."""

    def __init__(self, db, seed: int, slot: int, gen: int) -> None:
        from repro.variability.models import ParetoNoise

        self.rng = np.random.default_rng([seed, slot, gen])
        self.noise = ParetoNoise(rho=RHO, alpha=1.7)
        self.db = db
        self.optimum = self.rng.integers(-8, 9, size=2).astype(float)

    def measure(self, points: np.ndarray) -> np.ndarray:
        if self.db is not None:
            cost = self.db.evaluate_batch(points)
        else:
            cost = 1.0 + 0.05 * ((points - self.optimum) ** 2).sum(axis=1)
        return self.noise.observe_batch(cost, self.rng)


def first_run_steps(cfg: ServedConfig, index: int) -> int:
    """Length of slot *index*'s first run: ``STEPS`` less its offset."""
    return STEPS - (index * STEPS) // cfg.sessions


class Slot:
    """One application rank group: a sequence of sessions on one connection."""

    def __init__(self, cfg: ServedConfig, index: int, seed: int, db, space) -> None:
        self.cfg, self.index, self.seed, self.db, self.space = cfg, index, seed, db, space
        self.gen = -1
        self.streams: dict[str, list] = {}
        self.client = None
        self._busy_before = 0
        #: time steps of the current run; the first is cut short
        self.steps = first_run_steps(cfg, index)

    @property
    def busy_seen(self) -> int:
        """Busy refusals the client absorbed, over every session so far."""
        return self._busy_before + (self.client.busy_seen if self.client else 0)

    def open(self, transport) -> None:
        from repro.harmony.client import TuningClient

        self._busy_before = self.busy_seen
        if self.gen >= 0:
            self.steps = STEPS
        self.gen += 1
        self.name = f"s{self.index:03d}.{self.gen}"
        self.client = TuningClient(transport)
        self.client.open_session(self.name, k=self.cfg.k, estimator="min")
        self.client.register(self.space)
        self.app = Application(self.db, self.seed, self.index, self.gen)
        self.step = 0
        self.rounds = self.streams[self.name] = []

    def round(self) -> float:
        """One time step; returns the seconds spent in fetch and report."""
        client, step = self.client, self.step
        if self.cfg.ranks == 1:
            t0 = time.perf_counter()
            points = client.fetch()[None, :]
            t1 = time.perf_counter()
            times = self.app.measure(points)
            t2 = time.perf_counter()
            client.report(float(times[0]), step=step)
        else:
            t0 = time.perf_counter()
            points = np.asarray(client.fetch_many(self.cfg.ranks))
            t1 = time.perf_counter()
            times = self.app.measure(points)
            t2 = time.perf_counter()
            client.report_many(times, step=step)
        t3 = time.perf_counter()
        self.rounds.append((points, times))
        self.step += 1
        return (t1 - t0) + (t3 - t2)


class Server:
    """One ``repro serve`` child, started and stopped through the Owner."""

    def __init__(self, owner: harness.Owner, cfg: ServedConfig, tmp: Path,
                 stats: Path | None = None) -> None:
        tmp.mkdir(parents=True)
        self.tmp = tmp
        self.port_file = tmp / "port"
        self.wal_dir = tmp / "wal" if cfg.wal else None
        argv = [
            "serve", "--port", "0", "--port-file", str(self.port_file),
            "--workload", cfg.space, "--wire", cfg.wire,
        ]
        if cfg.wal:
            argv += ["--wal-dir", str(self.wal_dir), "--sync", "batch"]
        if cfg.max_pending is not None:
            argv += ["--max-pending", str(cfg.max_pending)]
        if stats is None:
            argv = [sys.executable, "-m", "repro"] + argv
        else:
            script = Path(__file__).with_name("serve_traced.py")
            argv = [sys.executable, str(script), str(stats)] + argv
        self.owner = owner
        self.stats = stats
        self.log = open(tmp / "server.log", "wb")
        t0 = time.perf_counter()
        self.proc = owner.spawn(argv, stdout=self.log)
        os.sched_setaffinity(self.proc.pid, {CORES[-1]})
        self.port = int(harness.wait_for_file(self.port_file, self.proc))
        owner.ports.append(self.port)
        self.ready_s = time.perf_counter() - t0

    def snapshot(self, n: int) -> dict:
        """The traced server's *n*-th layer snapshot (SIGUSR1, then wait)."""
        self.proc.send_signal(signal.SIGUSR1)
        path = layers.snapshot_path(self.stats, n)
        return json.loads(harness.wait_for_file(path, self.proc))

    def stop(self) -> str:
        code = self.owner.stop(self.proc)
        self.log.close()
        text = (self.tmp / "server.log").read_text()
        if code != 0:
            raise RuntimeError(f"server exited with {code}:\n{text[-2000:]}")
        return text


def _connect(port: int):
    from repro.harmony.transport import TcpClientTransport

    return [TcpClientTransport("127.0.0.1", port, timeout=30.0) for _ in range(CONNECTIONS)]


class CoreRotation:
    """Moves every thread of *pids* to the next core of ``CORES`` every
    ``DWELL_S`` seconds from *start*, and back to the last core on exit.

    Dwell 0 is on ``CORES[-1]``, where the server and the benchmark
    start; threads started later inherit their creator's core.
    """

    def __init__(self, pids: list[int], start: float) -> None:
        self.pids, self.start = pids, start
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="core-rotation", daemon=True
        )

    def _move(self, core: int) -> None:
        for pid in self.pids:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except FileNotFoundError:
                continue
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), {core})
                except OSError:  # the thread has exited
                    pass

    def _loop(self) -> None:
        dwell = 0
        while True:
            dwell += 1
            if self._stop.wait(self.start + dwell * DWELL_S - time.perf_counter()):
                return
            self._move(CORES[(dwell - 1) % len(CORES)])

    def __enter__(self) -> "CoreRotation":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._move(CORES[-1])


def _setup(cfg, owner, tmp, seed, db, space, stats=None):
    """Spawn a server, wait for its port, register every session."""
    server = Server(owner, cfg, tmp, stats)
    transports = []
    try:
        transports = _connect(server.port)
        slots = [Slot(cfg, i, seed, db, space) for i in range(cfg.sessions)]
        t0 = time.perf_counter()
        for slot in slots:
            slot.open(transports[slot.index % CONNECTIONS])
        register_s = time.perf_counter() - t0
    except BaseException:
        for t in transports:
            t.close()
        server.stop()
        raise
    return server, transports, slots, register_s


def _drive(cfg, transport, slots, deadline, out, index):
    lat: list[float] = []
    done: list[float] = []
    failed = 0
    error = None
    try:
        while time.perf_counter() < deadline:
            for slot in slots:
                if slot.step >= slot.steps:
                    slot.open(transport)
                try:
                    lat.append(slot.round())
                    done.append(time.perf_counter())
                except (RuntimeError, ConnectionError, OSError) as exc:
                    failed += 1
                    error = f"{type(exc).__name__}: {exc}"
                    break
                if time.perf_counter() >= deadline:
                    break
            if error is not None:
                break
    finally:
        out[index] = (lat, failed, error, time.perf_counter(), done)


def _measure(cfg, server, transports, slots, seconds):
    """Closed-loop load for *seconds*; returns round latencies and window."""
    out: dict[int, tuple] = {}
    cpu0_srv, cpu0_self = harness.cpu_seconds(server.proc.pid), harness.cpu_seconds()
    start = time.perf_counter()
    deadline = start + seconds
    threads = [
        threading.Thread(
            target=_drive,
            args=(cfg, transports[c], slots[c::CONNECTIONS], deadline, out, c),
            name=f"loadgen-{c}",
        )
        for c in range(CONNECTIONS)
    ]
    # The load generator's own garbage collector would pause both client
    # threads while the recorded streams grow; the server's is left alone.
    gc.disable()
    try:
        with CoreRotation([server.proc.pid, os.getpid()], start):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        gc.enable()
    end = max(v[3] for v in out.values())
    wall = end - start
    cpu_srv = harness.cpu_seconds(server.proc.pid) - cpu0_srv
    cpu_self = harness.cpu_seconds() - cpu0_self
    lat = np.concatenate([np.asarray(out[c][0]) for c in range(CONNECTIONS)])
    done = np.concatenate([np.asarray(out[c][4]) for c in range(CONNECTIONS)])
    order = np.argsort(done, kind="stable")
    failed = sum(out[c][1] for c in range(CONNECTIONS))
    errors = [out[c][2] for c in range(CONNECTIONS) if out[c][2]]
    return {
        "seconds": seconds,
        "lat": lat[order],
        "done": done[order] - start,
        "failed": failed,
        "errors": errors,
        "wall": wall,
        "server_cpu_frac": cpu_srv / wall,
        "loadgen_cpu_frac": cpu_self / wall,
    }


def _served_states(transport, names):
    states = {}
    for name in names:
        states[name] = {
            "checkpoint": transport.request({"op": "checkpoint", "session": name}),
            "best": transport.request({"op": "best", "session": name}),
        }
    return states


def _phase(cfg, owner, tmp, seed, db, space, seconds, *, traced):
    """Start a server, load it, collect its state, stop it, check it."""
    from repro.core.sampling import MinEstimator, SamplingPlan

    stats_file = tmp / "server-layers.json" if traced else None
    client_rec = None
    if traced:
        client_rec = layers.Recorder()
        layers.install_client(client_rec)
    server, transports, slots, register_s = _setup(
        cfg, owner, tmp, seed, db, space, stats_file
    )
    try:
        # A traced run's layer figures cover exactly the measured window:
        # the server's stats are the difference of two snapshots taken
        # while no request is in flight.
        if traced:
            before = server.snapshot(0)
            client_rec.reset()
        busy0 = sum(s.busy_seen for s in slots)
        m = _measure(cfg, server, transports, slots, seconds)
        m["busy_retries"] = sum(s.busy_seen for s in slots) - busy0
        if traced:
            m["client_layers"] = client_rec.snapshot()
            m["server_layers"] = layers.diff(server.snapshot(1), before)
            m["import_s"] = before["counters"].get("setup.import_s", 0.0)
        m["peak_rss_mb"] = harness.peak_rss_mb(server.proc.pid)
        streams = {n: r for s in slots for n, r in s.streams.items()}
        served = _served_states(transports[0], list(streams))
    finally:
        for t in transports:
            t.close()
        log = server.stop()
    m["ready_s"], m["register_s"] = server.ready_s, register_s
    m["sessions_run"] = len(streams)
    if not traced:
        m["ntt"] = _ntt(cfg, streams)
    shed = re.search(r"load shed\s*:\s*(\d+) messages", log)
    m["shed"] = int(shed.group(1)) if shed else 0

    # Correctness: every session against an in-process reference fed the
    # same stream, and the WAL against the served state.
    plan = SamplingPlan(1, MinEstimator())
    mismatches = [
        f"server: {name} {part} request failed"
        for name, state in served.items()
        for part, resp in state.items()
        if not resp.get("ok", False)
    ]
    reference, diverged = oracle.replay_sessions(
        streams, space=space, plan=plan, k=cfg.k, batched=cfg.ranks > 1
    )
    mismatches += diverged + oracle.compare_states(served, reference, "in-process")
    if cfg.wal:
        recovered = oracle.recovered_states(
            server.wal_dir, list(streams), space=space, plan=plan
        )
        mismatches += oracle.compare_states(served, recovered, "wal-recovered")
    m["mismatches"] = mismatches
    return m


def run(name: str, seed: int, seconds: float, trace: bool, owner: harness.Owner) -> dict:
    from repro.experiments.common import gs2_problem

    cfg = WORKLOADS[name]
    os.sched_setaffinity(0, {CORES[-1]})
    space = make_space(cfg.space)
    db = gs2_problem(rng=0)[1] if cfg.space == "gs2" else None
    tmp = harness.OUT / f"tmp-{name}-{seed}-{int(trace)}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        ready, register = [], []
        for i in range(SETUPS - 1):
            server, transports, _slots, register_s = _setup(
                cfg, owner, tmp / f"setup{i}", seed, db, space
            )
            for t in transports:
                t.close()
            server.stop()
            ready.append(server.ready_s)
            register.append(register_s)
        main = _phase(cfg, owner, tmp / "main", seed, db, space, seconds, traced=False)
        ready.append(main["ready_s"])
        register.append(main["register_s"])
        traced = None
        if trace:
            traced = _phase(
                cfg, owner, tmp / "traced", seed, db, space, seconds / 2, traced=True
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return _result(cfg, main, traced, ready, register)


def _ntt(cfg, streams) -> float:
    """Mean NTT = (1 - rho) * sum_k max_p t_pk (Eq. 23) over the first
    ``NTT_STEPS`` steps of every slot's first application run that is
    at least that long, which depends on the seed only."""
    ntts = []
    for index in range(cfg.sessions):
        if first_run_steps(cfg, index) < NTT_STEPS:
            continue
        rounds = streams[f"s{index:03d}.0"][:NTT_STEPS]
        if len(rounds) < NTT_STEPS:
            raise RuntimeError(
                f"session s{index:03d}.0 ran {len(rounds)} of {NTT_STEPS} steps; "
                "the run is too short for ntt"
            )
        ntts.append((1.0 - RHO) * sum(float(np.max(t)) for _, t in rounds))
    return float(np.mean(ntts))


def _blocks(m) -> dict:
    """Per-block round statistics, one block per dwell on one core: the
    rounds that completed in it.

    A run reports the fast quartile of its blocks
    (``harness.fast_quartile``): the speed the program keeps up on the
    faster of the cores' phases it met, which a phase that slows one core
    for the whole run does not move.
    """
    n_blocks = int(m["seconds"] // DWELL_S)
    if n_blocks < 3:
        raise RuntimeError(f"a run needs at least {3 * DWELL_S:g} s of load")
    which = np.floor(m["done"] / DWELL_S)
    out = {"p50_ms": [], "p90_ms": [], "steps_per_s": []}
    for b in range(n_blocks):
        lat_ms = m["lat"][which == b] * 1e3
        out["p50_ms"].append(float(np.median(lat_ms)))
        out["p90_ms"].append(harness.percentile(lat_ms, 90.0))
        out["steps_per_s"].append(lat_ms.size / DWELL_S)
    return out


def _result(cfg, main, traced, ready, register):
    attempted = main["lat"].size + main["failed"]
    setups = [a + b for a, b in zip(ready, register)]
    rounds = main["lat"].size
    blocks = _blocks(main)
    end_to_end = {
        "setup_s": harness.median(setups),
        "latency_p50_ms": harness.fast_quartile(blocks["p50_ms"]),
        "latency_p90_ms": harness.fast_quartile(blocks["p90_ms"]),
        "steps_per_s": harness.fast_quartile(blocks["steps_per_s"], rate=True),
        "ntt": main["ntt"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    mismatches = list(main["mismatches"])
    per_layer = None
    if traced is not None:
        mismatches += traced["mismatches"]
        per_layer = layer_metrics(cfg, main, traced, ready, register)
    return {
        "params": {**asdict(cfg), "steps": STEPS, "connections": CONNECTIONS,
                   "setups": SETUPS, "cores": CORES, "dwell_s": DWELL_S,
                   "noise": f"ParetoNoise(rho={RHO}, alpha=1.7)",
                   "unit": "one round: a session's fetch and report of one step",
                   "server": "repro serve (asyncio transport)"},
        "attempted": attempted,
        "failed": main["failed"],
        "errors": main["errors"],
        "mismatches": mismatches,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "extra": {
            "rounds": rounds,
            "evals_per_s": end_to_end["steps_per_s"] * cfg.ranks,
            "blocks": blocks,
            "round_p99_ms": harness.percentile(main["lat"] * 1e3, 99.0),
            "sessions_run": main["sessions_run"],
            "error_frac": main["failed"] / attempted,
            "setup_samples_s": setups,
            "admission_shed": main["shed"],
            "client_busy_retries": main["busy_retries"],
        },
        "layer_detail": None if traced is None else {
            "client": harness.layer_table(traced["client_layers"], traced["lat"].size),
            "server": harness.layer_table(traced["server_layers"], traced["lat"].size),
        },
    }


def _get(snap, key, field=1):
    entry = snap["stats"].get(key)
    return entry[field] if entry else 0.0


def layer_metrics(cfg, main, traced, ready, register) -> dict:
    """The per-layer metrics of a traced phase, per round (ms or count)."""
    c, s = traced["client_layers"], traced["server_layers"]
    rounds = traced["lat"].size
    per = 1e3 / rounds
    server_busy = sum(v[2] for v in s["stats"].values())
    round_total = _get(c, "client.fetch") + _get(c, "client.report")
    wire_wait = _get(c, "client.wire", 2)
    chunks = _get(s, "transport.respond", 0)
    frames = s["counters"].get("transport.respond.items", 0) + s["counters"].get(
        "transport.prepare.items", 0
    )
    traced_p50 = float(np.median(traced["lat"]))
    return {
        "client.fetch_ms": _get(c, "client.fetch") * per,
        "client.report_ms": _get(c, "client.report") * per,
        "transport.respond_ms": server_busy * per,
        "transport.chunks": chunks / rounds,
        "transport.frames_per_chunk": frames / chunks if chunks else 0.0,
        "wire.gap_ms": (wire_wait - server_busy) * per,
        "binproto.codec_ms": (_get(c, "binproto.codec") + _get(s, "binproto.codec")) * per,
        "protocol.json_codec_ms": (
            _get(c, "protocol.json_codec") + _get(s, "protocol.json_codec")
        ) * per,
        "admission.plan_ms": _get(s, "admission.plan") * per,
        "admission.shed": s["counters"].get("admission.shed.items", 0),
        "client.busy_retries": traced["busy_retries"],
        "session.fetch_ms": _get(s, "session.fetch") * per,
        "session.report_ms": _get(s, "session.report") * per,
        "pro.ask_ms": _get(s, "pro.ask") * per,
        "pro.tell_ms": _get(s, "pro.tell") * per,
        "wal.append_ms": _get(s, "wal.append") * per,
        "wal.appends": _get(s, "wal.append", 0) / rounds,
        "wal.bytes": s["counters"].get("wal.encode.out", 0) / rounds,
        "wal.commit_ms": _get(s, "wal.commit") * per,
        "wal.commits": _get(s, "wal.commit", 0) / rounds,
        "server.cpu_frac": main["server_cpu_frac"],
        "loadgen.cpu_frac": main["loadgen_cpu_frac"],
        "database.evaluate_ms": _get(c, "database.evaluate") * per,
        "setup.import_s": traced["import_s"],
        "setup.server_ready_s": harness.median(ready),
        "setup.register_s": harness.median(register),
        "coverage": (round_total - wire_wait + server_busy) / round_total,
        "trace_overhead_frac": traced_p50 / float(np.median(main["lat"])) - 1.0,
    }
