"""The kill-9 battery: a real server subprocess, killed mid-sweep, restarted
from its WAL — final results bit-identical to a run that never crashed.

Each arm launches ``repro serve`` with ``--wal-dir`` and a deterministic
``--crash-at`` hook (SIGKILL at the Nth WAL event), drives it with a
reconnecting :class:`TuningClient`, and lets a supervisor thread restart
the dead process on the same port *without* the crash hook — the recovery
path is the ordinary ``--wal-dir`` boot, there is no special "recover"
command.  The crash points cover the four distinct durability windows:

* ``append:N`` — dies with the record in the userspace buffer.  The record
  (and the in-memory mutation it described) is lost; the client never got
  an ACK and retries, so the operation is applied exactly once.
* ``commit:N`` — dies after the fsync, before any response bytes.  The
  record is durable; the client's retry is deduplicated by the recovered
  high-water mark and answered from the reply cache.
* ``torn:N`` — dies halfway through writing a record.  Recovery truncates
  the torn tail and the client's retry re-applies the operation.
* ``snapshot:1`` — dies after the snapshot segment is durable but before
  the older segments are deleted.  Replay prefers the latest complete
  snapshot; the leftover segments are garbage-collected by the next one.

Every arm must converge to the same final checkpoint and incumbent as an
uninterrupted in-process run of the identical request sequence — on
both wires (JSON, binary).
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.sampling import SamplingPlan
from repro.experiments.common import tuner_factory
from repro.harmony.client import TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.transport import InProcessTransport, TcpClientTransport
from tests.helpers import free_port, wait_port_file

ROOT = Path(__file__).resolve().parents[2]
HOST = "127.0.0.1"
SEED = 7
N_STEPS = 15
N_BATCH_ROUNDS = 3
BATCH = 8


def cost(point):
    a, b = point
    return 1.0 + (a - 2) ** 2 + (b + 3) ** 2


def make_space():
    from repro.space import IntParameter, ParameterSpace

    return ParameterSpace([IntParameter("a", -8, 8), IntParameter("b", -8, 8)])


def drive(client):
    """The workload both the baseline and every crash arm run, verbatim:
    lock-step fetch/report, then batched rounds (binary v2 frames when the
    wire negotiated them, stamped JSON otherwise)."""
    for step in range(N_STEPS):
        config = client.fetch()
        client.report(cost(config), step=step)
    for round_index in range(N_BATCH_ROUNDS):
        configs = client.fetch_many(BATCH)
        client.report_many(
            [cost(c) for c in configs], step=N_STEPS + round_index
        )


def final_state(request):
    """(checkpoint snapshot, best response) via raw protocol messages."""
    snap = request({"op": "checkpoint"})
    assert snap["ok"], snap
    best = request({"op": "best"})
    assert best["ok"], best
    return snap["snapshot"], best


def baseline_state():
    """The uninterrupted paired run, entirely in-process."""
    server = TuningServer(
        tuner_factory("pro", rng=SEED), plan=SamplingPlan(1)
    )
    client = TuningClient(InProcessTransport(server), nonce="baseline")
    client.register(make_space())
    drive(client)
    return final_state(server.handle)


class ServeSupervisor:
    """Runs ``repro serve`` as a subprocess; restarts it whenever it dies.

    The first launch carries the arm's ``--crash-at`` hook; every restart
    omits it (a fresh hook would count events from zero and crash-loop).
    """

    def __init__(self, tmp_path, *, wire, crash_at, snapshot_bytes=None):
        self.port = free_port()
        self.wal_dir = tmp_path / "wal"
        self.port_file = tmp_path / "port"
        self.exit_codes = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        base = [
            sys.executable, "-m", "repro", "serve",
            "--wire", wire,
            "--host", HOST, "--port", str(self.port),
            "--port-file", str(self.port_file),
            "--wal-dir", str(self.wal_dir), "--sync", "batch",
            "--seed", str(SEED),
        ]
        if snapshot_bytes is not None:
            base += ["--wal-snapshot-bytes", str(snapshot_bytes)]
        self._base_cmd = base
        self._first_cmd = base + ["--crash-at", crash_at]
        self._env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self._proc = self._launch(self._first_cmd)
        self._thread = threading.Thread(target=self._supervise, daemon=True)
        self._thread.start()

    def _launch(self, cmd):
        return subprocess.Popen(
            cmd, cwd=ROOT, env=self._env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def _supervise(self):
        while True:
            code = self._proc.wait()
            if self._stop.is_set():
                return
            self.exit_codes.append(code)
            with self._lock:
                if self._stop.is_set():
                    return
                self._proc = self._launch(self._base_cmd)

    def wait_ready(self, timeout=30.0):
        wait_port_file(self.port_file, timeout=timeout)

    def stop(self):
        self._stop.set()
        with self._lock:
            self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung server
            self._proc.kill()
            self._proc.wait()
        self._thread.join(timeout=10)


ARMS = [
    # (wire, crash spec, snapshot bytes)
    pytest.param("json", "append:5", None, id="async-json-append"),
    pytest.param("binary", "commit:34", None, id="async-binary-commit"),
    pytest.param("json", "torn:7", None, id="async-json-torn"),
    pytest.param("binary", "snapshot:1", 2048, id="async-binary-snapshot"),
]


@pytest.mark.parametrize("wire,crash_at,snapshot_bytes", ARMS)
def test_killed_server_recovers_bit_identical(
    tmp_path, wire, crash_at, snapshot_bytes
):
    expected_snap, expected_best = baseline_state()

    supervisor = ServeSupervisor(
        tmp_path, wire=wire, crash_at=crash_at, snapshot_bytes=snapshot_bytes,
    )
    try:
        supervisor.wait_ready()
        client = TuningClient(
            transport_factory=lambda: TcpClientTransport(
                HOST, supervisor.port
            ),
            nonce="battery", reconnect_attempts=12, reconnect_delay=0.2,
        )
        client.register(make_space())
        drive(client)
        snap, best = final_state(
            lambda m: client.transport.request(m)
        )
        client.transport.close()
    finally:
        supervisor.stop()

    assert -9 in supervisor.exit_codes, (
        f"the {crash_at} crash hook never fired: {supervisor.exit_codes}"
    )
    assert snap == expected_snap
    assert best == expected_best


def test_crash_mid_snapshot_leaves_recoverable_log(tmp_path):
    """White-box check of the snapshot:1 arm's window: the kill lands after
    the snapshot segment is durable, before old segments are unlinked —
    recovery must prefer the snapshot and the directory still replays."""
    from repro.harmony.wal import replay_dir

    supervisor = ServeSupervisor(
        tmp_path, wire="json", crash_at="snapshot:1", snapshot_bytes=1024,
    )
    try:
        supervisor.wait_ready()
        client = TuningClient(
            transport_factory=lambda: TcpClientTransport(
                HOST, supervisor.port
            ),
            nonce="snapwin", reconnect_attempts=12, reconnect_delay=0.2,
        )
        client.register(make_space())
        drive(client)
        status = client.status()
        client.transport.close()
    finally:
        supervisor.stop()

    assert -9 in supervisor.exit_codes
    snapshot, ops, stats = replay_dir(supervisor.wal_dir)
    assert snapshot is not None  # the snapshot record survived the kill
    assert status["n_reports"] == N_STEPS + N_BATCH_ROUNDS * BATCH
