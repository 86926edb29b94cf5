"""Process ownership, leak census, percentiles and run context.

Everything here is independent of the workloads: the benchmark's
workload modules start servers and pools through :class:`Owner`, and
``run.py`` brackets every run with :func:`census` so a run that leaves a
process, a listening socket, a non-daemon thread or a shared-memory
segment behind fails instead of printing a result.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: the checkout root: the parent of this package's directory
ROOT = Path(__file__).resolve().parents[1]
#: the program under test, run from source
SRC = ROOT / "src"
#: run reports and scratch state; the only place the benchmark writes
OUT = Path(__file__).resolve().parent / "out"

#: percentiles the harness may report, highest first
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


class Interrupted(Exception):
    """SIGTERM, raised in the main thread so every ``finally`` runs."""


def install_signal_handlers() -> None:
    """Turn SIGTERM into :class:`Interrupted`; SIGINT already raises
    KeyboardInterrupt.  Either way the stack unwinds through the owners'
    cleanup instead of leaving children behind."""

    def _raise(signum, _frame):
        raise Interrupted(f"signal {signum}")

    signal.signal(signal.SIGTERM, _raise)
    signal.signal(signal.SIGINT, signal.default_int_handler)


# -- percentiles ------------------------------------------------------------------


def tail_percentile(n: int) -> float | None:
    """The highest reportable percentile for *n* samples.

    A percentile is reportable when at least ten samples lie beyond it,
    i.e. ``n * (1 - p/100) >= 10``; ``None`` when even the median is not.
    """
    for p in _PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return None


def percentile(samples, p: float) -> float:
    """Linear-interpolated percentile (numpy's default rule) of *samples*.

    Raises ``ValueError`` when fewer than ten samples lie beyond *p*, so
    a tail is never reported from a handful of points.
    """
    values = np.asarray(samples, dtype=float)
    top = tail_percentile(values.size)
    if top is None or p > top:
        raise ValueError(
            f"p{p:g} needs {int(10 / (1 - p / 100) + 0.5)} samples, "
            f"got {values.size}"
        )
    return float(np.percentile(values, p))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean after dropping the lowest and highest *cut* share of *values*.

    Used to summarize a run's blocks or grids: the trim drops a stall,
    and the mean moves in proportion to how much of the run the host
    spent in each of its speed phases, where a median of a two-mode
    sample jumps from one mode to the other.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    drop = int(cut * ordered.size)
    return float(ordered[drop:ordered.size - drop].mean())


def fast_quartile(values, *, rate: bool = False) -> float:
    """The quartile of *values* on the fast side: the lower quartile of
    times, the upper quartile of rates (``rate=True``).

    Used to summarize a served run's blocks, one per dwell on one core.
    Each of the host's vCPUs switches between speed phases on its own, and
    a phase can outlast a run; a mean over the blocks moves with the share
    of the run spent on a slow core, the fast quartile only when every
    core was slow through most of the run.
    """
    return float(np.percentile(np.asarray(values, dtype=float), 75.0 if rate else 25.0))


# -- child processes ---------------------------------------------------------------


class Owner:
    """Owns every child process a run starts.

    Children start in their own session, so a terminal's Ctrl-C reaches
    only the benchmark, which then stops them in order: SIGINT (the
    server drains and exits), wait, SIGKILL, wait.  ``close`` runs from a
    ``finally`` and also on SIGINT/SIGTERM (see
    :func:`install_signal_handlers`).
    """

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []
        #: every child ever started, and the ports servers listened on:
        #: the leak census checks that none of them outlive the run
        self.pids: list[int] = []
        self.ports: list[int] = []

    def spawn(self, argv: list[str], *, stdout=None) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=stdout if stdout is not None else subprocess.DEVNULL,
            stderr=subprocess.STDOUT if stdout is not None else subprocess.DEVNULL,
            start_new_session=True,
        )
        self._procs.append(proc)
        self.pids.append(proc.pid)
        return proc

    def stop(self, proc: subprocess.Popen, grace: float = 10.0) -> int:
        """SIGINT, wait up to *grace* seconds, then SIGKILL and wait."""
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self._procs:
            self._procs.remove(proc)
        return proc.returncode

    def close(self) -> None:
        while self._procs:
            self.stop(self._procs[-1], grace=5.0)
        # Shared memory starts multiprocessing's resource tracker, a child
        # that would otherwise outlive the run; stopping it closes its pipe
        # and waits for it.
        tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
        tracker = getattr(tracker_mod, "_resource_tracker", None)
        if getattr(tracker, "_fd", None) is not None:
            tracker._stop()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def wait_for_file(path: Path, proc: subprocess.Popen, timeout: float = 60.0) -> str:
    """Poll until *path* holds a line (a server's port file)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"child exited with {proc.returncode} before ready")
        try:
            text = path.read_text()
        except FileNotFoundError:
            text = ""
        if text.endswith("\n"):
            return text.strip()
        time.sleep(0.005)
    raise TimeoutError(f"{path} not written within {timeout:g}s")


# -- /proc readers -------------------------------------------------------------------


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU time of one process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of one process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children(pid: int | str = "self") -> list[int]:
    """Live child pids of a process (all its threads' children)."""
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            out.extend(int(c) for c in (task / "children").read_text().split())
        except FileNotFoundError:
            continue
    return out


class RssSampler:
    """Tracks the peak ``VmHWM`` of this process's children while running.

    Pool workers exit before the run reports, so their peaks are sampled
    while they live; the largest value seen per pid is kept.
    """

    def __init__(self, period: float = 0.05) -> None:
        self.period = period
        self.peaks: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler")

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            for pid in children():
                try:
                    value = peak_rss_mb(pid)
                except (FileNotFoundError, ProcessLookupError, RuntimeError):
                    continue
                self.peaks[pid] = max(value, self.peaks.get(pid, 0.0))

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# -- leak census -----------------------------------------------------------------------


def _listening_ports() -> set[int]:
    ports: set[int] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except FileNotFoundError:
            continue
        for line in lines:
            parts = line.split()
            if parts[3] == "0A":  # TCP_LISTEN
                ports.add(int(parts[1].rsplit(":", 1)[1], 16))
    return ports


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _own_sockets() -> int:
    count = 0
    for fd in Path("/proc/self/fd").iterdir():
        try:
            if os.readlink(fd).startswith("socket:"):
                count += 1
        except OSError:
            continue
    return count


def census() -> dict:
    """What this process could leak: children, sockets, threads, segments."""
    return {
        "children": children(),
        "listening": _listening_ports(),
        "shm": _shm_segments(),
        "sockets": _own_sockets(),
        "threads": sorted(
            t.name for t in threading.enumerate()
            if t is not threading.main_thread() and not t.daemon and t.is_alive()
        ),
    }


def leaks(before: dict, after: dict, *, pids=(), ports=()) -> list[str]:
    """Everything in *after* that this run created and did not release.

    *pids* and *ports* are the processes and listening ports the run
    started; a pid still alive or a port still listening is a leak even
    when it is no longer our child (re-parented orphans).
    """
    found: list[str] = []
    for pid in after["children"]:
        found.append(f"child process {pid} still running")
    for pid in pids:
        if Path(f"/proc/{pid}").exists() and pid not in after["children"]:
            try:
                state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                continue
            if state != "Z":
                found.append(f"process {pid} orphaned")
    for port in sorted(set(ports) & after["listening"]):
        found.append(f"port {port} still listening")
    for name in sorted(after["shm"] - before["shm"]):
        found.append(f"/dev/shm/{name} not unlinked")
    if after["sockets"] > before["sockets"]:
        found.append(f"{after['sockets'] - before['sockets']} socket(s) left open")
    for name in sorted(set(after["threads"]) - set(before["threads"])):
        found.append(f"non-daemon thread {name!r} still alive")
    return found


def layer_table(snap: dict, per: int) -> dict:
    """Calls, busy and self ms per unit of work, and per-call p50 and the
    highest reportable tail (microseconds), per layer key."""
    rows = {}
    for key, (n, total, self_s, durs) in sorted(snap["stats"].items()):
        top = tail_percentile(len(durs))
        rows[key] = {
            "calls": n,
            "busy_ms": total * 1e3 / per,
            "self_ms": self_s * 1e3 / per,
            "p50_us": float(np.median(durs)) * 1e6 if durs else 0.0,
            f"p{top:g}_us" if top else "tail_us": (
                float(np.percentile(durs, top)) * 1e6 if top else None
            ),
        }
    return {"per": per, "layers": rows, "counters": snap["counters"]}


# -- run context --------------------------------------------------------------------------


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except (FileNotFoundError, NotADirectoryError):
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except FileNotFoundError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except FileNotFoundError:
        pass
    return None


def context(seed: int, workload: str, params: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "modeled_latency": False,
    }


def dump_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=float) + "\n")
