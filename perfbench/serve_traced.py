"""``repro serve`` with per-layer timers installed from outside.

Usage: ``python perfbench/serve_traced.py STATS.json serve [serve flags]``

Installs :func:`layers.install_server` in this process and runs the
program's own CLI entry point with the remaining arguments.  Each
SIGUSR1 writes a snapshot of the recorded per-layer stats to
``STATS-<n>.json`` (n = 0, 1, ...), so the load generator can bracket
exactly its measured window and take the difference; the final stats
go to ``STATS.json`` once the server has drained (SIGINT ends
``repro serve`` normally).
"""

from __future__ import annotations

import itertools
import signal
import sys
import threading
import time
from pathlib import Path

import layers


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    recorder = layers.Recorder()
    t0 = time.perf_counter()
    layers.install_server(recorder)
    from repro.cli import main as repro_main

    recorder.count("setup.import_s", time.perf_counter() - t0)
    numbers = itertools.count()

    def on_snapshot(_signum, _frame):
        # The handler runs on the main thread, which may hold the
        # recorder's lock at that instant; a thread waits for it instead.
        path = layers.snapshot_path(out, next(numbers))
        threading.Thread(target=recorder.dump, args=(path,), daemon=True).start()

    signal.signal(signal.SIGUSR1, on_snapshot)
    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
