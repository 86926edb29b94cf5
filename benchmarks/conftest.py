"""Shared infrastructure for the figure-regeneration benchmarks.

Each benchmark (a) regenerates one paper figure's data at bench scale,
(b) asserts the figure's *shape claims* (who wins, where optima fall —
never absolute numbers), and (c) writes the data rows to
``benchmarks/out/<name>.txt`` so the regenerated figure series survive the
run.  Set ``REPRO_BENCH_SCALE=full`` for paper-scale trial counts (slower).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"

# Some bench-smoke arms time production code against the reference
# implementations in ``tests/oracles.py``; the repo root makes ``tests``
# importable however pytest was launched.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.append(_ROOT)


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


@pytest.fixture(scope="session")
def scale() -> str:
    """'quick' (default) or 'full' (paper-scale trial counts)."""
    return bench_scale()


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def report(out_dir, request):
    """Write (and echo) a named report file for the current benchmark."""

    def write(name: str, text: str) -> None:
        path = out_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[{name}] -> {path}\n{text}")

    return write


@pytest.fixture(scope="session")
def shared_trace(scale):
    """The Figs. 3–7 cluster trace, simulated once per bench run."""
    from repro.experiments.fig03_trace import simulate_gs2_trace

    n_nodes, n_iters = (64, 800) if scale == "full" else (32, 400)
    return simulate_gs2_trace(n_nodes=n_nodes, n_iterations=n_iters, seed=11)
