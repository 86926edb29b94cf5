"""What a finished served session keeps in memory.

A long-running server that never closes its sessions (a load generator,
or applications that simply stop reporting) holds every finished
session's step log and reply caches.  The bound below pins the compact
layout: one flat ``(step, client)`` log, plain-dict reply caches, shared
ACK replies, and fetch replies cached as ``(token, point)`` tuples.
"""

import gc
import tracemalloc

import numpy as np

from repro.core.sampling import MinEstimator, SamplingPlan
from repro.experiments.common import tuner_factory
from repro.fleet.launch import bench_space
from repro.harmony.client import TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.transport import InProcessTransport

STEPS = 64
#: a finished STEPS-step session kept 52.5 KiB with a dict per logged step,
#: an OrderedDict reply cache and a copied reply dict per cached request
MAX_KIB = 30.0


def run_session(server, name):
    """One JSON application run: every fetch and report is cseq-stamped."""
    client = TuningClient(InProcessTransport(server))
    client.open_session(name, k=1, estimator="min")
    client.register(bench_space())
    for step in range(STEPS):
        point = client.fetch()
        client.report(1.0 + 0.05 * float(np.sum((point - 3.0) ** 2)), step=step)


def test_finished_json_session_stays_small():
    server = TuningServer(
        tuner_factory("pro", rng=0), plan=SamplingPlan(1, MinEstimator())
    )
    run_session(server, "warm-up")  # first-use allocations stay out of the count
    kept = []
    tracemalloc.start()
    try:
        # The least of three runs: an allocation another thread makes in
        # the window can only add to a reading.
        for run in range(3):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            run_session(server, f"measured-{run}")
            gc.collect()
            kept.append((tracemalloc.get_traced_memory()[0] - before) / 1024)
    finally:
        tracemalloc.stop()
    session = server.session("measured-0")
    assert session.n_reports == STEPS
    assert session.step_times().size == STEPS
    assert min(kept) <= MAX_KIB, (
        f"a finished {STEPS}-step session keeps {min(kept):.1f} KiB"
    )
