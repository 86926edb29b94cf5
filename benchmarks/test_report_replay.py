"""Report-absorption microbench: scalar replay vs the vectorized kernel.

``report_many_arrays`` used to absorb each batched measurement with a
Python-level loop — clamp the assignment ledger, append the sample, check
batch completion — per report.  At binary-wire widths (1024 messages per
frame) that loop is the hot tail of the ingest path.  The vectorized
kernel (:meth:`repro.harmony.server.ServerSession._absorb_reports`) does
the same ordered replay with array ops; the scalar loop survives as the
test oracle ``tests/oracles.absorb_reports_scalar``, the semantic
reference.

This bench drives *both* against two identically-seeded sessions with the
same report stream — including mid-group batch completions and the stale
tail after them — asserts every return value and the end states are
bit-identical, and records the speedup as ``server.report_replay_speedup``
in ``BENCH_runner.json``.

The workload is the wire's design point: one ``FETCH_WIDTH``-message
frame absorbed per call (``binproto.MAX_BATCH_MSGS`` is 1024), against a
``RandomSearch`` tuner proposing ``BATCH_CANDIDATES`` candidates sampled
``K`` times each — the deep-sampling plans the paper's K-sweep studies.
Each frame covers a whole batch completion plus a stale over-assignment
tail, so both the grouping pass and the completion search are priced.
(Partial-frame groups and adversarial token orders are correctness
territory — ``tests/harmony/test_report_absorb.py`` — not a bench arm.)
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.sampling import MinEstimator, SamplingPlan
from repro.harmony.server import TuningServer
from repro.search.random_search import RandomSearch
from repro.space import IntParameter, ParameterSpace
from test_server_throughput import _update_bench_json
from tests.oracles import absorb_reports_scalar

#: samples per candidate — a deep-sampling plan (the paper's large-K arm)
K = 32

#: candidates proposed per tuner batch
BATCH_CANDIDATES = 16

#: tokens fetched per round; more than the batch needs, so every round
#: ends with a completed batch *and* a stale tail to replay past
FETCH_WIDTH = 1024


def _make_session():
    space = ParameterSpace(
        [IntParameter("a", -10, 10), IntParameter("b", -10, 10)]
    )
    server = TuningServer(
        lambda s: RandomSearch(s, batch_size=BATCH_CANDIDATES, rng=3),
        space=space,
        plan=SamplingPlan(K, MinEstimator()),
    )
    return server.session("default")


def _round_inputs(session, rng) -> tuple[np.ndarray, np.ndarray]:
    """Fetch one round's assignments and fabricate its measurements."""
    _, tokens = session.fetch_many_arrays(FETCH_WIDTH)
    times = 1.0 + rng.random(tokens.size)
    # a few retried/garbage tokens, exactly where the wire could put them
    tokens = tokens.copy()
    tokens[:: 97] = -1
    return tokens, times


@pytest.mark.bench_smoke
def test_smoke_report_replay_speedup(scale):
    """Vectorized absorption must beat the scalar loop, bit-identically."""
    rounds = 200 if scale == "full" else 60
    chunks = 1  # one wire frame per absorb call, as the binary path does

    scalar = _make_session()
    vector = _make_session()
    rng_s = np.random.default_rng(7)
    rng_v = np.random.default_rng(7)
    t_scalar = 0.0
    t_vector = 0.0
    for _ in range(rounds):
        tok_s, times_s = _round_inputs(scalar, rng_s)
        tok_v, times_v = _round_inputs(vector, rng_v)
        assert np.array_equal(tok_s, tok_v), "sessions diverged on fetch"
        for part_t, part_x in zip(
            np.array_split(tok_s, chunks), np.array_split(times_s, chunks)
        ):
            t0 = time.perf_counter()
            stale_s = absorb_reports_scalar(scalar, part_t, part_x)
            t_scalar += time.perf_counter() - t0
            t0 = time.perf_counter()
            stale_v = vector._absorb_reports(part_t, part_x)
            t_vector += time.perf_counter() - t0
            assert stale_s == stale_v, "stale counts diverged"
        assert scalar.n_reports == vector.n_reports

    assert scalar._samples == vector._samples
    assert scalar._assigned == vector._assigned
    assert len(scalar._batch) == len(vector._batch)
    assert scalar.tuner.best_value == vector.tuner.best_value
    assert np.array_equal(scalar.tuner.best_point, vector.tuner.best_point), (
        "scalar and vectorized absorption ended in different tuner states"
    )
    speedup = t_scalar / t_vector
    assert speedup > 1.0, (
        "the vectorized report-absorption kernel must beat the scalar "
        f"replay, got {speedup:.2f}x "
        f"({t_scalar * 1e3:.1f} ms -> {t_vector * 1e3:.1f} ms)"
    )
    _update_bench_json(
        "server",
        {
            "report_replay": {
                "k": K,
                "fetch_width": FETCH_WIDTH,
                "rounds": rounds,
                "scalar_ms": round(t_scalar * 1e3, 2),
                "vector_ms": round(t_vector * 1e3, 2),
            },
            "report_replay_speedup": round(speedup, 3),
        },
    )
