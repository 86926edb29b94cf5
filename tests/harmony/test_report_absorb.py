"""The vectorized report-absorption kernel must replay exactly like the loop.

``ServerSession._absorb_reports`` (one stable argsort + grouped slice
extends) replaced the per-report Python loop on the batched ingest path;
the loop survives as ``tests/oracles.absorb_reports_scalar``, the semantic
reference.
The contract is *ordered scalar replay*: absorbing a report group must be
indistinguishable — same stale counts, same per-candidate sample lists,
same assignment ledger, same batch-completion point (and therefore the
same tuner tell) — from replaying the group one report at a time.

Covered regimes: mid-group batch completion with a stale tail after it,
negative (retried) tokens, out-of-range tokens, shuffled arrival orders,
multi-chunk partial groups, deep-K plans, and the small-batch PRO tuner
where the scalar loop's short-circuit made vectorizing hardest to get
right.  ``benchmarks/test_report_replay.py`` prices the same pairing.
"""

import numpy as np
import pytest

from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import MinEstimator, SamplingPlan
from repro.harmony.server import TuningServer
from repro.search.random_search import RandomSearch
from repro.space import IntParameter, ParameterSpace
from tests.oracles import absorb_reports_scalar


def make_space():
    return ParameterSpace([IntParameter("a", -10, 10), IntParameter("b", -10, 10)])


def _pair(tuner, k):
    """Two identically-seeded sessions: one replays scalar, one vectorized."""
    sessions = []
    for _ in range(2):
        server = TuningServer(
            tuner, space=make_space(), plan=SamplingPlan(k, MinEstimator())
        )
        sessions.append(server.session("default"))
    return sessions


def _assert_states_equal(scalar, vector):
    assert scalar._samples == vector._samples
    assert scalar._assigned == vector._assigned
    assert len(scalar._batch) == len(vector._batch)
    assert scalar.n_reports == vector.n_reports
    assert scalar.tuner.best_value == vector.tuner.best_value


def _absorb_both(scalar, vector, tokens, times):
    tokens = np.asarray(tokens, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    stale_s = absorb_reports_scalar(scalar, tokens, times)
    stale_v = vector._absorb_reports(tokens, times)
    assert stale_s == stale_v, (
        f"stale diverged: scalar {stale_s} vector {stale_v} for {tokens}"
    )
    _assert_states_equal(scalar, vector)


@pytest.mark.parametrize("k,width,chunks", [
    (1, 16, 1),     # the PRO default: tiny batch, single chunk
    (1, 16, 4),     # partial groups against a tiny batch
    (4, 64, 1),     # moderate sampling depth, whole-frame absorption
    (4, 64, 3),     # completion lands mid-round, not at a chunk edge
    (32, 256, 1),   # deep-K wide frames: the bench's regime
    (32, 256, 5),
])
def test_random_streams_replay_identically(k, width, chunks):
    scalar, vector = _pair(
        lambda s: RandomSearch(s, batch_size=8, rng=11), k
    )
    rng = np.random.default_rng(99)
    for round_no in range(6):
        _, tok_s = scalar.fetch_many_arrays(width)
        _, tok_v = vector.fetch_many_arrays(width)
        assert np.array_equal(tok_s, tok_v)
        times = 1.0 + rng.random(tok_s.size)
        tokens = tok_s.copy()
        # sprinkle retried (-1) and out-of-range tokens through the frame
        tokens[:: 13] = -1
        if tokens.size > 7:
            tokens[7] = len(scalar._batch) + 50
        # shuffle: arrival order on the wire is not assignment order
        perm = rng.permutation(tokens.size)
        tokens, times = tokens[perm], times[perm]
        for part_t, part_x in zip(
            np.array_split(tokens, chunks), np.array_split(times, chunks)
        ):
            _absorb_both(scalar, vector, part_t, part_x)


def test_pro_small_batch_replay():
    """The 4-candidate PRO regime, where the scalar loop short-circuits."""
    scalar, vector = _pair(lambda s: ParallelRankOrdering(s), 2)
    rng = np.random.default_rng(5)
    for _ in range(8):
        _, tok_s = scalar.fetch_many_arrays(12)
        _, tok_v = vector.fetch_many_arrays(12)
        assert np.array_equal(tok_s, tok_v)
        times = 1.0 + rng.random(tok_s.size)
        _absorb_both(scalar, vector, tok_s, times)
    assert np.array_equal(scalar.tuner.best_point, vector.tuner.best_point)


def test_completion_mid_group_stales_the_tail():
    """Reports past the completion point are stale, not absorbed into the
    next batch — the ordered-replay property the kernel must preserve."""
    scalar, vector = _pair(lambda s: RandomSearch(s, batch_size=4, rng=3), 2)
    _, tokens = scalar.fetch_many_arrays(8)   # exactly fills the batch
    _, tok_v = vector.fetch_many_arrays(8)
    assert np.array_equal(tokens, tok_v)
    m = len(scalar._batch)
    # completion exactly at index 7; everything after is a fresh batch's
    # problem — append tokens that would be in-range for the *next* batch
    tail = np.concatenate([tokens, np.array([0, 1, -1, m + 3])])
    times = 1.0 + np.arange(tail.size, dtype=np.float64)
    stale_s = absorb_reports_scalar(scalar, tail, times)
    stale_v = vector._absorb_reports(tail, times)
    assert stale_s == stale_v == 3  # the two in-range tails + out-of-range
    _assert_states_equal(scalar, vector)


def test_all_negative_and_out_of_range():
    scalar, vector = _pair(lambda s: RandomSearch(s, batch_size=4, rng=3), 2)
    scalar.fetch_many_arrays(4)
    vector.fetch_many_arrays(4)
    m = len(scalar._batch)
    tokens = np.array([-1, -1, m, m + 7])
    times = np.ones(4)
    _absorb_both(scalar, vector, tokens, times)
    assert all(len(s) == 0 for s in scalar._samples)


def test_empty_group_is_a_no_op():
    scalar, vector = _pair(lambda s: RandomSearch(s, batch_size=4, rng=3), 2)
    scalar.fetch_many_arrays(4)
    vector.fetch_many_arrays(4)
    _absorb_both(
        scalar, vector,
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64),
    )
