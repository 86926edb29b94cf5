"""Unit tests for the paired-trials sweep runner."""

import numpy as np
import pytest

from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.experiments.parallel import ProcessExecutor
from repro.experiments.runner import run_sweep
from repro.harmony.session import TuningSession
from repro.variability import ParetoNoise


def make_cell(problem, k, noise=None):
    def build(seed: int) -> TuningSession:
        tuner = ParallelRankOrdering(problem.space)
        return TuningSession(
            tuner, problem.objective, noise=noise, budget=60,
            plan=SamplingPlan(k), rng=seed,
        )

    return build


class TestRunSweep:
    def test_basic_aggregation(self, quad3):
        sweep = run_sweep(
            {"k1": make_cell(quad3, 1), "k3": make_cell(quad3, 3)},
            trials=4,
            rng=0,
        )
        assert sweep.names == ("k1", "k3")
        assert sweep["k1"].trials == 4
        assert sweep["k1"].ntt_mean > 0

    def test_paired_seeds_shared_across_cells(self, quad3):
        noise = ParetoNoise(rho=0.2)
        sweep = run_sweep(
            {"a": make_cell(quad3, 1, noise), "b": make_cell(quad3, 1, noise)},
            trials=3,
            rng=1,
        )
        # Identical factories + paired seeds => identical aggregates.
        assert sweep["a"].ntt_mean == sweep["b"].ntt_mean

    def test_reproducible(self, quad3):
        def run():
            return run_sweep(
                {"c": make_cell(quad3, 1, ParetoNoise(rho=0.3))}, trials=3, rng=7
            )

        assert run()["c"].ntt_mean == run()["c"].ntt_mean

    def test_best_by_ntt(self, quad3):
        sweep = run_sweep(
            {"k1": make_cell(quad3, 1), "k5": make_cell(quad3, 5)},
            trials=2,
            rng=2,
        )
        # Noise-free: extra samples are pure overhead, K=1 wins.
        assert sweep.best_by_ntt().name == "k1"

    def test_collect_hook(self, quad3):
        seen = []
        run_sweep(
            {"c": make_cell(quad3, 1)}, trials=3, rng=3, collect=seen.append
        )
        assert len(seen) == 3

    def test_converged_fraction(self, quad3):
        sweep = run_sweep({"c": make_cell(quad3, 1)}, trials=2, rng=4)
        assert sweep["c"].converged_fraction == 1.0

    def test_to_dict_json_safe(self, quad3):
        import json

        sweep = run_sweep({"c": make_cell(quad3, 1)}, trials=2, rng=5)
        json.dumps(sweep.to_dict())

    def test_to_dict_meta_preserves_json_native_types(self, quad3):
        import json

        import numpy as np
        from repro.experiments.runner import SweepResult

        base = run_sweep({"c": make_cell(quad3, 1)}, trials=1, rng=5)
        sweep = SweepResult(
            cells=base.cells,
            trial_seeds=base.trial_seeds,
            meta={
                "trials": 3,
                "rho": 0.25,
                "paired": True,
                "none": None,
                "ks": [1, 2, 3],
                "np_int": np.int64(7),
                "np_arr": np.array([1.5, 2.5]),
                "nested": {"budget": 100},
                "opaque": object(),
            },
        )
        meta = json.loads(json.dumps(sweep.to_dict()))["meta"]
        assert meta["trials"] == 3
        assert meta["rho"] == 0.25
        assert meta["paired"] is True
        assert meta["none"] is None
        assert meta["ks"] == [1, 2, 3]
        assert meta["np_int"] == 7
        assert meta["np_arr"] == [1.5, 2.5]
        assert meta["nested"] == {"budget": 100}
        assert isinstance(meta["opaque"], str)

    def test_validation(self, quad3):
        with pytest.raises(ValueError):
            run_sweep({}, trials=2)
        with pytest.raises(ValueError):
            run_sweep({"c": make_cell(quad3, 1)}, trials=0)
        with pytest.raises(ValueError):
            run_sweep(
                [("dup", make_cell(quad3, 1)), ("dup", make_cell(quad3, 1))],
                trials=1,
            )
        with pytest.raises(KeyError):
            run_sweep({"c": make_cell(quad3, 1)}, trials=1)["nope"]

    def test_rejects_non_session_factory(self, quad3):
        with pytest.raises(TypeError):
            run_sweep({"bad": lambda seed: "not a session"}, trials=1)


class TestCacheStatsMeta:
    def _db_cell(self, db):
        def build(seed: int) -> TuningSession:
            from repro.core.pro import ParallelRankOrdering

            return TuningSession(
                ParallelRankOrdering(db.space), db, noise=ParetoNoise(rho=0.2),
                budget=20, plan=SamplingPlan(1), rng=seed,
            )

        return build

    def _make_db(self):
        from repro.apps.database import PerformanceDatabase
        from repro.space import IntParameter, ParameterSpace

        space = ParameterSpace([IntParameter(f"x{i}", 0, 6) for i in range(2)])
        return PerformanceDatabase.from_function(
            lambda p: 1.0 + float(np.sum(np.asarray(p) ** 2)), space
        )

    def test_reports_counter_deltas_in_meta(self):
        db = self._make_db()
        cells = {"db": self._db_cell(db)}
        first = run_sweep(cells, trials=2, rng=11, cache_stats=db)
        stats = first.meta["db_cache"]
        assert set(stats) == {"n_exact", "n_interpolated", "n_memo_hits", "memo_len"}
        assert stats["n_exact"] + stats["n_interpolated"] > 0
        # Monotone n_* counters are reported as per-sweep deltas: a second
        # identical sweep issues the same number of queries, so its deltas
        # match even though the database's cumulative totals doubled.
        second = run_sweep(cells, trials=2, rng=11, cache_stats=db)
        a, b = first.meta["db_cache"], second.meta["db_cache"]
        assert a["n_exact"] + a["n_interpolated"] == b["n_exact"] + b["n_interpolated"]
        assert b["n_memo_hits"] >= a["n_memo_hits"]  # warm memo from sweep one

    def test_rejects_object_without_cache_stats(self, quad3):
        with pytest.raises(TypeError):
            run_sweep({"c": make_cell(quad3, 1)}, trials=1, cache_stats=object())

    @pytest.mark.parametrize(
        "executor,jobs", [("process", 2), ("process", None), (ProcessExecutor(1), None)]
    )
    def test_rejects_non_serial_executor(self, executor, jobs):
        # Process workers count queries on their own copies of the
        # database, so the parent's counters would read zero.
        db = self._make_db()
        with pytest.raises(ValueError, match="serial executor"):
            run_sweep(
                {"db": self._db_cell(db)}, trials=2, rng=11, cache_stats=db,
                executor=executor, jobs=jobs,
            )
