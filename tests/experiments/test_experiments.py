"""Smoke + shape tests for the per-figure experiment modules (small scale).

The benchmarks run these at reporting scale; here we verify the experiment
code paths and the invariants that must hold at any scale.
"""

import numpy as np
import pytest

from repro.experiments.ablations import (
    run_adaptive_k_study,
    run_estimator_comparison,
    run_parallel_sampling_study,
    run_variant_comparison,
    run_warmstart_study,
)
from repro.experiments.fig01_metrics import run_metric_comparison
from repro.experiments.fig02_geometry import run_geometry_demo
from repro.experiments.fig03_trace import simulate_gs2_trace
from repro.experiments.fig08_surface import run_surface_slice
from repro.experiments.fig09_simplex import run_initial_simplex_study
from repro.experiments.fig10_sampling import run_sampling_study
from repro.experiments.common import gs2_problem, tuner_factory, TUNER_NAMES


class TestCommon:
    def test_gs2_problem_builds(self):
        surrogate, db = gs2_problem(fraction=0.2, rng=0)
        assert len(db) > 0

    def test_tuner_factory_all_names(self):
        surrogate, _ = gs2_problem(rng=0)
        space = surrogate.space()
        for name in TUNER_NAMES:
            tuner = tuner_factory(name, rng=0)(space)
            batch = tuner.ask()
            assert batch, name

    def test_tuner_factory_unknown(self):
        with pytest.raises(ValueError):
            tuner_factory("bogus")(gs2_problem(rng=0)[0].space())


class TestFig01:
    def test_structure(self):
        mc = run_metric_comparison(budget=120, tail_window=30, rng=3)
        assert len(mc.names) == 3
        assert all(s.size == 120 for s in mc.step_time_series)
        assert all(c[-1] == pytest.approx(t) for c, t in
                   zip(mc.cumulative_series, mc.total_time))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            run_metric_comparison(budget=50, tail_window=40)


class TestFig02:
    def test_identities(self):
        demo = run_geometry_demo()
        assert demo.identities_hold()

    def test_rows_cover_all_transforms(self):
        rows = run_geometry_demo().rows()
        labels = {r[0] for r in rows}
        assert labels == {"original", "reflected", "expanded", "shrunk"}

    def test_custom_simplex_validated(self):
        with pytest.raises(ValueError):
            run_geometry_demo(np.ones((4, 2)))


class TestFig03:
    def test_small_trace(self):
        trace = simulate_gs2_trace(n_nodes=4, n_iterations=100, seed=1)
        assert trace.times.shape == (4, 100)
        assert trace.rho > 0
        assert trace.meta["experiment"] == "fig03"

    def test_reproducible(self):
        a = simulate_gs2_trace(n_nodes=2, n_iterations=50, seed=5)
        b = simulate_gs2_trace(n_nodes=2, n_iterations=50, seed=5)
        assert np.array_equal(a.times, b.times)


class TestFig08:
    def test_slice_shape_claims(self):
        s = run_surface_slice()
        assert s.costs.shape == (s.x_values.size, s.y_values.size)
        assert s.n_local_minima >= 2          # "multiple local minimums"
        assert s.median_relative_jump > 0.0   # "not smooth"
        assert s.dynamic_range() > 1.5

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            run_surface_slice(x_name="bogus")
        with pytest.raises(ValueError):
            run_surface_slice(fixed={"nodes": 0})  # below admissible range

    def test_fixed_must_cover_remaining(self):
        with pytest.raises(ValueError):
            run_surface_slice(fixed={"ntheta": 16})


class TestFig09:
    def test_tiny_study_structure(self):
        st = run_initial_simplex_study(
            r_values=(0.1, 0.3), trials=2, budget=40, rng=1
        )
        assert st.mean_ntt.shape == (2, 2)
        assert st.best_r("axial") in (0.1, 0.3)
        assert isinstance(st.axial_beats_minimal(), bool)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_initial_simplex_study(trials=0)


class TestFig10:
    def test_tiny_study_structure(self):
        st = run_sampling_study(
            rho_values=(0.0, 0.2), k_values=(1, 2), trials=3, budget=60, rng=1
        )
        assert st.mean_ntt.shape == (2, 2)
        assert st.optimal_k(0.2) in (1, 2)
        assert st.rho0_slope_positive() in (True, False)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            run_sampling_study(k_values=(0,), trials=1)


class TestAblations:
    def test_variant_comparison_tiny(self):
        table = run_variant_comparison(trials=2, budget=50, rng=1)
        assert "pro" in table.row_names
        assert table.mean_ntt.shape == (len(table.row_names),)

    def test_estimator_comparison_tiny(self):
        tables = run_estimator_comparison(trials=2, budget=50, k=2, rng=1)
        assert set(tables) == {
            "pareto", "truncated-pareto", "exponential", "gaussian"
        }
        assert set(tables["pareto"].row_names) == {"min", "mean", "median"}

    def test_adaptive_k_tiny(self):
        tables = run_adaptive_k_study(trials=2, budget=50, rho_values=(0.0, 0.2), rng=1)
        assert set(tables) == {0.0, 0.2}
        assert "adaptive" in tables[0.0].row_names

    def test_parallel_sampling_tiny(self):
        table = run_parallel_sampling_study(trials=2, budget=60, rng=1)
        assert table.row_names == (
            "K=1", "K=5 sequential", "K=5 parallel", "K=10 parallel"
        )

    def test_warmstart_tiny(self):
        table = run_warmstart_study(trials=2, budget=60, rng=1)
        assert table.row_names[0] == "cold start"
        assert len(table.row_names) == 4


def _ablation_tables(runner, **kwargs):
    """Every AblationTable a runner returns, in a fixed order."""
    out = runner(trials=2, rng=3, **kwargs)
    return list(out.values()) if isinstance(out, dict) else [out]


class TestAblationsOnProcessPool:
    """Every ablation cell pickles, and the pool changes no number."""

    @pytest.mark.parametrize(
        "runner",
        [
            run_variant_comparison,
            run_estimator_comparison,
            run_adaptive_k_study,
            run_parallel_sampling_study,
            run_warmstart_study,
        ],
        ids=lambda runner: runner.__name__,
    )
    def test_process_pool_equals_serial(self, runner):
        serial = _ablation_tables(runner, budget=40)
        pooled = _ablation_tables(runner, budget=40, executor="process", jobs=2)
        assert len(pooled) == len(serial)
        for want, got in zip(serial, pooled):
            assert got.row_names == want.row_names
            for name in ("mean_ntt", "std_ntt", "mean_final_cost"):
                assert (getattr(got, name) == getattr(want, name)).all(), name
