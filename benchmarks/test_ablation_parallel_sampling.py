"""Ablation — sequential vs. parallel multi-sampling (§5.2).

The paper evaluates the *worst case* (samples in subsequent time steps) and
notes the parallel machine can collect them "with no additional cost".
This bench measures both disciplines on a 64-processor substrate and also
quantifies the caveat the paper does not: each parallel wave's barrier is
the max over n·K heavy-tailed draws, so parallel K-sampling carries an
order-statistics premium — small, but not zero.
"""

from repro.experiments._fmt import format_table
from repro.experiments.ablations import run_parallel_sampling_study


def test_ablation_parallel_sampling(benchmark, report, scale):
    trials = 40 if scale == "full" else 15
    table = benchmark.pedantic(
        lambda: run_parallel_sampling_study(
            trials=trials, budget=200, rho=0.3, rng=29
        ),
        rounds=1,
        iterations=1,
    )
    premium = table.ntt_of("K=10 parallel") / table.ntt_of("K=1") - 1.0
    report(
        "ablation_parallel_sampling",
        format_table(
            ["sampling plan", "mean NTT", "std NTT", "mean final cost"],
            table.rows(),
        )
        + f"\n\nbarrier-max premium of K=10 parallel vs K=1: {premium:+.1%}"
        + "\n(the cost the paper's 'no additional cost' claim glosses over)",
    )
    # --- shape claims -------------------------------------------------------------
    # Parallel K=5 strictly dominates sequential K=5 on the online metric.
    assert table.ntt_of("K=5 parallel") < table.ntt_of("K=5 sequential")
    # Multi-sampling improves final configurations in both disciplines.
    assert table.final_cost_of("K=5 parallel") < table.final_cost_of("K=1")
    assert table.final_cost_of("K=10 parallel") < table.final_cost_of("K=1")
    # The parallel premium is bounded (well under the sequential 5x cost).
    assert table.ntt_of("K=10 parallel") < table.ntt_of("K=1") * 1.4
