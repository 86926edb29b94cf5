"""Ablation — warm-starting from prior-run data (the SC'04 lineage).

Prior-run knowledge should shorten the transient: a PRO whose initial
simplex is centred on the best previously measured configuration must beat
the cold-started PRO on Total_Time, and stale/partial histories must not be
catastrophic.
"""

from repro.experiments._fmt import format_table
from repro.experiments.ablations import run_warmstart_study


def test_ablation_warmstart(benchmark, report, scale):
    trials = 40 if scale == "full" else 15
    table = benchmark.pedantic(
        lambda: run_warmstart_study(trials=trials, budget=120, rho=0.1, rng=31),
        rounds=1,
        iterations=1,
    )
    report(
        "ablation_warmstart",
        format_table(
            ["initialization", "mean NTT", "std NTT", "mean final cost"],
            table.rows(),
        ),
    )
    # --- shape claims -------------------------------------------------------------
    cold = table.ntt_of("cold start")
    assert table.ntt_of("warm (rich prior)") < cold
    # Even a handful of prior measurements helps (or at worst is neutral).
    assert table.ntt_of("warm (sparse prior)") < cold * 1.05
    # A stale history must degrade gracefully, not catastrophically.
    assert table.ntt_of("warm (stale prior)") < cold * 1.5
