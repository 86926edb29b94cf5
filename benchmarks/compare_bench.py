"""Guard against silent performance regressions in the bench_smoke numbers.

Compares a freshly generated ``BENCH_runner.json`` against a committed
baseline (typically ``git show HEAD:BENCH_runner.json``) and fails when a
guarded speedup regressed by more than the tolerance.  Only *ratios* are
guarded — absolute seconds shift with runner hardware, but serial and
parallel arms run on the same machine in the same job, so their ratio is
comparable across runs.

Usage::

    python benchmarks/compare_bench.py --baseline baseline.json \
        --current BENCH_runner.json [--tolerance 0.2]

Exit status: 0 when every guarded metric holds (or is absent from the
baseline — first runs pass vacuously), 1 on a regression, 2 on bad input.

A bench-smoke test that fails before writing leaves its keys with the
committed numbers, so their lines would compare the baseline with itself.
The report marks each such line as not rewritten by the current run (see
:func:`rewritten`), and prints the CPU count and Python version when they
differ between the two files.  Neither changes a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (section, key) ratios guarded against regression
GUARDED = (
    ("sweep", "speedup"),
    ("cluster_step", "speedup"),
    ("server", "speedup"),
    ("server", "binary_speedup"),
    ("server", "report_replay_speedup"),
    ("wire", "speedup_16"),
    ("fleet", "speedup_4"),
    ("fleet", "skew_speedup"),
)

#: (section, key, ceiling) fractions guarded against an absolute ceiling —
#: lower-is-better costs where "no worse than baseline" is too lax a gate
CEILINGS = (
    ("obs", "overhead_frac", 0.02),
    ("server", "wal_overhead_frac", 0.10),
    # capacity anchor (256 sessions, async binary, admission on): p99 must
    # stay bounded — an unbounded dispatch queue shows up here as seconds
    ("capacity", "p99_anchor_ms", 500.0),
)

#: (section, key, floor) ratios guarded against an absolute floor — arms
#: that are *expected* to lose (a CPU-bound process sweep on a small box)
#: but must not collapse: the floor catches pathological overhead growth
#: that relative-to-baseline guards would ratchet downward forever
FLOORS = (
    ("sweep_cpu", "speedup", 0.6),
    # near-linear fleet scaling: 4 shards must beat 1 by at least 2.5x
    # aggregate throughput, or the coordinator/routing layer has decayed
    ("fleet", "speedup_4", 2.5),
    # the largest ramp point that completed its full workload within the
    # error budget: one async binary server must sustain >= 256 sessions
    ("capacity", "sessions_floor", 256),
    # live rebalancing under zipf skew must cut the makespan by >= 1.5x —
    # below this the planner/migration path is no longer paying its way
    ("fleet", "skew_speedup", 1.5),
)


#: report-only context stamped on the file by each bench-smoke run
CONTEXT = ("cpu_count", "python")

#: the mark on a report line whose key the current run did not write
NOT_REWRITTEN = "  [not rewritten by this run]"


def rewritten(current: dict, section: str, key: str) -> bool:
    """Whether the run that stamped *current* wrote ``section.key``.

    ``_update_bench_json`` stamps the file with its run's id and each key
    it writes with the same id.  An unstamped file tells nothing, so every
    line counts as rewritten.
    """
    run_id = current.get("run_id")
    if run_id is None:
        return True
    return current.get(section, {}).get("run_ids", {}).get(key) == run_id


def compare(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Human-readable failure lines (empty = pass)."""
    failures = []
    for section, key in GUARDED:
        base = baseline.get(section, {}).get(key)
        cur = current.get(section, {}).get(key)
        if base is None:
            continue  # metric new in this run; nothing to regress against
        if cur is None:
            failures.append(
                f"{section}.{key}: present in baseline ({base}) but missing "
                "from the current run"
            )
            continue
        floor = base * (1.0 - tolerance)
        if cur < floor:
            failures.append(
                f"{section}.{key}: {cur} < {floor:.3f} "
                f"(baseline {base}, tolerance {tolerance:.0%})"
            )
    for section, key, ceiling in CEILINGS:
        base = baseline.get(section, {}).get(key)
        cur = current.get(section, {}).get(key)
        if cur is None:
            if base is not None:
                failures.append(
                    f"{section}.{key}: present in baseline ({base}) but "
                    "missing from the current run"
                )
            continue
        if cur > ceiling:
            failures.append(
                f"{section}.{key}: {cur} exceeds the hard ceiling {ceiling}"
            )
    for section, key, floor in FLOORS:
        base = baseline.get(section, {}).get(key)
        cur = current.get(section, {}).get(key)
        if cur is None:
            if base is not None:
                failures.append(
                    f"{section}.{key}: present in baseline ({base}) but "
                    "missing from the current run"
                )
            continue
        if cur < floor:
            failures.append(
                f"{section}.{key}: {cur} is below the hard floor {floor}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_runner.json to compare against")
    parser.add_argument("--current", type=Path, required=True,
                        help="freshly generated BENCH_runner.json")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional regression (default 0.2)")
    args = parser.parse_args(argv)
    if not (0.0 <= args.tolerance < 1.0):
        print(f"error: tolerance must lie in [0, 1), got {args.tolerance}",
              file=sys.stderr)
        return 2
    try:
        baseline = json.loads(args.baseline.read_text())
        current = json.loads(args.current.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = compare(baseline, current, args.tolerance)
    if any(baseline.get(name) != current.get(name) for name in CONTEXT):
        print("context differs: " + ", ".join(
            f"{name} baseline={baseline.get(name)} current={current.get(name)}"
            for name in CONTEXT
        ))

    def report(section: str, key: str, text: str) -> None:
        stale = "" if rewritten(current, section, key) else NOT_REWRITTEN
        print(f"{section}.{key}: {text}{stale}")

    for section, key in GUARDED:
        base = baseline.get(section, {}).get(key)
        cur = current.get(section, {}).get(key)
        report(section, key, f"baseline={base} current={cur}")
    for section, key, ceiling in CEILINGS:
        cur = current.get(section, {}).get(key)
        report(section, key, f"current={cur} ceiling={ceiling}")
    for section, key, floor in FLOORS:
        cur = current.get(section, {}).get(key)
        report(section, key, f"current={cur} floor={floor}")
    if failures:
        print("\nperformance regression detected:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("no guarded regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
