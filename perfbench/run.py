"""End-to-end benchmark of served PRO tuning and the paper's sweeps.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``served_gs2_wal``, ``served_json_small`` (a ``repro serve``
subprocess under closed-loop load from this process), ``fig10_sweep``
and ``cluster_sweep`` (the paper's experiments in this process and its
pool).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also
runs a traced phase and prints the per-layer metrics instead.  Every run
checks its results against an oracle, writes a JSON and a Markdown
report under ``perfbench/out/`` and prints one JSON object as the last
line of standard output.  A run fails (non-zero exit, no result line)
when the program is missing, when anything it started survives it, or
when it is interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import report  # noqa: E402

WORKLOADS = ("served_gs2_wal", "served_json_small", "fig10_sweep", "cluster_sweep")


def _load_benchmark() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _metrics(values: dict, names: list[dict], *, strict: bool) -> dict:
    """Every named metric with its unit; a layer a workload does not
    exercise reads 0, an end-to-end metric must be measured."""
    return {
        m["name"]: {
            "value": float(values[m["name"]] if strict else values.get(m["name"], 0.0)),
            "unit": m["unit"],
        }
        for m in names
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({harness.SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    harness.install_signal_handlers()

    import served
    import sweeps

    module = served if args.workload in served.WORKLOADS else sweeps
    before = harness.census()
    owner = harness.Owner()
    try:
        result = module.run(
            args.workload, args.seed, args.seconds, bool(args.trace), owner
        )
    finally:
        owner.close()
    leaked = harness.leaks(before, harness.census(), pids=owner.pids, ports=owner.ports)
    if leaked:
        for line in leaked:
            print(f"error: leaked {line}", file=sys.stderr)
        return 3

    bench = _load_benchmark()
    correct = not result["mismatches"]
    result["context"] = harness.context(args.seed, args.workload, result["params"])
    result["hygiene"] = {"children_started": len(owner.pids), "leaks": []}
    result["correct"] = correct
    paths = report.write(args.workload, args.seed, args.trace, result)
    if result["mismatches"]:
        for line in result["mismatches"][:20]:
            print(f"mismatch: {line}", file=sys.stderr)
    values = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = _metrics(
        values, bench["per_layer" if args.trace else "end_to_end"], strict=not args.trace
    )
    print(f"report: {paths[0]} {paths[1]}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except (KeyboardInterrupt, harness.Interrupted) as exc:
        print(f"error: interrupted ({exc or 'SIGINT'})", file=sys.stderr)
        code = 130
    raise SystemExit(code)
