"""Run reports: one JSON document and one Markdown table per run."""

from __future__ import annotations

from pathlib import Path

import harness


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def markdown(workload: str, seed: int, trace: int, result: dict) -> str:
    ctx = result["context"]
    lines = [
        f"# perfbench: {workload} (seed {seed}, trace {trace})",
        "",
        f"- correct: {result['correct']} ({len(result['mismatches'])} mismatches)",
        f"- attempted {result['attempted']}, failed {result['failed']}",
        f"- nproc {ctx['nproc']}, cpu_count {ctx['cpu_count']}, Python "
        f"{ctx['python']}, NumPy {ctx['numpy']}, commit {ctx['git_commit']}, "
        f"modeled_latency {ctx['modeled_latency']}",
        f"- unit of work: {result['params'].get('unit')}",
        "",
        "## End to end",
        "",
        "| metric | value |",
        "|---|---|",
    ]
    lines += [f"| {k} | {_fmt(v)} |" for k, v in result["end_to_end"].items()]
    lines += [f"| {k} | {_fmt(v)} |" for k, v in result["extra"].items()
              if isinstance(v, (int, float, str))]
    if result["per_layer"]:
        lines += ["", "## Per layer", "", "| metric | value |", "|---|---|"]
        lines += [f"| {k} | {_fmt(v)} |" for k, v in result["per_layer"].items()]
    for side, table in (result.get("layer_detail") or {}).items():
        lines += [
            "",
            f"## Layer detail: {side} (per unit of work: {table['per']} units)",
            "",
            "| layer | calls | busy ms/unit | self ms/unit | p50 us | tail us |",
            "|---|---|---|---|---|---|",
        ]
        for key, row in table["layers"].items():
            tail = next((v for k, v in row.items() if k.startswith(("p9", "tail"))), None)
            lines.append(
                f"| {key} | {row['calls']} | {row['busy_ms']:.4g} | "
                f"{row['self_ms']:.4g} | {row['p50_us']:.4g} | {_fmt(tail)} |"
            )
    return "\n".join(lines) + "\n"


def write(workload: str, seed: int, trace: int, result: dict) -> tuple[Path, Path]:
    stem = harness.OUT / f"{workload}-seed{seed}-trace{trace}"
    json_path = stem.with_suffix(".json")
    md_path = stem.with_suffix(".md")
    harness.dump_json(json_path, result)
    md_path.write_text(markdown(workload, seed, trace, result))
    return json_path, md_path
