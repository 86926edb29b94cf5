"""Set-up probe: one fresh process importing the program and building
what a sweep needs, so set-up time is measured cold every time.

Usage: ``python perfbench/probe.py fig10_sweep|cluster_sweep OUT.json``
"""

from __future__ import annotations

import json
import sys
import time


def main(name: str, out: str) -> int:
    t0 = time.perf_counter()
    if name == "fig10_sweep":
        from repro.experiments.common import gs2_problem
        from repro.experiments.fig10_sampling import run_sampling_study  # noqa: F401

        t1 = time.perf_counter()
        gs2_problem(rng=0)
    else:
        from repro.experiments.runner import run_sweep  # noqa: F401
        from sweeps import CLUSTER, build_cluster

        t1 = time.perf_counter()
        build_cluster(CLUSTER["nodes"], 0)
    t2 = time.perf_counter()
    with open(out, "w") as fh:
        json.dump({"import_s": t1 - t0, "build_s": t2 - t1}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
