"""PRO ask/tell trajectories pinned byte for byte.

Seeded PRO runs on three spaces — the GS2 lattice, the 2-D integer
``bench`` space the serving benchmarks use, and a mixed
Int/Ordinal/Float space — with every construction switch that changes
the step sequence (``auto_size``, ``greedy_acceptance``,
``eager_expansion``, the minimal simplex).  Each run records every asked
batch and told value as ``float.hex`` strings, then the ``step_log`` and
the final ``to_dict()``, so any change to projection, admissibility,
ranking or vertex bookkeeping that moves a single bit shows up as a
diff.  Regenerate with ``pytest --regen-golden`` only for an intended
change of the search itself.
"""

import json

import numpy as np

from repro.apps.gs2 import GS2Surrogate
from repro.core.pro import ParallelRankOrdering
from repro.space import FloatParameter, IntParameter, OrdinalParameter, ParameterSpace

GS2 = GS2Surrogate()

BENCH = ParameterSpace([IntParameter("a", -10, 10), IntParameter("b", -10, 10)])

MIXED = ParameterSpace(
    [
        IntParameter("i", 0, 20, step=2),
        OrdinalParameter("o", [1, 2, 4, 8, 16, 32]),
        FloatParameter("f", -1.0, 1.0, probe_step=0.05, tolerance=1e-3),
    ]
)


def _bench_cost(p):
    a, b = p
    return 1.0 + 0.25 * (a - 3) ** 2 + 0.5 * (b + 2) ** 2


def _mixed_cost(p):
    i, o, f = p
    return 1.0 + 0.1 * (i - 6) ** 2 + (np.log2(o) - 3) ** 2 + 4.0 * (f - 0.3) ** 2


SPACES = {
    "gs2": (GS2.space(), GS2),
    "bench": (BENCH, _bench_cost),
    "mixed": (MIXED, _mixed_cost),
}

VARIANTS = {
    "default": {},
    "auto_size": {"auto_size": True},
    "greedy": {"greedy_acceptance": True},
    "eager": {"eager_expansion": True},
    "minimal": {"simplex_shape": "minimal"},
}

#: (space, variant, noise level, seed); noise 0 keeps value ties, so the
#: stable vertex ordering is pinned too
RUNS = [(space, variant, 0.1, 1) for space in SPACES for variant in VARIANTS] + [
    ("bench", "default", 0.0, 0),
    ("mixed", "auto_size", 0.3, 2),
]

MAX_ROUNDS = 30


def _hex(xs):
    return ",".join(float(x).hex() for x in xs)


def _trajectory(space_name, variant, noise, seed):
    space, cost = SPACES[space_name]
    tuner = ParallelRankOrdering(space, **VARIANTS[variant])
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(MAX_ROUNDS):
        batch = tuner.ask()
        if not batch:
            break
        values = [
            float(cost(p)) * (1.0 + noise * float(rng.exponential())) for p in batch
        ]
        tuner.tell(values)
        # one line per round: the asked rows, then the told values
        rounds.append(" ".join(_hex(p) for p in batch) + " -> " + _hex(values))
    # leave a batch in flight so the snapshot pins a pending checkpoint too
    tuner.ask()
    state = tuner.to_dict()
    restored = ParallelRankOrdering.from_dict(space, json.loads(json.dumps(state)))
    assert json.dumps(restored.to_dict()) == json.dumps(state)
    return {
        "run": f"{space_name}/{variant}/noise={noise}/seed={seed}",
        "rounds": rounds,
        "step_log": list(tuner.step_log),
        # the checkpoint exactly as json.dumps spells it, on one line
        "final": json.dumps(state),
    }


def test_pro_trajectories_are_bit_identical(golden_text):
    runs = [_trajectory(*spec) for spec in RUNS]
    golden_text("pro_trajectories.json", json.dumps(runs, indent=1) + "\n")
