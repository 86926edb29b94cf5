"""Shared fixtures for the test suite.

Also home of the two harness-level facilities the suite leans on:

* ``--regen-golden`` — rewrites the JSON snapshots under ``tests/golden/``
  from current outputs (use after an *intentional* metric change; the
  diff is the review artifact);
* fault-injection fixtures (``faulty_evaluator``, ``fault_plan``) — the
  shared :mod:`repro.faults` helpers that replaced the suite's ad-hoc
  broken-evaluator stubs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.synthetic import quadratic_problem
from repro.faults import FaultPlan, FaultyEvaluator
from repro.space import FloatParameter, IntParameter, OrdinalParameter, ParameterSpace

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json snapshots from current outputs",
    )


@pytest.fixture
def golden(request):
    """Compare *data* against a committed JSON snapshot (or regenerate it).

    Usage: ``golden("sweep_quad.json", result.to_dict())``.  The data is
    normalized through a JSON round-trip so tuples/lists and int/float
    representation differences cannot produce spurious mismatches; a
    mismatch therefore means the numbers themselves moved.
    """
    regen = request.config.getoption("--regen-golden")

    def check(name: str, data) -> None:
        path = GOLDEN_DIR / name
        payload = json.loads(json.dumps(data))
        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            return
        if not path.exists():
            pytest.fail(
                f"golden snapshot {name} is missing; generate it with "
                f"`pytest --regen-golden` and commit the result"
            )
        stored = json.loads(path.read_text())
        assert payload == stored, (
            f"output diverged from golden snapshot {name}; if the change is "
            f"intentional, regenerate with `pytest --regen-golden` and review "
            f"the diff"
        )

    return check


@pytest.fixture
def golden_jsonl(request):
    """Compare an event list against a committed JSONL snapshot.

    Usage: ``golden_jsonl("trace_x.jsonl", canonical_events(events))``.
    One JSON object per line, so a snapshot diff reads event-by-event.
    Events must already be canonicalized (volatile fields stripped) —
    wall-clock residue would make the snapshot flap.
    """
    regen = request.config.getoption("--regen-golden")

    def check(name: str, events) -> None:
        path = GOLDEN_DIR / name
        payload = [json.loads(json.dumps(e)) for e in events]
        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(
                "".join(json.dumps(e, sort_keys=True) + "\n" for e in payload)
            )
            return
        if not path.exists():
            pytest.fail(
                f"golden trace {name} is missing; generate it with "
                f"`pytest --regen-golden` and commit the result"
            )
        stored = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert payload == stored, (
            f"trace diverged from golden snapshot {name}; if the change is "
            f"intentional, regenerate with `pytest --regen-golden` and review "
            f"the diff"
        )

    return check


@pytest.fixture
def golden_text(request):
    """Compare *text* against a committed file byte for byte.

    Usage: ``golden_text("state.json", json.dumps(state, indent=1))``.
    Unlike :func:`golden`, nothing is normalized: key order, float
    spelling and whitespace all count, so the check pins a serialized
    format exactly (WAL snapshots, checkpoints).
    """
    regen = request.config.getoption("--regen-golden")

    def check(name: str, text: str) -> None:
        path = GOLDEN_DIR / name
        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text)
            return
        if not path.exists():
            pytest.fail(
                f"golden file {name} is missing; generate it with "
                f"`pytest --regen-golden` and commit the result"
            )
        assert text == path.read_text(), (
            f"output diverged byte-for-byte from golden file {name}; if the "
            f"change is intentional, regenerate with `pytest --regen-golden` "
            f"and review the diff"
        )

    return check


@pytest.fixture
def faulty_evaluator():
    """Factory for :class:`repro.faults.FaultyEvaluator` substrates.

    ``faulty_evaluator(mode)`` wraps a constant unit-cost objective (the
    historical BrokenEvaluator behavior); pass ``inner=`` or extra kwargs
    to wrap something else or delay/limit the misbehavior window.
    """

    def make(mode: str, inner=None, **kwargs) -> FaultyEvaluator:
        if inner is None:
            inner = lambda point: 1.0  # noqa: E731 - trivial substrate
        return FaultyEvaluator(inner, mode=mode, **kwargs)

    return make


@pytest.fixture
def fault_plan():
    """Factory for seeded :class:`repro.faults.FaultPlan` schedules."""

    def make(seed: int = 0, **kwargs) -> FaultPlan:
        return FaultPlan(seed=seed, **kwargs)

    return make


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def int_space() -> ParameterSpace:
    """A 3-D integer space with mixed ranges/steps."""
    return ParameterSpace(
        [
            IntParameter("a", 0, 10),
            IntParameter("b", -5, 5),
            IntParameter("c", 0, 100, step=10),
        ]
    )


@pytest.fixture
def mixed_space() -> ParameterSpace:
    """Int + float + ordinal — exercises every parameter kind at once."""
    return ParameterSpace(
        [
            IntParameter("i", 0, 8, step=2),
            FloatParameter("f", -1.0, 1.0),
            OrdinalParameter("o", [1, 2, 4, 8, 16]),
        ]
    )


@pytest.fixture
def quad3():
    """The 3-D integer quadratic smoke-test problem."""
    return quadratic_problem(3)
