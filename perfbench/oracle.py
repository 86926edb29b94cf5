"""Correctness oracles: every run's results against an independent rerun.

* Served sessions: each session's recorded stream (the configurations it
  was handed and the times it reported, round by round) is fed to a fresh
  in-process :class:`~repro.harmony.server.TuningServer` through
  :class:`~repro.harmony.transport.InProcessTransport`.  The served
  assignments, final checkpoint and incumbent must equal the reference's.
* WAL: :func:`~repro.harmony.wal.recover_server` on the served server's
  log must rebuild the same checkpoints.
* Fig. 10: one cell rerun serially in-process must equal the pooled
  grid's cell bit for bit, and the ρ = 0 row must increase in K.
* Cluster sweep: a rerun from the same seed must give the same results.

Each oracle returns a list of human-readable mismatches; the run reports
their count as ``mismatches`` and is correct only when it is 0.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np


def canonical(obj) -> str:
    """A JSON rendering that compares equal iff the values are equal."""
    return json.dumps(obj, sort_keys=True, default=_plain)


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def reference_server(space, plan):
    """The in-process twin of a served ``repro serve --tuner pro`` server."""
    from repro.experiments.common import tuner_factory
    from repro.harmony.server import TuningServer

    return TuningServer(tuner_factory("pro", rng=0), space=space, plan=plan)


def replay_sessions(
    streams: Mapping[str, Sequence[tuple[np.ndarray, np.ndarray]]],
    *,
    space,
    plan,
    k: int,
    batched: bool,
) -> tuple[dict[str, dict], list[str]]:
    """Feed each session's stream to a reference server in process.

    *streams* maps a session name to its rounds, each ``(points, times)``
    as served.  ``batched`` selects ``fetch_many``/``report_many`` (one
    SPMD application of ``len(points)`` ranks) over ``fetch``/``report``.
    Returns the reference's final state per session and the sessions
    whose assignments diverged from the served ones.
    """
    from repro.harmony.client import TuningClient
    from repro.harmony.transport import InProcessTransport

    server = reference_server(space, plan)
    transport = InProcessTransport(server)
    states: dict[str, dict] = {}
    diverged: list[str] = []
    for name, rounds in streams.items():
        client = TuningClient(transport)
        client.open_session(name, k=k, estimator="min")
        client.register(space)
        same = True
        for step, (points, times) in enumerate(rounds):
            if batched:
                got = np.asarray(client.fetch_many(len(points)))
                client.report_many(list(times), step=step)
            else:
                got = client.fetch()[None, :]
                client.report(float(times[0]), step=step)
            same = same and np.array_equal(got, points)
        if not same:
            diverged.append(f"{name}: assignments differ from the reference")
        states[name] = session_state(server, name)
    return states, diverged


def session_state(server, name: str) -> dict:
    """Checkpoint and incumbent of one session of an in-process server."""
    session = server.session(name)
    return {"checkpoint": session.op_checkpoint(), "best": session.op_best()}


def compare_states(
    served: Mapping[str, dict], reference: Mapping[str, dict], label: str
) -> list[str]:
    """Sessions whose served state differs from the reference's."""
    out: list[str] = []
    for name in sorted(set(served) | set(reference)):
        if name not in reference:
            out.append(f"{label}: {name} missing from the reference")
        elif name not in served:
            out.append(f"{label}: {name} missing from the served server")
        else:
            for part in ("checkpoint", "best"):
                if part in served[name] and part in reference[name] and canonical(
                    served[name][part]
                ) != canonical(reference[name][part]):
                    out.append(f"{label}: {name} {part} differs")
    return out


def recovered_states(wal_dir, names: Sequence[str], *, space, plan) -> dict[str, dict]:
    """Checkpoints of a server rebuilt from its write-ahead log alone."""
    from repro.experiments.common import tuner_factory
    from repro.harmony.wal import recover_server

    server = recover_server(tuner_factory("pro", rng=0), wal_dir, space=space, plan=plan)
    try:
        return {
            name: {"checkpoint": server.session(name).op_checkpoint()}
            for name in names
            if server.session(name) is not None
        }
    finally:
        server.close_wal()


def check_study(study, rerun, cell: tuple[float, int]) -> list[str]:
    """Pooled Fig. 10 grid vs a serial rerun of *cell*, plus the ρ = 0 claim."""
    out: list[str] = []
    rho, k = cell
    i, j = study.rho_values.index(rho), study.k_values.index(k)
    if (study.mean_ntt[i, j], study.std_ntt[i, j]) != (
        rerun.mean_ntt[0, 0], rerun.std_ntt[0, 0]
    ):
        out.append(
            f"fig10 cell rho={rho:g},K={k}: pooled {study.mean_ntt[i, j]!r} "
            f"!= serial {rerun.mean_ntt[0, 0]!r}"
        )
    if 0.0 in study.rho_values:
        row = study.mean_ntt[study.rho_values.index(0.0)]
        if not bool(np.all(np.diff(row) > 0)):
            out.append(f"fig10 rho=0 row does not increase in K: {row.tolist()}")
    return out


def check_reproducible(first, second, label: str) -> list[str]:
    """Two runs from one seed must agree exactly."""
    if canonical(first) != canonical(second):
        return [f"{label}: rerun from the same seed differs"]
    return []
