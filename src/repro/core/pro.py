"""Algorithm 2 — Parallel Rank Ordering (PRO).

Each iteration transforms the whole simplex around its best vertex ``v0``:

1. **Reflection step** — all n reflections ``r^j = Π(2 v0 - v^j)`` are
   evaluated *in parallel* (one application time step on n processors).
2. **Expansion check** — if the best reflection beats ``f(v0)``, the single
   most promising expansion ``e = Π(3 v0 - 2 v^l)`` (l = argmin over
   reflections) is evaluated first.  The paper found some expansion points
   have terrible performance; paying one cheap check avoids charging a full
   parallel step for a doomed expansion.
3. **Expansion step** — if the check also beats the best reflection, all n
   expansions ``e^j = Π(3 v0 - 2 v^j)`` are evaluated in parallel and become
   the new simplex; otherwise the reflections do.
4. **Shrink step** — if no reflection beat ``f(v0)``, all vertices shrink
   halfway toward ``v0`` (evaluated in parallel).

Acceptance is against the **best** vertex (unlike Nelder–Mead's
better-than-worst rule), which is what puts PRO in the provably convergent
GSS class (§3.2).  With n processors an iteration costs at most 3 time
steps.

Two ablation switches reproduce the "alternative parallel variants"
mentioned in §3.2:

* ``greedy_acceptance`` — accept a reflection that merely beats the *worst*
  vertex (the Nelder–Mead-style rule).  Warning: because reflection around
  ``v0`` is an involution, this rule can ping-pong the simplex between two
  mirror configurations forever without shrinking — the concrete instability
  that motivates the paper's stricter beat-the-best rule;
* ``eager_expansion`` — skip the single-point expansion check and evaluate
  the full expansion batch immediately, keeping whichever batch (reflection
  or expansion) achieved the better minimum.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from repro.core.base import BatchTuner
from repro.core.initial import axial_simplex, minimal_simplex
from repro.obs.trace import emit as _obs_emit
from repro.core.simplex import Simplex, Vertex, expand, reflect, shrink
from repro.core.stopping import ConvergenceProbe
from repro.space import ParameterSpace

__all__ = ["ParallelRankOrdering", "ProPhase"]


class ProPhase(enum.Enum):
    """Internal state-machine phase of the PRO tuner."""

    AUTOSIZE = "autosize"
    INIT = "init"
    REFLECT = "reflect"
    EXPAND_CHECK = "expand_check"
    EXPAND = "expand"
    SHRINK = "shrink"
    PROBE = "probe"
    DONE = "done"


class ParallelRankOrdering(BatchTuner):
    """The paper's PRO tuner (Algorithm 2) as an ask/tell state machine."""

    def __init__(
        self,
        space: ParameterSpace,
        *,
        initial_points: Sequence[np.ndarray] | None = None,
        r: float = 0.2,
        simplex_shape: str = "axial",
        greedy_acceptance: bool = False,
        eager_expansion: bool = False,
        auto_size: bool = False,
        auto_size_candidates: Sequence[float] = (0.1, 0.2, 0.4, 0.8),
    ) -> None:
        super().__init__(space)
        if simplex_shape not in ("axial", "minimal"):
            raise ValueError(
                f"simplex_shape must be 'axial' or 'minimal', got {simplex_shape!r}"
            )
        builder = axial_simplex if simplex_shape == "axial" else minimal_simplex
        self._candidate_simplexes: dict[float, list[np.ndarray]] = {}
        #: the initial relative size actually used (set after auto-sizing)
        self.chosen_r: float | None = None
        if initial_points is not None:
            if auto_size:
                raise ValueError("auto_size cannot be combined with initial_points")
            pts = [space.as_point(p) for p in initial_points]
            if len(pts) < 2:
                raise ValueError("need at least 2 initial simplex vertices")
            for p in pts:
                if not space.contains(p):
                    raise ValueError(f"initial point {p!r} is not admissible")
        elif auto_size:
            # §3.2.3 future work: choose the initial size adaptively.  All
            # candidate simplexes are evaluated together in the first batch
            # (cheap on a parallel machine) and the best-scoring one becomes
            # the starting simplex.
            candidates = sorted({float(c) for c in auto_size_candidates})
            if len(candidates) < 2:
                raise ValueError("auto_size needs at least two candidate sizes")
            for c in candidates:
                self._candidate_simplexes[c] = builder(space, c)
            pts = []  # filled after the AUTOSIZE batch
        else:
            pts = builder(space, r)
            self.chosen_r = float(r)
        self._initial_points = pts
        self.greedy_acceptance = bool(greedy_acceptance)
        self.eager_expansion = bool(eager_expansion)
        self.phase = ProPhase.AUTOSIZE if auto_size else ProPhase.INIT
        self.simplex: Simplex | None = None
        self._probe = ConvergenceProbe(space)
        #: completed PRO loop iterations (one accepted transform each)
        self.n_iterations = 0
        #: number of probe-certified restarts performed
        self.n_restarts = 0
        # transient per-phase storage
        self._moving: list[Vertex] = []
        self._reflections: list[Vertex] = []
        self._best_reflection_idx = -1
        self._probe_batch: list[np.ndarray] = []

    # -- incumbent ------------------------------------------------------------

    @property
    def initialized(self) -> bool:
        return self.simplex is not None

    @property
    def best_point(self) -> np.ndarray:
        if self.simplex is None:
            if self._initial_points:
                return self._initial_points[0].copy()
            return self.space.center()
        return self.simplex.best.point.copy()

    @property
    def best_value(self) -> float:
        if self.simplex is None:
            return float("inf")
        return self.simplex.best.value

    @property
    def max_batch_size(self) -> int:
        """Largest batch any phase can ask for (sizes session sample buffers).

        REFLECT/EXPAND/SHRINK move at most ``n_vertices - 1`` points, PROBE
        asks up to ``2 N`` certificate points, and a probe restart rebuilds
        the simplex from those probes (so later moving batches stay ≤ 2 N).
        """
        dim = self.space.dimension
        sizes = [2 * dim, dim + 1, 1]
        if self._initial_points:
            sizes.append(len(self._initial_points))
        if self._candidate_simplexes:
            sizes.append(sum(len(p) for p in self._candidate_simplexes.values()))
        if self.simplex is not None:
            sizes.append(self.simplex.n_vertices - 1)
        return max(sizes)

    def _moving_matrix(self) -> np.ndarray:
        """The moving vertices stacked as an (m, N) matrix.

        The simplex transforms broadcast over rows, and
        :meth:`ParameterSpace.project_batch` projects column-wise — both
        bitwise-identical to the former per-vertex loop.
        """
        return np.array([v.point for v in self._moving], dtype=float)

    # -- ask -------------------------------------------------------------------

    def _ask(self) -> list[np.ndarray]:
        if self.phase is ProPhase.AUTOSIZE:
            # One batch holding every candidate simplex's vertices, deduped.
            seen: dict[tuple, np.ndarray] = {}
            for pts in self._candidate_simplexes.values():
                for p in pts:
                    seen.setdefault(tuple(p), p)
            return list(seen.values())
        if self.phase is ProPhase.INIT:
            return list(self._initial_points)
        if self.phase is ProPhase.REFLECT:
            assert self.simplex is not None
            v0 = self.simplex.best.point
            # Vertices are never mutated in place, so the moving set can
            # share the simplex's vertex objects.
            self._moving = self.simplex.vertices[1:]
            return list(self.space.project_batch(reflect(v0, self._moving_matrix()), v0))
        if self.phase is ProPhase.EXPAND_CHECK:
            assert self.simplex is not None
            v0 = self.simplex.best.point
            vl = self._moving[self._best_reflection_idx].point
            return [self.space.project(expand(v0, vl), v0)]
        if self.phase is ProPhase.EXPAND:
            assert self.simplex is not None
            v0 = self.simplex.best.point
            return list(self.space.project_batch(expand(v0, self._moving_matrix()), v0))
        if self.phase is ProPhase.SHRINK:
            assert self.simplex is not None
            v0 = self.simplex.best.point
            return list(self.space.project_batch(shrink(v0, self._moving_matrix()), v0))
        if self.phase is ProPhase.PROBE:
            assert self.simplex is not None
            self._probe_batch = self._probe.probe_points(self.simplex.best.point)
            if not self._probe_batch:
                # No admissible neighbours at all: trivially a local minimum.
                self.phase = ProPhase.DONE
                self._mark_converged("no_neighbours")
                return []
            return list(self._probe_batch)
        if self.phase is ProPhase.DONE:
            return []
        raise AssertionError(f"unhandled phase {self.phase}")  # pragma: no cover

    # -- tell -------------------------------------------------------------------

    def _tell(self, batch: list[np.ndarray], values: list[float]) -> None:
        if self.phase is ProPhase.AUTOSIZE:
            value_of = {tuple(p): v for p, v in zip(batch, values)}
            dim = self.space.dimension
            best_r, best_score, best_vertices = None, float("inf"), None
            for r, pts in sorted(self._candidate_simplexes.items()):
                keys = {tuple(p) for p in pts}
                if len(keys) < min(dim + 1, len(pts)):
                    continue  # projection collapsed this candidate: cannot span
                vertex_values = [value_of[tuple(p)] for p in pts]
                # Score: mean vertex cost — a large simplex whose marginal
                # vertices are terrible loses to a mid-size one; a collapsed
                # tiny simplex was already excluded.
                score = float(np.mean(vertex_values))
                if score < best_score:
                    best_r, best_score = r, score
                    best_vertices = [
                        Vertex(p, value_of[tuple(p)]) for p in pts
                    ]
            if best_vertices is None:
                # Every candidate collapsed (extremely coarse lattice): fall
                # back to the largest candidate's (possibly duplicated) set.
                r, pts = max(self._candidate_simplexes.items())
                best_r = r
                best_vertices = [Vertex(p, value_of[tuple(p)]) for p in pts]
            self.chosen_r = float(best_r)
            self.simplex = Simplex(best_vertices)
            self.step_log.append(f"autosize:r={best_r:g}")
            _obs_emit("pro.step", step="autosize", r=float(best_r))
            self._after_update()
            return
        if self.phase is ProPhase.INIT:
            self.simplex = Simplex(
                [Vertex(p, v) for p, v in zip(batch, values)]
            )
            self.step_log.append("init")
            _obs_emit("pro.step", step="init", n_vertices=self.simplex.n_vertices)
            self._after_update()
            return
        assert self.simplex is not None
        if self.phase is ProPhase.REFLECT:
            self._reflections = [Vertex(p, v) for p, v in zip(batch, values)]
            # the first minimum, as np.argmin picks it (values are finite)
            self._best_reflection_idx = min(
                range(len(values)), key=values.__getitem__
            )
            threshold = (
                self.simplex.worst.value
                if self.greedy_acceptance
                else self.simplex.best.value
            )
            if values[self._best_reflection_idx] < threshold:
                self.phase = (
                    ProPhase.EXPAND if self.eager_expansion else ProPhase.EXPAND_CHECK
                )
            else:
                self.phase = ProPhase.SHRINK
            return
        if self.phase is ProPhase.EXPAND_CHECK:
            best_reflection = self._reflections[self._best_reflection_idx].value
            passed = values[0] < best_reflection
            _obs_emit(
                "pro.expand_check",
                passed=bool(passed),
                check_value=float(values[0]),
                best_reflection=float(best_reflection),
            )
            if passed:
                self.phase = ProPhase.EXPAND
            else:
                self.simplex.replace_moving(self._reflections)
                self.step_log.append("reflect")
                _obs_emit("pro.step", step="reflect")
                self._after_update()
            return
        if self.phase is ProPhase.EXPAND:
            expansions = [Vertex(p, v) for p, v in zip(batch, values)]
            if self.eager_expansion:
                # Keep whichever batch achieved the better minimum.
                exp_min = min(v.value for v in expansions)
                ref_min = self._reflections[self._best_reflection_idx].value
                if exp_min < ref_min:
                    self.simplex.replace_moving(expansions)
                    self.step_log.append("expand")
                    _obs_emit("pro.step", step="expand")
                else:
                    self.simplex.replace_moving(self._reflections)
                    self.step_log.append("reflect")
                    _obs_emit("pro.step", step="reflect")
            else:
                self.simplex.replace_moving(expansions)
                self.step_log.append("expand")
                _obs_emit("pro.step", step="expand")
            self._after_update()
            return
        if self.phase is ProPhase.SHRINK:
            self.simplex.replace_moving(
                [Vertex(p, v) for p, v in zip(batch, values)]
            )
            self.step_log.append("shrink")
            _obs_emit("pro.step", step="shrink")
            self._after_update()
            return
        if self.phase is ProPhase.PROBE:
            if ConvergenceProbe.is_local_minimum(self.simplex.best.value, values):
                self.phase = ProPhase.DONE
                self._mark_converged("local_minimum")
                return
            restart = [self.simplex.best] + [
                Vertex(p, v) for p, v in zip(batch, values)
            ]
            self.simplex = Simplex(restart)
            self.n_restarts += 1
            self.step_log.append("probe_restart")
            _obs_emit("pro.step", step="probe_restart", n_restarts=self.n_restarts)
            self.phase = ProPhase.REFLECT
            return
        raise AssertionError(f"tell in unhandled phase {self.phase}")  # pragma: no cover

    # -- checkpointing -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize the tuner's full search state (JSON-compatible).

        Together with :meth:`from_dict` this lets a long-running tuning
        service checkpoint and restart without losing the simplex.  An
        in-flight (asked but not yet told) batch is preserved; the restored
        tuner expects ``tell`` for it exactly like the original would.
        """

        def dump_vertices(vertices: list[Vertex]) -> list[list]:
            return [[[float(x) for x in v.point], float(v.value)] for v in vertices]

        return {
            "pending": (
                [[float(x) for x in p] for p in self._pending]
                if self._pending is not None
                else None
            ),
            "phase": self.phase.value,
            "state": self.state.value,
            "simplex": (
                dump_vertices(self.simplex.vertices) if self.simplex else None
            ),
            "moving": dump_vertices(self._moving),
            "reflections": dump_vertices(self._reflections),
            "best_reflection_idx": self._best_reflection_idx,
            "probe_batch": [[float(x) for x in p] for p in self._probe_batch],
            "initial_points": [
                [float(x) for x in p] for p in self._initial_points
            ],
            "candidate_simplexes": {
                str(r): [[float(x) for x in p] for p in pts]
                for r, pts in self._candidate_simplexes.items()
            },
            "chosen_r": self.chosen_r,
            "greedy_acceptance": self.greedy_acceptance,
            "eager_expansion": self.eager_expansion,
            "n_iterations": self.n_iterations,
            "n_restarts": self.n_restarts,
            "n_evaluations": self.n_evaluations,
            "n_batches": self.n_batches,
            "step_log": list(self.step_log),
        }

    @classmethod
    def from_dict(cls, space: ParameterSpace, data: dict) -> "ParallelRankOrdering":
        """Restore a tuner checkpointed with :meth:`to_dict`."""
        from repro.core.base import TunerState

        tuner = cls.__new__(cls)
        BatchTuner.__init__(tuner, space)

        def load_vertices(rows: list) -> list[Vertex]:
            return [Vertex(np.asarray(p, dtype=float), v) for p, v in rows]

        tuner.state = TunerState(data["state"])
        tuner._pending = (
            [np.asarray(p, dtype=float) for p in data["pending"]]
            if data.get("pending") is not None
            else None
        )
        tuner.phase = ProPhase(data["phase"])
        tuner.simplex = (
            Simplex(load_vertices(data["simplex"]))
            if data["simplex"] is not None
            else None
        )
        tuner._moving = load_vertices(data["moving"])
        tuner._reflections = load_vertices(data["reflections"])
        tuner._best_reflection_idx = int(data["best_reflection_idx"])
        tuner._probe_batch = [
            np.asarray(p, dtype=float) for p in data["probe_batch"]
        ]
        tuner._initial_points = [
            np.asarray(p, dtype=float) for p in data["initial_points"]
        ]
        tuner._candidate_simplexes = {
            float(r): [np.asarray(p, dtype=float) for p in pts]
            for r, pts in data["candidate_simplexes"].items()
        }
        tuner.chosen_r = data["chosen_r"]
        tuner.greedy_acceptance = bool(data["greedy_acceptance"])
        tuner.eager_expansion = bool(data["eager_expansion"])
        tuner.n_iterations = int(data["n_iterations"])
        tuner.n_restarts = int(data["n_restarts"])
        tuner.n_evaluations = int(data["n_evaluations"])
        tuner.n_batches = int(data["n_batches"])
        tuner.step_log = list(data["step_log"])
        tuner._probe = ConvergenceProbe(space)
        return tuner

    # -- bookkeeping ---------------------------------------------------------------

    def _after_update(self) -> None:
        assert self.simplex is not None
        self.n_iterations += 1
        if self._probe.simplex_collapsed([v.point for v in self.simplex.vertices]):
            self.phase = ProPhase.PROBE
        else:
            self.phase = ProPhase.REFLECT
