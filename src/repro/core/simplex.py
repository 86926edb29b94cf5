"""Simplex container and rank-ordering transform geometry (paper Fig. 2).

A simplex here is an ordered multiset of vertices with (possibly stale)
objective estimates.  The three rank-ordering transforms are all affine maps
*around the best vertex* ``v0``:

* reflection:  ``r_j = 2 v0 - v_j``
* expansion:   ``e_j = 3 v0 - 2 v_j``   (reflection pushed twice as far)
* shrink:      ``s_j = (v0 + v_j) / 2``

Note this differs from Nelder–Mead, which transforms the *worst* vertex
through the centroid of the others; rank ordering moves the whole simplex
around the best point, which is what makes the n transforms independent and
hence embarrassingly parallel (§3.2).

The paper's Algorithm 2 listing contains two typos (it writes ``v_k^n``
where the per-vertex ``v_k^j`` is meant in the reflection and expansion
steps); we implement the per-vertex forms, consistent with Algorithm 1 and
the prose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Vertex", "Simplex", "reflect", "expand", "shrink", "affine_rank"]


def reflect(v0: np.ndarray, vj: np.ndarray) -> np.ndarray:
    """Reflection of ``vj`` through ``v0``: ``2 v0 - vj``."""
    return 2.0 * np.asarray(v0, dtype=float) - np.asarray(vj, dtype=float)


def expand(v0: np.ndarray, vj: np.ndarray) -> np.ndarray:
    """Expansion of ``vj`` away from ``v0``: ``3 v0 - 2 vj``."""
    return 3.0 * np.asarray(v0, dtype=float) - 2.0 * np.asarray(vj, dtype=float)


def shrink(v0: np.ndarray, vj: np.ndarray) -> np.ndarray:
    """Shrink of ``vj`` toward ``v0``: ``(v0 + vj) / 2``."""
    return 0.5 * (np.asarray(v0, dtype=float) + np.asarray(vj, dtype=float))


def affine_rank(points: list[np.ndarray], tol: float = 1e-9) -> int:
    """Affine rank of a point set — the dimension its simplex spans.

    A simplex on an N-dimensional space is *degenerate* when its affine rank
    is below N; degenerate simplexes are the failure mode of Nelder–Mead the
    paper calls out (§3.1), and this diagnostic lets tests and the tuners
    detect it.
    """
    if not points:
        return 0
    base = np.asarray(points[0], dtype=float)
    diffs = np.array([np.asarray(p, dtype=float) - base for p in points[1:]])
    if diffs.size == 0:
        return 0
    s = np.linalg.svd(diffs, compute_uv=False)
    scale = float(s[0]) if s.size else 0.0
    if scale == 0.0:
        return 0
    return int(np.sum(s > tol * scale))


@dataclass
class Vertex:
    """A simplex vertex: a point and its current objective estimate."""

    point: np.ndarray
    value: float

    def __post_init__(self) -> None:
        self.point = np.array(self.point, dtype=float)  # the vertex's own copy
        self.value = float(self.value)
        if self.point.ndim != 1:
            raise ValueError(f"vertex point must be 1-D, got shape {self.point.shape}")
        if not math.isfinite(self.value):
            raise ValueError(f"vertex value must be finite, got {self.value}")

    def copy(self) -> "Vertex":
        return Vertex(self.point, self.value)


@dataclass
class Simplex:
    """An ordered set of evaluated vertices, best (lowest value) first."""

    vertices: list[Vertex] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError(
                f"a simplex needs at least 2 vertices, got {len(self.vertices)}"
            )
        dims = {v.point.shape for v in self.vertices}
        if len(dims) != 1:
            raise ValueError(f"inconsistent vertex dimensions: {dims}")
        self.order()

    # -- structure ---------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Dimension of the ambient space."""
        return int(self.vertices[0].point.size)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_moving(self) -> int:
        """n — the number of vertices transformed each iteration (all but v0)."""
        return len(self.vertices) - 1

    def order(self) -> None:
        """Sort vertices by value ascending (stable, hence deterministic)."""
        self.vertices.sort(key=lambda v: v.value)

    @property
    def best(self) -> Vertex:
        """v0 — the vertex with the least objective estimate."""
        return self.vertices[0]

    @property
    def worst(self) -> Vertex:
        return self.vertices[-1]

    def points(self) -> list[np.ndarray]:
        return [v.point.copy() for v in self.vertices]

    def values(self) -> np.ndarray:
        return np.array([v.value for v in self.vertices], dtype=float)

    def is_degenerate(self, ambient_dim: int | None = None, tol: float = 1e-9) -> bool:
        """True when the simplex fails to span the (given) space."""
        dim = self.dimension if ambient_dim is None else ambient_dim
        return affine_rank(self.points(), tol) < dim

    def diameter(self) -> float:
        """Largest pairwise vertex distance — a simplex-collapse measure."""
        pts = self.points()
        best = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                best = max(best, float(np.linalg.norm(pts[i] - pts[j])))
        return best

    # -- the three transforms, around the current best vertex ------------------------

    def reflection_points(self) -> list[np.ndarray]:
        """Unprojected reflections of v1..vn through v0."""
        v0 = self.best.point
        return [reflect(v0, v.point) for v in self.vertices[1:]]

    def expansion_points(self) -> list[np.ndarray]:
        """Unprojected expansions of v1..vn away from v0."""
        v0 = self.best.point
        return [expand(v0, v.point) for v in self.vertices[1:]]

    def shrink_points(self) -> list[np.ndarray]:
        """Unprojected shrinks of v1..vn toward v0."""
        v0 = self.best.point
        return [shrink(v0, v.point) for v in self.vertices[1:]]

    def replace_moving(self, new_vertices: list[Vertex]) -> None:
        """Replace v1..vn with *new_vertices*, keep v0, and reorder.

        The simplex takes the vertex objects themselves, not copies: callers
        hand over freshly built vertices and do not mutate them afterwards.
        """
        if len(new_vertices) != self.n_moving:
            raise ValueError(
                f"expected {self.n_moving} replacement vertices, got {len(new_vertices)}"
            )
        self.vertices = [self.best, *new_vertices]
        self.order()

    def copy(self) -> "Simplex":
        return Simplex([v.copy() for v in self.vertices])
