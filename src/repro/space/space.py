"""The admissible region: an ordered collection of tunable parameters.

A *point* is a 1-D ``numpy.ndarray`` of length ``N`` holding one value per
parameter, in declaration order.  All tuner-facing geometry (projection,
probing, random sampling) lives here so the search algorithms never touch
per-parameter details.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro._util import as_generator
from repro.space.parameter import IntParameter, Parameter, int_contains, int_project

__all__ = ["ParameterSpace", "SliceEmbedding"]


class ParameterSpace:
    """An ordered, named set of :class:`~repro.space.Parameter` objects."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        params = list(parameters)
        if not params:
            raise ValueError("a parameter space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        self._params: tuple[Parameter, ...] = tuple(params)
        self._index = {p.name: i for i, p in enumerate(params)}
        # The batch kernels price every IntParameter column in one pass over
        # this block (its lattices as per-column arrays) and loop the rest.
        ints = [i for i, p in enumerate(params) if type(p) is IntParameter]
        self._int_cols = np.array(ints, dtype=np.intp)
        self._int_lattices = tuple(
            np.array([getattr(params[i], attr) for i in ints], dtype=float)
            for attr in ("lower", "step", "n_values", "upper_admissible")
        )
        self._other_cols = [i for i in range(len(params)) if i not in ints]

    # -- basic structure ----------------------------------------------------

    @property
    def dimension(self) -> int:
        """Number of tunable parameters N."""
        return len(self._params)

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        return self._params

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params)

    def __getitem__(self, key: int | str) -> Parameter:
        if isinstance(key, str):
            return self._params[self._index[key]]
        return self._params[key]

    @property
    def is_discrete(self) -> bool:
        """True when every parameter has a finite admissible set."""
        return all(p.is_discrete for p in self._params)

    def n_points(self) -> int:
        """Number of admissible points (discrete spaces only)."""
        if not self.is_discrete:
            raise ValueError("n_points() is only defined for fully discrete spaces")
        n = 1
        for p in self._params:
            n *= p.n_values  # type: ignore[attr-defined]
        return n

    # -- point plumbing -------------------------------------------------------

    def as_point(self, values: Mapping[str, float] | Sequence[float]) -> np.ndarray:
        """Convert a dict or sequence into a point array (no projection)."""
        if isinstance(values, Mapping):
            missing = set(self.names) - set(values)
            extra = set(values) - set(self.names)
            if missing or extra:
                raise ValueError(
                    f"point keys mismatch: missing={sorted(missing)}, extra={sorted(extra)}"
                )
            arr = np.array([float(values[n]) for n in self.names], dtype=float)
        else:
            arr = np.asarray(values, dtype=float)
            if arr.shape != (self.dimension,):
                raise ValueError(
                    f"expected a point of dimension {self.dimension}, got shape {arr.shape}"
                )
        return arr

    def as_dict(self, point: Sequence[float]) -> dict[str, float]:
        """Convert a point array into a ``{name: value}`` dict."""
        pt = self.as_point(point)
        return {name: float(v) for name, v in zip(self.names, pt)}

    def as_batch(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """Convert a sequence of points into an ``(m, N)`` array (no projection)."""
        arr = np.asarray(points, dtype=float)
        if arr.size == 0:
            return arr.reshape(0, self.dimension)
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise ValueError(
                f"expected an (m, {self.dimension}) batch of points, "
                f"got shape {arr.shape}"
            )
        return arr

    # -- admissibility & projection ------------------------------------------

    def contains(self, point: Sequence[float]) -> bool:
        """True when every coordinate of *point* is admissible."""
        pt = self.as_point(point).tolist()
        return all(p.contains(x) for p, x in zip(self._params, pt))

    def nearest(self, point: Sequence[float]) -> np.ndarray:
        """Coordinate-wise nearest admissible point."""
        pt = self.as_point(point)
        return np.array([p.nearest(x) for p, x in zip(self._params, pt)], dtype=float)

    def project(self, point: Sequence[float], center: Sequence[float]) -> np.ndarray:
        """The paper's projection operator Π(·) (§3.2.1).

        Coordinate-wise: clip to bounds, then round discrete coordinates
        toward the transformation centre *center* (which must be admissible).
        """
        pt = self.as_point(point).tolist()
        ctr = self.as_point(center).tolist()
        return np.array(
            [p.project(x, c) for p, x, c in zip(self._params, pt, ctr)], dtype=float
        )

    #: below this many rows the fixed cost of the numpy kernels exceeds the
    #: scalar loop; both sides are bitwise identical, so the batch entry
    #: points just pick whichever is faster.  A projection plus a membership
    #: check costs the same either way at about 16 rows on 2- and 3-D
    #: spaces; on a 16-D integer space the kernels win from about 4 rows.
    _VECTORIZE_MIN_ROWS = 16

    #: rows per pass of the integer-block membership kernel: a whole lattice
    #: checked at once (a database build) would otherwise hold several
    #: temporaries the size of the lattice
    _CONTAINS_CHUNK_ROWS = 4096

    def contains_batch(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """Vectorized :meth:`contains`: one boolean per row of *points*.

        Equal to :meth:`contains` on each row, at any number of rows.
        """
        arr = self.as_batch(points)
        if arr.shape[0] < self._VECTORIZE_MIN_ROWS:
            params = self._params
            return np.array(
                [
                    all(p.contains(x) for p, x in zip(params, row))
                    for row in arr.tolist()
                ],
                dtype=bool,
            )
        ok = np.ones(arr.shape[0], dtype=bool)
        if self._int_cols.size:
            lower, step, count, _ = self._int_lattices
            for r in range(0, arr.shape[0], self._CONTAINS_CHUNK_ROWS):
                rows = slice(r, r + self._CONTAINS_CHUNK_ROWS)
                block = arr[rows, self._int_cols]
                ok[rows] &= int_contains(block, lower, step, count).all(axis=1)
        for i in self._other_cols:
            ok &= self._params[i].contains_array(arr[:, i])
        return ok

    def project_batch(
        self, points: Sequence[Sequence[float]], center: Sequence[float]
    ) -> np.ndarray:
        """Vectorized :meth:`project` of many points toward one *center*.

        Bitwise identical to projecting each row individually (the
        executor-invariance contract), at any number of rows.
        """
        arr = self.as_batch(points)
        ctr = self.as_point(center)
        centers = ctr.tolist()
        params = self._params
        for p, c in zip(params, centers):
            p._require_admissible(c, "projection centre")
        if arr.shape[0] < self._VECTORIZE_MIN_ROWS:
            return np.array(
                [
                    [p.project_unchecked(x, c) for p, x, c in zip(params, row, centers)]
                    for row in arr.tolist()
                ],
                dtype=float,
            ).reshape(arr.shape)
        out = np.empty_like(arr)
        if self._int_cols.size:
            cols = self._int_cols
            block = arr[:, cols]
            finite = np.isfinite(block)
            if not finite.all():
                r, j = np.argwhere(~finite)[0]
                raise ValueError(
                    f"{params[cols[j]].name}: cannot project non-finite value "
                    f"{float(block[r, j])!r}"
                )
            out[:, cols] = int_project(block, *self._int_lattices, ctr[cols])
        for i in self._other_cols:
            out[:, i] = params[i].project_array(arr[:, i], centers[i])
        return out

    def center(self) -> np.ndarray:
        """The admissible centre point c of the region (§3.2.3)."""
        return np.array([p.center() for p in self._params], dtype=float)

    def spans(self) -> np.ndarray:
        """Per-parameter range widths ``u(i) - l(i)``."""
        return np.array([p.span for p in self._params], dtype=float)

    def lower_bounds(self) -> np.ndarray:
        """Per-parameter declared lower limits l(i)."""
        return np.array([p.lower for p in self._params], dtype=float)

    def upper_bounds(self) -> np.ndarray:
        """Per-parameter declared upper limits u(i)."""
        return np.array([p.upper for p in self._params], dtype=float)

    # -- sampling & enumeration ------------------------------------------------

    def random_point(self, rng: int | np.random.Generator | None = None) -> np.ndarray:
        """A uniformly random admissible point."""
        gen = as_generator(rng)
        return np.array([p.random(gen) for p in self._params], dtype=float)

    def grid(self) -> Iterator[np.ndarray]:
        """Iterate over every admissible point of a fully discrete space."""
        if not self.is_discrete:
            raise ValueError("grid() is only defined for fully discrete spaces")
        axes = [p.values() for p in self._params]  # type: ignore[attr-defined]
        for combo in itertools.product(*axes):
            yield np.asarray(combo, dtype=float)

    def grid_array(self) -> np.ndarray:
        """Every admissible point as one ``(n_points, N)`` array, rows in
        :meth:`grid` order.

        Every discrete parameter lists its values in increasing order, so
        the rows are also sorted lexicographically.
        """
        if not self.is_discrete:
            raise ValueError("grid_array() is only defined for fully discrete spaces")
        axes = [p.values() for p in self._params]  # type: ignore[attr-defined]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dimension).astype(float)

    # -- stopping-criterion support ---------------------------------------------

    def probe_points(self, v0: Sequence[float]) -> list[np.ndarray]:
        """The up-to-2N certificate points around *v0* (§3.2.2).

        For each coordinate i, step to the neighbouring admissible value above
        and below ``v0[i]`` (skipping directions blocked by a boundary, where
        the paper sets ``l_i``/``u_i`` to zero).
        """
        base = self.as_point(v0)
        if not self.contains(base):
            raise ValueError(f"probe centre {base!r} is not admissible")
        probes: list[np.ndarray] = []
        for i, p in enumerate(self._params):
            for neighbor in (p.upper_neighbor(base[i]), p.lower_neighbor(base[i])):
                if neighbor is None:
                    continue
                pt = base.copy()
                pt[i] = neighbor
                probes.append(pt)
        return probes

    def coincident(self, points: Iterable[Sequence[float]]) -> bool:
        """True when all *points* have collapsed onto one configuration.

        Discrete coordinates must be exactly equal; continuous coordinates
        must agree within the parameter's ``tolerance`` (§3.2.2).
        """
        pts = [self.as_point(p).tolist() for p in points]
        if len(pts) <= 1:
            return True
        ref = pts[0]
        for pt in pts[1:]:
            for i, p in enumerate(self._params):
                if p.is_discrete:
                    if pt[i] != ref[i]:
                        return False
                else:
                    tol = getattr(p, "tolerance", 0.0)
                    if abs(pt[i] - ref[i]) > tol:
                        return False
        return True

    # -- slicing ---------------------------------------------------------------

    def slice(
        self, fixed: Mapping[str, float]
    ) -> tuple["ParameterSpace", "SliceEmbedding"]:
        """Pin some parameters; returns (sub-space, embedding).

        The embedding maps a sub-space point back to a full-space point with
        the pinned values filled in — the tool behind 2-D surface slices
        (Fig. 8) and partial re-tuning (freeze the parameters you trust,
        search the rest).
        """
        fixed = dict(fixed)
        unknown = set(fixed) - set(self.names)
        if unknown:
            raise ValueError(f"unknown parameters to fix: {sorted(unknown)}")
        for name, value in fixed.items():
            if not self[name].contains(value):
                raise ValueError(f"{name}={value} is not admissible")
        free = [p for p in self._params if p.name not in fixed]
        if not free:
            raise ValueError("cannot fix every parameter; nothing left to tune")
        return ParameterSpace(free), SliceEmbedding(self, fixed)

    # -- normalization (plotting / distance) -------------------------------------

    def normalize(self, point: Sequence[float]) -> np.ndarray:
        """Map a point into [0, 1]^N by its declared bounds."""
        pt = self.as_point(point)
        spans = self.spans()
        spans = np.where(spans > 0, spans, 1.0)
        return (pt - self.lower_bounds()) / spans

    def normalize_batch(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """Vectorized :meth:`normalize` over an ``(m, N)`` batch of points."""
        arr = self.as_batch(points)
        spans = self.spans()
        spans = np.where(spans > 0, spans, 1.0)
        return (arr - self.lower_bounds()) / spans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(p) for p in self._params)
        return f"ParameterSpace([{inner}])"


class SliceEmbedding:
    """Maps points of a sliced sub-space back into the full space.

    Callable: ``embed(sub_point) -> full_point``.  Also wraps full-space
    objectives for use on the sub-space: ``embed.lift(fn)(sub_point) ==
    fn(embed(sub_point))``.
    """

    def __init__(self, full_space: ParameterSpace, fixed: dict[str, float]) -> None:
        self.full_space = full_space
        self.fixed = dict(fixed)
        self._free_names = [n for n in full_space.names if n not in fixed]

    def __call__(self, sub_point: Sequence[float]) -> np.ndarray:
        sub = np.asarray(sub_point, dtype=float).ravel()
        if sub.shape != (len(self._free_names),):
            raise ValueError(
                f"expected a point of dimension {len(self._free_names)}, "
                f"got shape {sub.shape}"
            )
        values = dict(self.fixed)
        values.update(zip(self._free_names, (float(v) for v in sub)))
        return self.full_space.as_point(values)

    def lift(self, fn):
        """A full-space objective as a sub-space objective."""

        def lifted(sub_point):
            return fn(self(sub_point))

        return lifted
