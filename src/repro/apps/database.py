"""A performance database with weighted nearest-neighbour interpolation.

The paper's controlled study (§6) does not run GS2 live: it evaluates the
optimizer against "a data base that contains the performance of the GS2
application for different parameter values", and — because the database does
not contain every combination — estimates missing points with a "weighted
average of its closest neighbors performance values".  This module
implements that database:

* entries map exact configurations to measured (or surrogate) costs;
* exact hits return the stored value;
* misses return an inverse-distance-weighted average of the *k* nearest
  stored entries, with distances taken in the bounds-normalized space so no
  parameter dominates by virtue of its units.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Mapping, Sequence

import numpy as np

from scipy.spatial import cKDTree

from repro import _shm
from repro._util import as_generator, weighted_average
from repro.obs.trace import emit as _obs_emit
from repro.space import ParameterSpace

__all__ = ["PerformanceDatabase"]

#: below this entry count the shared-memory export is not worth a segment
SHM_MIN_ENTRIES = 64


class PerformanceDatabase:
    """Exact-match store + k-NN inverse-distance interpolation."""

    def __init__(
        self,
        space: ParameterSpace,
        *,
        k_neighbors: int = 4,
        memo_size: int = 4096,
    ) -> None:
        if k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
        if memo_size < 0:
            raise ValueError(f"memo_size must be >= 0, got {memo_size}")
        self.space = space
        self.k_neighbors = int(k_neighbors)
        #: LRU capacity of the repeated-query memo (0 disables it)
        self.memo_size = int(memo_size)
        self._entries: dict[tuple[float, ...], float] = {}
        self._tree: cKDTree | None = None
        self._values_cache: np.ndarray | None = None
        # Memo over raw query bytes -> (value, was_exact).  Tuners revisit
        # the same configurations constantly (simplex vertices, incumbent
        # re-runs), so this skips the as_point quantization *and* the
        # KD-tree query on repeats.  Invalidated by add().
        self._memo: OrderedDict[bytes, tuple[float, bool]] = OrderedDict()
        #: interpolated-lookup counter (how sparse the DB looks to the tuner)
        self.n_exact = 0
        self.n_interpolated = 0
        #: queries answered from the memo (still counted in n_exact /
        #: n_interpolated so sparsity diagnostics are unchanged)
        self.n_memo_hits = 0
        # Array mode: sorted (m, N) configuration rows and their values,
        # read-only.  from_function builds them in one pass; a pool worker
        # maps them from another process's shared-memory export, and then
        # the segment handles must outlive the views (dropping them unmaps).
        self._frozen_points: np.ndarray | None = None
        self._frozen_values: np.ndarray | None = None
        self._shm_segments: tuple = ()

    # -- population ---------------------------------------------------------------

    def add(self, point: Sequence[float], value: float) -> None:
        """Insert or overwrite one measurement."""
        pt = self.space.as_point(point)
        if not self.space.contains(pt):
            raise ValueError(f"point {pt!r} is not admissible")
        if not np.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        if self._frozen_points is not None:
            self._materialize()
        self._entries[tuple(pt)] = float(value)
        self._tree = None
        self._values_cache = None
        self._memo.clear()

    def _materialize(self) -> None:
        """Copy array-mode entries into a private dict.

        Called before any mutation of an array-mode (read-only) database;
        the database then behaves exactly like one populated by ``add()``.
        """
        assert self._frozen_points is not None and self._frozen_values is not None
        _obs_emit("db.materialize", n_entries=int(self._frozen_values.size))
        self._entries = dict(
            zip(map(tuple, self._frozen_points.tolist()), self._frozen_values.tolist())
        )
        self._frozen_points = None
        self._frozen_values = None
        for seg in self._shm_segments:
            try:
                seg.close()
            except OSError:  # pragma: no cover - best effort
                pass
        self._shm_segments = ()
        self._tree = None
        self._values_cache = None

    @classmethod
    def from_function(
        cls,
        fn: Callable[[np.ndarray], float],
        space: ParameterSpace,
        *,
        fraction: float = 1.0,
        k_neighbors: int = 4,
        memo_size: int = 4096,
        rng: int | np.random.Generator | None = None,
    ) -> "PerformanceDatabase":
        """Populate from *fn* over a (sub)sample of the discrete lattice.

        ``fraction < 1`` keeps a uniformly random subset of lattice points,
        reproducing the paper's sparse-database setting where interpolation
        actually matters.

        One vectorized pass over :meth:`ParameterSpace.grid_array`, whose
        grid order is also the sorted row order :meth:`_arrays` returns, so
        the database keeps the arrays as they are (array mode) and neither
        the KD-tree nor the shared-memory export sorts again.  RNG contract:
        at ``fraction < 1`` the keep-mask is one ``gen.random(n)`` draw over
        the ``n`` lattice points, row *i* kept when its draw is below
        *fraction* — the same values and the same final generator state as
        one ``gen.random()`` per point in grid order; ``fraction == 1``
        draws nothing.  Kept rows are priced with one ``fn.batch`` call
        when *fn* has one (it must be bitwise equal to calling *fn* per
        row), otherwise with *fn* per row in grid order.  The result equals
        ``add()`` of every kept point in grid order.
        """
        if not (0.0 < fraction <= 1.0):
            raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
        gen = as_generator(rng)
        pts = space.grid_array()
        if fraction < 1.0:
            pts = pts[gen.random(pts.shape[0]) < fraction]
        if pts.shape[0] == 0:
            raise ValueError("sampling produced an empty database; raise fraction")
        batch = getattr(fn, "batch", None)
        if batch is not None:
            vals = np.asarray(batch(pts), dtype=float)
        else:
            vals = np.array([float(fn(pt)) for pt in pts], dtype=float)
        inadmissible = ~space.contains_batch(pts)
        if inadmissible.any():
            pt = pts[int(np.argmax(inadmissible))]
            raise ValueError(f"point {pt!r} is not admissible")
        finite = np.isfinite(vals)
        if not finite.all():
            value = float(vals[int(np.argmin(finite))])
            raise ValueError(f"value must be finite, got {value}")
        pts.setflags(write=False)
        vals.setflags(write=False)
        db = cls(space, k_neighbors=k_neighbors, memo_size=memo_size)
        db._frozen_points = pts
        db._frozen_values = vals
        return db

    @classmethod
    def from_mapping(
        cls,
        entries: Mapping[tuple[float, ...], float],
        space: ParameterSpace,
        *,
        k_neighbors: int = 4,
        memo_size: int = 4096,
    ) -> "PerformanceDatabase":
        """Populate from explicit ``{config_tuple: cost}`` measurements."""
        db = cls(space, k_neighbors=k_neighbors, memo_size=memo_size)
        for pt, value in entries.items():
            db.add(np.asarray(pt, dtype=float), value)
        return db

    def __len__(self) -> int:
        if self._frozen_values is not None:
            return int(self._frozen_values.size)
        return len(self._entries)

    @property
    def is_shared(self) -> bool:
        """True while entries live in another process's shared-memory export."""
        return bool(self._shm_segments)

    # -- lookup ----------------------------------------------------------------------

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stored (points, values) as arrays, rows sorted by configuration."""
        if self._frozen_points is not None:
            assert self._frozen_values is not None
            return self._frozen_points, self._frozen_values
        pts = np.array(sorted(self._entries.keys()), dtype=float)
        vals = np.array([self._entries[tuple(p)] for p in pts], dtype=float)
        return pts, vals

    def _index(self) -> tuple[cKDTree, np.ndarray]:
        """Lazy KD-tree over bounds-normalized stored points."""
        if self._tree is None:
            pts, vals = self._arrays()
            self._tree = cKDTree(self.space.normalize_batch(pts))
            self._values_cache = vals
        assert self._values_cache is not None
        return self._tree, self._values_cache

    def lookup(self, point: Sequence[float]) -> float | None:
        """Exact-match value, or None when the configuration was never stored."""
        pt = self.space.as_point(point)
        if self._frozen_points is not None:
            if self._frozen_values.size == 0:  # pragma: no cover - empty export
                return None
            tree, vals = self._index()
            d, idx = tree.query(self.space.normalize(pt), k=1)
            # Normalization is injective on admissible points, so distance 0
            # in normalized space is equivalent to an exact dict hit.
            return float(vals[int(idx)]) if float(d) == 0.0 else None
        return self._entries.get(tuple(pt))

    def interpolate(self, point: Sequence[float]) -> float:
        """Inverse-distance-weighted average of the k nearest stored entries."""
        if len(self) == 0:
            raise ValueError("cannot interpolate from an empty database")
        tree, vals = self._index()
        q = self.space.normalize(self.space.as_point(point))
        k = min(self.k_neighbors, vals.size)
        d, idx = tree.query(q, k=k)
        d = np.atleast_1d(np.asarray(d, dtype=float))
        idx = np.atleast_1d(np.asarray(idx, dtype=int))
        if np.any(d == 0.0):
            return float(vals[idx[d == 0.0][0]])
        return weighted_average(vals[idx], 1.0 / d)

    def __call__(self, point: Sequence[float]) -> float:
        """Exact hit if stored, otherwise interpolated — the tuner objective."""
        key = (
            np.asarray(point, dtype=float).tobytes() if self.memo_size else None
        )
        if key is not None:
            hit = self._memo.get(key)
            if hit is not None:
                self._memo.move_to_end(key)
                value, was_exact = hit
                self.n_memo_hits += 1
                if was_exact:
                    self.n_exact += 1
                else:
                    self.n_interpolated += 1
                return value
        exact = self.lookup(point)
        if exact is not None:
            self.n_exact += 1
            value, was_exact = exact, True
        else:
            self.n_interpolated += 1
            value, was_exact = self.interpolate(point), False
        if key is not None:
            self._memo[key] = (value, was_exact)
            if len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)
        return value

    def evaluate_batch(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """Vectorized :meth:`__call__` over an ``(m, N)`` batch of points.

        Repeated queries are answered from the memo (keyed exactly like the
        scalar path, so scalar and batched calls share one cache); one
        KD-tree query then answers all remaining rows at once.  Exact rows
        (distance 0 in normalized space) return the stored value, the rest
        inverse-distance interpolate.  Values and counter increments are
        bitwise identical to calling the database point-by-point; only the
        memo's internal recency order may differ (hits are touched before
        misses are inserted), which cannot affect any returned value.
        """
        pts = self.space.as_batch(points)
        m = pts.shape[0]
        if m == 0:
            return np.empty(0, dtype=float)
        if len(self) == 0:
            raise ValueError("cannot interpolate from an empty database")
        out = np.empty(m, dtype=float)
        keys: list[bytes] | None = None
        if self.memo_size:
            keys = [row.tobytes() for row in pts]
            miss: list[int] = []
            n_hit_exact = 0
            for i, key in enumerate(keys):
                hit = self._memo.get(key)
                if hit is None:
                    miss.append(i)
                    continue
                self._memo.move_to_end(key)
                value, was_exact = hit
                out[i] = value
                n_hit_exact += was_exact
            n_hits = m - len(miss)
            self.n_memo_hits += n_hits
            self.n_exact += n_hit_exact
            self.n_interpolated += n_hits - n_hit_exact
            if not miss:
                return out
            rows = np.asarray(miss, dtype=int)
            sub = pts[rows]
        else:
            miss = []
            rows = np.arange(m)
            sub = pts
        tree, vals = self._index()
        k = min(self.k_neighbors, vals.size)
        d, idx = tree.query(self.space.normalize_batch(sub), k=k)
        r = rows.size
        d = np.asarray(d, dtype=float).reshape(r, k)
        idx = np.asarray(idx, dtype=int).reshape(r, k)
        res = np.empty(r, dtype=float)
        exact = d[:, 0] == 0.0  # query distances sort ascending
        res[exact] = vals[idx[exact, 0]]
        interp = np.nonzero(~exact)[0]
        if interp.size:
            neigh_vals = vals[idx[interp]]
            weights = 1.0 / d[interp]
            for j, row in enumerate(interp):
                # np.dot per row keeps the accumulation order of the scalar
                # path's weighted_average (a matrix product could differ in
                # the last ulp); the degenerate-weight fallback is inlined
                w = weights[j]
                total = float(w.sum())
                if total <= 0.0 or not math.isfinite(total):
                    res[row] = float(neigh_vals[j].mean())
                else:
                    res[row] = float(np.dot(neigh_vals[j], w) / total)
        n_exact = int(np.count_nonzero(exact))
        self.n_exact += n_exact
        self.n_interpolated += r - n_exact
        out[rows] = res
        if keys is not None:
            for j, i in enumerate(miss):
                self._memo[keys[i]] = (float(res[j]), bool(exact[j]))
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)
        return out

    def cache_stats(self) -> dict[str, int]:
        """Memo/lookup effectiveness counters for diagnostics."""
        return {
            "n_exact": self.n_exact,
            "n_interpolated": self.n_interpolated,
            "n_memo_hits": self.n_memo_hits,
            "memo_len": len(self._memo),
        }

    def coverage(self) -> float:
        """Fraction of the lattice present in the database (discrete spaces)."""
        return len(self) / self.space.n_points()

    def top_entries(self, n: int) -> list[tuple[np.ndarray, float]]:
        """The *n* best (lowest-cost) stored measurements, best first."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if self._frozen_points is not None:
            order = np.argsort(self._frozen_values, kind="stable")[:n]
            return [
                (self._frozen_points[i].copy(), float(self._frozen_values[i]))
                for i in order
            ]
        ranked = sorted(self._entries.items(), key=lambda kv: kv[1])
        return [
            (np.asarray(point, dtype=float), value)
            for point, value in ranked[:n]
        ]

    # -- pickling / shared-memory broadcast --------------------------------------

    def __getstate__(self) -> dict:
        """Pickle without caches; export entry arrays via shared memory.

        Inside an active :func:`repro._shm.broadcasting` context (the
        process executor's worker-startup pickle), databases above
        ``SHM_MIN_ENTRIES`` swap their entries for shared-memory descriptors
        so the pickle stays a few hundred bytes and workers attach zero-copy
        views.  Outside a broadcast — or when shared memory is unavailable —
        the entries pickle as they are stored (dict or arrays).
        """
        state = self.__dict__.copy()
        # Rebuilt lazily on the receiving side; never worth shipping.
        state["_tree"] = None
        state["_values_cache"] = None
        state["_memo"] = OrderedDict()
        state["_shm_segments"] = ()
        broadcast = _shm.active_broadcast()
        if broadcast is not None and len(self) >= SHM_MIN_ENTRIES:
            try:
                pts, vals = self._arrays()
                specs = (broadcast.export_array(pts), broadcast.export_array(vals))
            except OSError:  # /dev/shm unavailable or full
                specs = None
            if specs is not None:
                state["_shm_specs"] = specs
                state["_entries"] = {}
                state["_frozen_points"] = None
                state["_frozen_values"] = None
                return state
        # Without a broadcast the arrays (even views of an attached export)
        # pickle their data, so the copy is self-contained.
        return state

    def __setstate__(self, state: dict) -> None:
        specs = state.pop("_shm_specs", None)
        self.__dict__.update(state)
        if specs is not None:
            pts, seg_p = _shm.attach_array(specs[0])
            vals, seg_v = _shm.attach_array(specs[1])
            self._frozen_points = pts
            self._frozen_values = vals
            self._shm_segments = (seg_p, seg_v)
            _obs_emit(
                "shm.attach",
                nbytes=int(pts.nbytes + vals.nbytes),
                n_entries=int(vals.size),
            )
