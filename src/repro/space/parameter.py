"""Single tunable-parameter declarations.

The paper (§3.2.1) distinguishes two constraint kinds:

* **boundary constraints** — upper/lower limits, handled by clipping;
* **internal discontinuity constraints** — parameters restricted to a discrete
  admissible set, handled by rounding *toward the transformation centre*
  ``v_k^0``: a computed value strictly between two consecutive admissible
  values ``l < x < u`` projects to ``l`` when the centre lies below ``x`` and
  to ``u`` when the centre lies above.  This choice guarantees that a finite
  number of consecutive shrink steps collapses every discrete coordinate onto
  the centre, which the stopping criterion (§3.2.2) relies on.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro._util import as_generator

__all__ = ["Parameter", "IntParameter", "FloatParameter", "OrdinalParameter"]


class Parameter(ABC):
    """A named tunable parameter with an admissible set of numeric values."""

    def __init__(self, name: str, lower: float, upper: float) -> None:
        if not name:
            raise ValueError("parameter name must be non-empty")
        if not (np.isfinite(lower) and np.isfinite(upper)):
            raise ValueError(f"{name}: bounds must be finite, got [{lower}, {upper}]")
        if lower > upper:
            raise ValueError(f"{name}: lower bound {lower} exceeds upper bound {upper}")
        self.name = name
        self.lower = float(lower)
        self.upper = float(upper)

    # -- admissibility -----------------------------------------------------

    @property
    @abstractmethod
    def is_discrete(self) -> bool:
        """True when the admissible set is a finite set of values."""

    @abstractmethod
    def contains(self, x: float) -> bool:
        """True when *x* is an admissible value of this parameter."""

    @abstractmethod
    def nearest(self, x: float) -> float:
        """The admissible value closest to *x* (ties resolve downward)."""

    @abstractmethod
    def project(self, x: float, center: float) -> float:
        """Project *x* onto the admissible set, rounding toward *center*.

        *center* must itself be admissible (it is a simplex vertex); violations
        raise ``ValueError`` so geometry bugs surface early.
        """

    # -- structure ---------------------------------------------------------

    @abstractmethod
    def lower_neighbor(self, x: float) -> float | None:
        """Largest admissible value strictly below admissible *x*, or None."""

    @abstractmethod
    def upper_neighbor(self, x: float) -> float | None:
        """Smallest admissible value strictly above admissible *x*, or None."""

    @abstractmethod
    def random(self, rng: int | np.random.Generator | None = None) -> float:
        """A uniformly random admissible value."""

    @property
    def span(self) -> float:
        """Width ``u(i) - l(i)`` of the declared range (Eq. for b_i, §3.2.3)."""
        return self.upper - self.lower

    def center(self) -> float:
        """Admissible value nearest to the midpoint of the declared range."""
        return self.nearest(0.5 * (self.lower + self.upper))

    def clip(self, x: float) -> float:
        """Clip *x* to the declared bounds (boundary constraints only)."""
        return float(min(max(x, self.lower), self.upper))

    def _require_admissible(self, x: float, role: str) -> None:
        if not self.contains(x):
            raise ValueError(
                f"{self.name}: {role} value {x!r} is not admissible"
            )

    # -- vectorized counterparts --------------------------------------------
    #
    # The batch methods must agree bitwise with their scalar versions: the
    # sweep engine's executor-invariance contract compares results to the
    # last ulp, so subclasses may only vectorize with elementwise-identical
    # operations.  The fallbacks below just loop.

    def contains_array(self, xs: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`contains` over a 1-D array of values."""
        arr = np.asarray(xs, dtype=float)
        return np.fromiter(
            (self.contains(float(x)) for x in arr), dtype=bool, count=arr.size
        )

    def project_array(self, xs: Sequence[float], center: float) -> np.ndarray:
        """Vectorized :meth:`project` of many values toward one *center*."""
        arr = np.asarray(xs, dtype=float)
        return np.array([self.project(float(x), center) for x in arr], dtype=float)

    def project_unchecked(self, x: float, center: float) -> float:
        """:meth:`project` for a centre already known to be admissible.

        Batch projections validate each centre coordinate once per column
        and then call this per row, instead of re-validating the same
        centre for every row.  Values are identical to :meth:`project`.
        """
        return self.project(x, center)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, [{self.lower}, {self.upper}])"


class FloatParameter(Parameter):
    """A continuous parameter on ``[lower, upper]``.

    ``probe_step`` is the "sufficiently small" perturbation the stopping
    criterion (§3.2.2) uses for continuous coordinates; ``tolerance`` is the
    vertex-coincidence threshold used to decide the simplex has collapsed.
    """

    def __init__(
        self,
        name: str,
        lower: float,
        upper: float,
        *,
        probe_step: float | None = None,
        tolerance: float | None = None,
    ) -> None:
        super().__init__(name, lower, upper)
        if self.span <= 0:
            raise ValueError(f"{name}: continuous parameter needs a non-empty range")
        self.probe_step = float(probe_step) if probe_step is not None else 0.01 * self.span
        self.tolerance = float(tolerance) if tolerance is not None else 1e-6 * self.span
        if self.probe_step <= 0:
            raise ValueError(f"{name}: probe_step must be positive")
        if self.tolerance <= 0:
            raise ValueError(f"{name}: tolerance must be positive")

    @property
    def is_discrete(self) -> bool:
        return False

    def contains(self, x: float) -> bool:
        return math.isfinite(x) and self.lower <= x <= self.upper

    def nearest(self, x: float) -> float:
        return self.clip(x)

    def project(self, x: float, center: float) -> float:
        self._require_admissible(center, "projection centre")
        return self.clip(x)

    def project_unchecked(self, x: float, center: float) -> float:
        return self.clip(x)

    def lower_neighbor(self, x: float) -> float | None:
        self._require_admissible(x, "query")
        candidate = x - self.probe_step
        if candidate < self.lower:
            # At (or within a probe step of) the boundary: §3.2.2 sets l_i = 0.
            return None if x <= self.lower else self.lower
        return candidate

    def upper_neighbor(self, x: float) -> float | None:
        self._require_admissible(x, "query")
        candidate = x + self.probe_step
        if candidate > self.upper:
            return None if x >= self.upper else self.upper
        return candidate

    def random(self, rng: int | np.random.Generator | None = None) -> float:
        gen = as_generator(rng)
        return float(gen.uniform(self.lower, self.upper))

    def contains_array(self, xs: Sequence[float]) -> np.ndarray:
        arr = np.asarray(xs, dtype=float)
        return np.isfinite(arr) & (self.lower <= arr) & (arr <= self.upper)

    def project_array(self, xs: Sequence[float], center: float) -> np.ndarray:
        self._require_admissible(center, "projection centre")
        arr = np.asarray(xs, dtype=float)
        # The scalar ``min(max(x, lower), upper)`` chain in
        # :meth:`Parameter.clip` keeps x unless a bound compares strictly
        # past it, so NaN and a -0.0 at a 0.0 bound pass through unchanged;
        # np.maximum would turn that -0.0 into 0.0.
        arr = np.where(self.lower > arr, self.lower, arr)
        return np.where(self.upper < arr, self.upper, arr)


class IntParameter(Parameter):
    """An integer-valued parameter: ``lower, lower+step, ..., <= upper``."""

    def __init__(self, name: str, lower: int, upper: int, *, step: int = 1) -> None:
        if step <= 0:
            raise ValueError(f"{name}: step must be a positive integer, got {step}")
        if int(lower) != lower or int(upper) != upper or int(step) != step:
            raise ValueError(f"{name}: integer parameter needs integer bounds/step")
        super().__init__(name, float(lower), float(upper))
        self.step = int(step)
        self._count = int(math.floor((self.upper - self.lower) / self.step)) + 1
        if self._count < 1:
            raise ValueError(f"{name}: empty admissible set")
        # Highest admissible value (declared upper may not be on the lattice).
        self.upper_admissible = self.lower + (self._count - 1) * self.step

    @property
    def is_discrete(self) -> bool:
        return True

    @property
    def n_values(self) -> int:
        """Number of admissible values."""
        return self._count

    def values(self) -> np.ndarray:
        """All admissible values in increasing order."""
        return self.lower + self.step * np.arange(self._count, dtype=float)

    def _index_of(self, x: float) -> int | None:
        """Lattice index of admissible *x*, or None when off-lattice."""
        k = (x - self.lower) / self.step
        ki = round(k)
        if 0 <= ki < self._count and math.isclose(k, ki, abs_tol=1e-9):
            return ki
        return None

    def contains(self, x: float) -> bool:
        x = float(x)
        return math.isfinite(x) and self._index_of(x) is not None

    def nearest(self, x: float) -> float:
        k = (self.clip(x) - self.lower) / self.step
        ki = min(max(int(math.floor(k + 0.5)), 0), self._count - 1)
        return self.lower + ki * self.step

    def project(self, x: float, center: float) -> float:
        self._require_admissible(center, "projection centre")
        return self.project_unchecked(x, center)

    def project_unchecked(self, x: float, center: float) -> float:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"{self.name}: cannot project non-finite value {x!r}")
        if x <= self.lower:
            return self.lower
        if x >= self.upper_admissible:
            return self.upper_admissible
        idx = self._index_of(x)
        if idx is not None:
            return self.lower + idx * self.step  # snap exact-lattice floats
        lo = self.lower + math.floor((x - self.lower) / self.step) * self.step
        hi = lo + self.step
        # Round toward the transformation centre (§3.2.1).
        if center < x:
            return lo
        if center > x:
            return hi
        # centre == x is impossible for admissible centre and inadmissible x,
        # but floating arithmetic can get here; fall back to nearest.
        return self.nearest(x)

    def lower_neighbor(self, x: float) -> float | None:
        self._require_admissible(x, "query")
        idx = self._index_of(float(x))
        assert idx is not None
        return None if idx == 0 else self.lower + (idx - 1) * self.step

    def upper_neighbor(self, x: float) -> float | None:
        self._require_admissible(x, "query")
        idx = self._index_of(float(x))
        assert idx is not None
        if idx == self._count - 1:
            return None
        return self.lower + (idx + 1) * self.step

    def random(self, rng: int | np.random.Generator | None = None) -> float:
        gen = as_generator(rng)
        return float(self.lower + self.step * gen.integers(0, self._count))


# Elementwise kernels of the IntParameter lattice rules over a block of
# IntParameter columns: the lattice arguments are per-column arrays that
# broadcast over the rows.  ParameterSpace prices all its IntParameter
# columns in one pass with them.


def _int_lattice(arr, lower, step, count) -> tuple[np.ndarray, np.ndarray]:
    """(on-lattice mask, lattice coordinate k) mirroring `_index_of`."""
    k = (arr - lower) / step
    ki = np.round(k)  # banker's rounding, same as the scalar round()
    # math.isclose(k, ki, abs_tol=1e-9) with its default rel_tol=1e-9:
    close = np.abs(k - ki) <= np.maximum(
        1e-9 * np.maximum(np.abs(k), np.abs(ki)), 1e-9
    )
    return (ki >= 0) & (ki < count) & close, k


def int_contains(arr: np.ndarray, lower, step, count) -> np.ndarray:
    """`IntParameter.contains`, elementwise."""
    finite = np.isfinite(arr)
    on, _ = _int_lattice(np.where(finite, arr, lower), lower, step, count)
    return finite & on


def int_project(arr: np.ndarray, lower, step, count, upper, center) -> np.ndarray:
    """`IntParameter.project_unchecked`, elementwise over finite *arr*
    (*upper* is the highest admissible value)."""
    # The in-range rules run on every element; clamping first keeps their
    # arithmetic finite and leaves the in-range elements unchanged.
    x = np.minimum(np.maximum(arr, lower), upper)
    on, k = _int_lattice(x, lower, step, count)
    # nearest() for in-range x: clip is a no-op, so floor(k + 0.5)
    near = lower + np.clip(np.floor(k + 0.5), 0, count - 1) * step
    lo = lower + np.floor(k) * step
    toward = np.where(center < x, lo, np.where(center > x, lo + step, near))
    inside = np.where(on, near, toward)
    return np.where(arr <= lower, lower, np.where(arr >= upper, upper, inside))


class OrdinalParameter(Parameter):
    """A parameter restricted to an explicit, ordered set of numeric values.

    Typical use: node counts restricted to powers of two, or block sizes the
    library ships kernels for.  Projection rounds toward the transformation
    centre exactly as for :class:`IntParameter`, but against the explicit set.
    """

    #: adjacent admissible values must differ by more than this tolerance —
    #: membership tests use it, so closer values would be indistinguishable
    MATCH_TOLERANCE = 1e-9

    def __init__(self, name: str, values: Sequence[float]) -> None:
        vals = np.asarray(sorted(float(v) for v in values), dtype=float)
        if vals.size < 1:
            raise ValueError(f"{name}: ordinal parameter needs at least one value")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name}: all values must be finite")
        if vals.size > 1 and np.min(np.diff(vals)) <= self.MATCH_TOLERANCE:
            raise ValueError(
                f"{name}: admissible values closer than {self.MATCH_TOLERANCE} "
                "are indistinguishable (duplicates after tolerance)"
            )
        super().__init__(name, float(vals[0]), float(vals[-1]))
        self._values = vals

    @property
    def is_discrete(self) -> bool:
        return True

    @property
    def n_values(self) -> int:
        return int(self._values.size)

    def values(self) -> np.ndarray:
        return self._values.copy()

    def _index_of(self, x: float) -> int | None:
        idx = int(np.searchsorted(self._values, x))
        for k in (idx - 1, idx):
            if 0 <= k < self._values.size and math.isclose(
                self._values[k], x, rel_tol=0.0, abs_tol=self.MATCH_TOLERANCE
            ):
                return k
        return None

    def contains(self, x: float) -> bool:
        x = float(x)
        return math.isfinite(x) and self._index_of(x) is not None

    def nearest(self, x: float) -> float:
        x = self.clip(x)
        idx = int(np.searchsorted(self._values, x))
        if idx == 0:
            return float(self._values[0])
        if idx >= self._values.size:
            return float(self._values[-1])
        lo, hi = self._values[idx - 1], self._values[idx]
        return float(lo if (x - lo) <= (hi - x) else hi)

    def project(self, x: float, center: float) -> float:
        self._require_admissible(center, "projection centre")
        return self.project_unchecked(x, center)

    def project_unchecked(self, x: float, center: float) -> float:
        if not math.isfinite(x):
            raise ValueError(f"{self.name}: cannot project non-finite value {x!r}")
        if x <= self._values[0]:
            return float(self._values[0])
        if x >= self._values[-1]:
            return float(self._values[-1])
        exact = self._index_of(float(x))
        if exact is not None:
            return float(self._values[exact])
        idx = int(np.searchsorted(self._values, x))
        lo, hi = float(self._values[idx - 1]), float(self._values[idx])
        if center < x:
            return lo
        if center > x:
            return hi
        return self.nearest(x)

    def lower_neighbor(self, x: float) -> float | None:
        self._require_admissible(x, "query")
        idx = self._index_of(float(x))
        assert idx is not None
        return None if idx == 0 else float(self._values[idx - 1])

    def upper_neighbor(self, x: float) -> float | None:
        self._require_admissible(x, "query")
        idx = self._index_of(float(x))
        assert idx is not None
        if idx == self._values.size - 1:
            return None
        return float(self._values[idx + 1])

    def random(self, rng: int | np.random.Generator | None = None) -> float:
        gen = as_generator(rng)
        return float(gen.choice(self._values))

    def contains_array(self, xs: Sequence[float]) -> np.ndarray:
        arr = np.asarray(xs, dtype=float)
        finite = np.isfinite(arr)
        safe = np.where(finite, arr, self._values[0])
        idx = np.searchsorted(self._values, safe)
        out = np.zeros(arr.shape, dtype=bool)
        for off in (-1, 0):  # the two candidates `_index_of` inspects
            k = idx + off
            valid = (k >= 0) & (k < self._values.size)
            kk = np.clip(k, 0, self._values.size - 1)
            out |= valid & (np.abs(self._values[kk] - safe) <= self.MATCH_TOLERANCE)
        return finite & out

    def project_array(self, xs: Sequence[float], center: float) -> np.ndarray:
        self._require_admissible(center, "projection centre")
        arr = np.asarray(xs, dtype=float)
        if not np.all(np.isfinite(arr)):
            bad = float(arr[~np.isfinite(arr)][0])
            raise ValueError(f"{self.name}: cannot project non-finite value {bad!r}")
        vals = self._values
        out = np.empty(arr.shape, dtype=float)
        below = arr <= vals[0]
        above = arr >= vals[-1]
        out[below] = vals[0]
        out[above] = vals[-1]
        mid = ~(below | above)
        if np.any(mid):
            xm = arr[mid]
            idx = np.searchsorted(vals, xm)  # strictly interior: 1 <= idx < size
            lo = vals[idx - 1]
            hi = vals[idx]
            near = np.where((xm - lo) <= (hi - xm), lo, hi)
            on = (np.abs(lo - xm) <= self.MATCH_TOLERANCE) | (
                np.abs(hi - xm) <= self.MATCH_TOLERANCE
            )
            c = float(center)
            toward = np.where(c < xm, lo, np.where(c > xm, hi, near))
            out[mid] = np.where(on, near, toward)
        return out
