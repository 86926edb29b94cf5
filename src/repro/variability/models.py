"""Pluggable noise models for the evaluation substrate.

Every model maps a noise-free cost ``f`` to an *observed* cost
``y = f + n`` with ``n >= 0``, and carries its idle throughput ``rho`` so
that Normalized Total Time (Eq. 23) is always computable.  Models whose mean
noise follows the two-job model satisfy ``E[y] = f/(1-ρ)`` (Eq. 6).

The models are deliberately conditional on ``f``: under Eq. (17) the Pareto
scale β grows linearly with f, so expensive configurations are *also* the
noisiest — the coupling that defeats naive averaging and that the min
operator is designed for.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro._util import as_generator, check_nonnegative, check_positive, check_probability
from repro.variability.pareto import ParetoDistribution
from repro.variability.twojob import pareto_beta_for

__all__ = [
    "NoiseModel",
    "NoNoise",
    "ParetoNoise",
    "TruncatedParetoNoise",
    "GaussianNoise",
    "ExponentialNoise",
    "SpikeMixtureNoise",
]


class NoiseModel(ABC):
    """Maps noise-free costs to observed costs (y = f + n, n >= 0)."""

    #: idle system throughput ρ consumed by the variability source.
    rho: float = 0.0

    @abstractmethod
    def sample_noise(
        self, f: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one noise value n(v) >= 0 for each noise-free cost in *f*."""

    def observe(
        self, f: float, rng: int | np.random.Generator | None = None
    ) -> float:
        """One observed cost y = f + n for a scalar noise-free cost."""
        gen = as_generator(rng)
        arr = np.asarray([float(f)], dtype=float)
        return float(arr[0] + self.sample_noise(arr, gen)[0])

    def observe_batch(
        self,
        f: np.ndarray,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Observed costs for a batch of noise-free costs (vectorized)."""
        gen = as_generator(rng)
        arr = np.asarray(f, dtype=float)
        flat = arr.ravel()
        out = flat + self.sample_noise(flat, gen)
        return out.reshape(arr.shape)

    def observe_waves(
        self, f: np.ndarray, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Observed costs of successive waves of noise-free costs *f*.

        Wave *i* is ``f[starts[i]:starts[i + 1]]`` (the last runs to the
        end).  RNG contract: the result, and *rng*'s state afterwards, equal
        one :meth:`observe_batch` call per wave, in order.  This base
        version makes exactly those calls, so any model is correct here;
        models whose draws may be concatenated (one vectorized draw over all
        waves consumes the generator exactly as one draw per wave) override
        it with a single draw.
        """
        bounds = [*starts.tolist(), f.size]
        return np.concatenate(
            [self.observe_batch(f[a:b], rng) for a, b in zip(bounds, bounds[1:])]
        )

    def expected_observed(self, f: float | np.ndarray) -> float | np.ndarray:
        """E[y] under this model; default is the two-job Eq. (6)."""
        return np.asarray(f, dtype=float) / (1.0 - self.rho)

    def n_min(self, f: float | np.ndarray) -> float | np.ndarray:
        """Smallest attainable noise for cost f (the min-operator floor)."""
        return np.zeros_like(np.asarray(f, dtype=float))


class NoNoise(NoiseModel):
    """Perfect measurements: y = f.  ρ = 0."""

    rho = 0.0

    def sample_noise(self, f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.zeros_like(f)

    def observe_waves(
        self, f: np.ndarray, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One vectorized draw (none from *rng*); see the base contract."""
        return f + self.sample_noise(f, rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NoNoise()"


class ParetoNoise(NoiseModel):
    """The paper's §6.2 noise: n(v) ~ Pareto(α, β(f)) with β from Eq. (17).

    Default α = 1.7 as in the paper — heavy-tailed with finite mean and
    infinite variance.  ρ = 0 degenerates to NoNoise behaviour.
    """

    def __init__(self, rho: float, alpha: float = 1.7) -> None:
        self.rho = check_probability("rho", rho)
        self.alpha = check_positive("alpha", alpha)
        if alpha <= 1.0:
            raise ValueError(
                "ParetoNoise requires alpha > 1 so Eq. (17) has a finite-mean match; "
                f"got alpha={alpha}"
            )
        # Constants of Eq. (17), hoisted out of the per-wave hot path; the
        # expressions match pareto_beta_for / the pow exponent exactly, so
        # samples are unchanged bit for bit.
        self._beta_coeff = (alpha - 1.0) * rho / ((1.0 - rho) * alpha)
        self._neg_inv_alpha = -1.0 / alpha

    def _beta(self, f: np.ndarray) -> np.ndarray:
        return self._beta_coeff * np.asarray(f, dtype=float)

    def sample_noise(self, f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.rho == 0.0:
            return np.zeros_like(f)
        beta = self._beta(f)
        u = rng.random(f.shape)
        return beta * (1.0 - u) ** self._neg_inv_alpha

    def observe_waves(
        self, f: np.ndarray, starts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One vectorized draw of uniforms for every wave, which consumes
        *rng* exactly as one draw per wave (elementwise noise, so the
        truncated subclass qualifies too); see the base contract."""
        return f + self.sample_noise(f, rng)

    def n_min(self, f: float | np.ndarray) -> float | np.ndarray:
        if self.rho == 0.0:
            return np.zeros_like(np.asarray(f, dtype=float))
        return pareto_beta_for(f, self.alpha, self.rho)

    def distribution_for(self, f: float) -> ParetoDistribution | None:
        """The noise law at a specific cost level, or None when ρ = 0."""
        if self.rho == 0.0:
            return None
        return ParetoDistribution(self.alpha, float(self._beta(np.asarray(f))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParetoNoise(rho={self.rho}, alpha={self.alpha})"


class TruncatedParetoNoise(ParetoNoise):
    """Pareto noise capped at ``cap_factor × f`` — a light(er)-tailed control.

    Truncation restores finite variance, so this model is the natural foil
    for ablations: the average operator works here, and the min operator
    should not lose much.  The mean no longer exactly matches Eq. (7).
    """

    def __init__(self, rho: float, alpha: float = 1.7, cap_factor: float = 5.0) -> None:
        super().__init__(rho, alpha)
        self.cap_factor = check_positive("cap_factor", cap_factor)

    def sample_noise(self, f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raw = super().sample_noise(f, rng)
        return np.minimum(raw, self.cap_factor * f)

    def expected_observed(self, f: float | np.ndarray) -> float | np.ndarray:
        raise NotImplementedError(
            "truncated Pareto noise has no simple closed-form mean; "
            "estimate it empirically"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TruncatedParetoNoise(rho={self.rho}, alpha={self.alpha}, "
            f"cap_factor={self.cap_factor})"
        )


class GaussianNoise(NoiseModel):
    """Light-tailed control: n ~ max(0, Normal(μ(f), σ(f))).

    The mean is matched to the two-job model (μ = ρ/(1-ρ)·f) and the
    standard deviation is ``cv × μ``.  Under this model averaging is optimal
    and the min operator pays a small bias — the other half of the
    estimator ablation.
    """

    def __init__(self, rho: float, cv: float = 0.25) -> None:
        self.rho = check_probability("rho", rho)
        self.cv = check_nonnegative("cv", cv)

    def sample_noise(self, f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.rho == 0.0:
            return np.zeros_like(f)
        mu = self.rho / (1.0 - self.rho) * f
        sigma = self.cv * mu
        return np.maximum(0.0, rng.normal(mu, sigma))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GaussianNoise(rho={self.rho}, cv={self.cv})"


class ExponentialNoise(NoiseModel):
    """Memoryless control: n ~ Exp(mean = ρ/(1-ρ)·f).

    Matches Eq. (7) exactly; light-tailed (all moments finite); its minimum
    floor n_min is 0 rather than β > 0.
    """

    def __init__(self, rho: float) -> None:
        self.rho = check_probability("rho", rho)

    def sample_noise(self, f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.rho == 0.0:
            return np.zeros_like(f)
        mean = self.rho / (1.0 - self.rho) * f
        return rng.exponential(mean)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExponentialNoise(rho={self.rho})"


class SpikeMixtureNoise(NoiseModel):
    """Two-population spike model matching the GS2 trace morphology (Fig. 3).

    The paper's traces show *two distinct spike types*: frequent small spikes
    and rare big spikes, both with heavy-tailed magnitude.  Each iteration:

    * with probability ``p_small`` add a small spike ~ Pareto(α_small, β_small·f);
    * with probability ``p_big`` add a big spike ~ Pareto(α_big, β_big·f);
    * always add a light Gaussian jitter of scale ``jitter × f``.

    ``rho`` reports the resulting mean capacity share for NTT bookkeeping
    (computed from the mixture means).
    """

    def __init__(
        self,
        *,
        p_small: float = 0.10,
        alpha_small: float = 1.5,
        beta_small: float = 0.05,
        p_big: float = 0.01,
        alpha_big: float = 1.2,
        beta_big: float = 1.0,
        jitter: float = 0.01,
    ) -> None:
        self.p_small = check_probability("p_small", p_small)
        self.p_big = check_probability("p_big", p_big)
        self.alpha_small = check_positive("alpha_small", alpha_small)
        self.alpha_big = check_positive("alpha_big", alpha_big)
        self.beta_small = check_positive("beta_small", beta_small)
        self.beta_big = check_positive("beta_big", beta_big)
        self.jitter = check_nonnegative("jitter", jitter)
        if self.alpha_small <= 1.0 or self.alpha_big <= 1.0:
            raise ValueError("spike shapes must exceed 1 so mean load is finite")
        mean_n_over_f = (
            self.p_small * self.beta_small * self.alpha_small / (self.alpha_small - 1.0)
            + self.p_big * self.beta_big * self.alpha_big / (self.alpha_big - 1.0)
        )
        # E[y] = f (1 + m)  =>  1/(1-rho) = 1 + m.
        self.rho = mean_n_over_f / (1.0 + mean_n_over_f)

    def sample_noise(self, f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = np.abs(rng.normal(0.0, self.jitter, f.shape)) * f
        small_hit = rng.random(f.shape) < self.p_small
        big_hit = rng.random(f.shape) < self.p_big
        if np.any(small_hit):
            u = rng.random(int(small_hit.sum()))
            n[small_hit] += (
                self.beta_small * f[small_hit] * (1.0 - u) ** (-1.0 / self.alpha_small)
            )
        if np.any(big_hit):
            u = rng.random(int(big_hit.sum()))
            n[big_hit] += (
                self.beta_big * f[big_hit] * (1.0 - u) ** (-1.0 / self.alpha_big)
            )
        return n

    def expected_observed(self, f: float | np.ndarray) -> float | np.ndarray:
        return np.asarray(f, dtype=float) / (1.0 - self.rho)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpikeMixtureNoise(p_small={self.p_small}, p_big={self.p_big}, "
            f"rho={self.rho:.4f})"
        )
