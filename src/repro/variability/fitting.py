"""Fitting candidate distributions to measured iteration times (§4.2).

The paper asks "it is important to figure out if the performance
variability distribution is heavy tail" and answers with graphical
diagnostics (Figs. 4–7).  This module adds the quantitative companion:
maximum-likelihood fits of candidate families to the *excess* times
(observed minus the baseline), compared by AIC, so a trace can be
classified as Pareto-like (heavy) vs exponential/lognormal/Weibull-like
(light or moderate) with one call.

All likelihoods are for strictly positive samples; callers subtract the
baseline (e.g. the sample minimum = the noise-free cost estimate) first —
:func:`classify_excess` does this for you.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.stats takes about half a second to import and only the lognormal,
# Weibull and Lomax fits use it, so they import it on first use.

__all__ = ["FitResult", "fit_candidates", "classify_excess", "classify_tail"]

_EPS = 1e-12


@dataclass(frozen=True)
class FitResult:
    """One family's ML fit to a sample."""

    family: str
    params: dict[str, float]
    log_likelihood: float
    aic: float
    n: int

    @property
    def heavy_tailed(self) -> bool:
        """Heavy in the paper's Eq. 8 sense: a hyperbolic tail with α < 2.

        Pareto and Lomax (shifted Pareto / Pareto-II) qualify when their
        shape is below 2; the other families are light- or moderate-tailed
        by construction."""
        return self.family in ("pareto", "lomax") and self.params["alpha"] < 2.0


def _clean_positive(data: np.ndarray) -> np.ndarray:
    arr = np.asarray(data, dtype=float).ravel()
    arr = arr[np.isfinite(arr)]
    arr = arr[arr > 0]
    if arr.size < 10:
        raise ValueError(f"need at least 10 positive samples, got {arr.size}")
    return arr


def _fit_pareto(x: np.ndarray) -> FitResult:
    """Closed-form MLE: β̂ = min(x), α̂ = n / Σ ln(x/β̂)."""
    beta = float(x.min())
    logs = np.log(x / beta)
    s = float(logs.sum())
    n = x.size
    alpha = n / max(s, _EPS)
    ll = n * math.log(alpha) + n * alpha * math.log(beta) - (alpha + 1.0) * float(
        np.log(x).sum()
    )
    return FitResult(
        family="pareto",
        params={"alpha": alpha, "beta": beta},
        log_likelihood=ll,
        aic=2 * 2 - 2 * ll,
        n=n,
    )


def _fit_exponential(x: np.ndarray) -> FitResult:
    mean = float(x.mean())
    n = x.size
    ll = -n * math.log(mean) - n  # Σ(-ln μ - x/μ) with μ̂ = x̄
    return FitResult(
        family="exponential",
        params={"mean": mean},
        log_likelihood=ll,
        aic=2 * 1 - 2 * ll,
        n=n,
    )


def _fit_lognormal(x: np.ndarray) -> FitResult:
    from scipy import stats

    logs = np.log(x)
    mu = float(logs.mean())
    sigma = float(logs.std()) or _EPS
    n = x.size
    ll = float(stats.lognorm(s=sigma, scale=math.exp(mu)).logpdf(x).sum())
    return FitResult(
        family="lognormal",
        params={"mu": mu, "sigma": sigma},
        log_likelihood=ll,
        aic=2 * 2 - 2 * ll,
        n=n,
    )


def _fit_weibull(x: np.ndarray) -> FitResult:
    from scipy import stats

    shape, _, scale = stats.weibull_min.fit(x, floc=0.0)
    n = x.size
    ll = float(stats.weibull_min(c=shape, scale=scale).logpdf(x).sum())
    return FitResult(
        family="weibull",
        params={"shape": float(shape), "scale": float(scale)},
        log_likelihood=ll,
        aic=2 * 2 - 2 * ll,
        n=n,
    )


def _fit_lomax(x: np.ndarray) -> FitResult:
    """Lomax (Pareto-II): the law of a Pareto excess over its minimum.

    If n ~ Pareto(α, β), then n - β has CCDF (β/(x+β))^α — supported on
    (0, ∞) with the same tail index.  This is the right family for
    baseline-subtracted noise (excess-over-threshold data)."""
    from scipy import stats

    shape, _, scale = stats.lomax.fit(x, floc=0.0)
    n = x.size
    ll = float(stats.lomax(c=shape, scale=scale).logpdf(x).sum())
    return FitResult(
        family="lomax",
        params={"alpha": float(shape), "scale": float(scale)},
        log_likelihood=ll,
        aic=2 * 2 - 2 * ll,
        n=n,
    )


_FITTERS = {
    "pareto": _fit_pareto,
    "lomax": _fit_lomax,
    "exponential": _fit_exponential,
    "lognormal": _fit_lognormal,
    "weibull": _fit_weibull,
}

DEFAULT_FAMILIES = ("pareto", "lomax", "exponential", "lognormal", "weibull")


def fit_candidates(
    data: np.ndarray, families: tuple[str, ...] = DEFAULT_FAMILIES
) -> list[FitResult]:
    """ML-fit each candidate family; results sorted by AIC (best first)."""
    x = _clean_positive(data)
    unknown = set(families) - set(_FITTERS)
    if unknown:
        raise ValueError(f"unknown families {sorted(unknown)}; know {sorted(_FITTERS)}")
    results = [_FITTERS[f](x) for f in families]
    results.sort(key=lambda r: r.aic)
    return results


def classify_excess(
    observations: np.ndarray,
    *,
    baseline: float | None = None,
    families: tuple[str, ...] = DEFAULT_FAMILIES,
    min_relative_excess: float = 1e-6,
) -> list[FitResult]:
    """Fit the candidate families to the noise excess ``y - baseline``.

    ``baseline`` defaults to the sample minimum.  Note the statistics: if
    the noise is Pareto(α, β), the excess over the *minimum* is (almost) a
    Lomax(α, β) — supported at zero, not at β — which is why the Lomax
    family is in the default candidate set.  Supply ``baseline=f`` (the
    known noise-free cost) to fit the raw Pareto instead.

    Excesses below ``min_relative_excess × median(y)`` are dropped: they are
    indistinguishable from floating-point wobble around the baseline and a
    scale-free family like Pareto would otherwise latch onto them
    (β → machine epsilon, α → 0).
    """
    y = np.asarray(observations, dtype=float).ravel()
    y = y[np.isfinite(y)]
    if y.size < 20:
        raise ValueError(f"need at least 20 observations, got {y.size}")
    base = float(y.min()) if baseline is None else float(baseline)
    floor = min_relative_excess * float(np.median(np.abs(y)))
    excess = y - base
    excess = excess[excess > floor]
    if excess.size < 10:
        raise ValueError(
            "fewer than 10 positive excesses — the data look noise-free"
        )
    return fit_candidates(excess, families)


def classify_tail(
    data: np.ndarray,
    *,
    tail_fraction: float = 0.10,
    families: tuple[str, ...] = DEFAULT_FAMILIES,
) -> list[FitResult]:
    """Peaks-over-threshold classification of a sample's *tail*.

    Whole-sample AIC judges how well a family fits the distribution's body,
    which for mixtures (daemon + small spikes + big spikes) usually crowns
    lognormal regardless of the tail.  The paper's question — "is the
    variability heavy tailed?" — is about the tail, so this helper keeps
    only the top ``tail_fraction`` of the sample, subtracts the threshold
    (the classic POT construction: exceedances of a high threshold converge
    to a generalized-Pareto family, of which Lomax is the heavy branch),
    and fits the candidates to the exceedances.
    """
    if not (0.0 < tail_fraction < 1.0):
        raise ValueError(f"tail_fraction must lie in (0, 1), got {tail_fraction}")
    x = _clean_positive(data)
    threshold = float(np.quantile(x, 1.0 - tail_fraction))
    exceedances = x[x > threshold] - threshold
    if exceedances.size < 10:
        raise ValueError(
            f"only {exceedances.size} exceedances above the "
            f"{1 - tail_fraction:.0%} quantile; lower tail_fraction"
        )
    return fit_candidates(exceedances, families)
