"""Conjugate Gaussian location model and scalar normal-distribution machinery.

The model places a zero-centered normal prior with variance ``tau_sq`` on an
unknown location and observes i.i.d. normal data with known noise variance
``sigma_sq``.  After ``n`` observations with sample mean ``xbar`` the
posterior is again normal:

    mean     = n * xbar / (n + sigma_sq / tau_sq)
    variance = 1 / (1 / tau_sq + n / sigma_sq)

Everything downstream (resampling, bagging, diagnostics) is expressed in
terms of the :class:`NormalDist` value type and the CDF/PDF/quantile helpers
defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

__all__ = [
    "GaussianLocationModel",
    "Dataset",
    "NormalDist",
    "posterior",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_cdf(u, mean, sd):
    """Normal CDF at ``u`` for broadcastable ``u``, ``mean`` and ``sd``.

    ``special.ndtr`` keeps full precision in both tails.  Where ``sd == 0``
    the value is the right-continuous unit step at ``mean``, the CDF of a
    degenerate (point-mass) distribution.
    """
    sd = np.asarray(sd, dtype=float)
    degenerate = sd == 0.0
    values = special.ndtr((u - mean) / np.where(degenerate, 1.0, sd))
    if degenerate.any():
        values = np.where(degenerate, np.greater_equal(u, mean), values)
    return values


def _normal_quantile(p, mean, sd):
    """Normal quantile ``mean + sd * z(p)`` for broadcastable ``mean`` and ``sd``.

    Location-scale exact: ``z`` is the standard normal quantile, so quantile
    ratios between distributions reduce to their sd ratios without extra
    rounding.
    """
    return mean + sd * special.ndtri(p)


@dataclass(frozen=True)
class GaussianLocationModel:
    """Normal prior (variance ``tau_sq``) with known noise variance ``sigma_sq``."""

    tau_sq: float
    sigma_sq: float

    def __post_init__(self):
        for name in ("tau_sq", "sigma_sq"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite")
            if math.isinf(1.0 / value):
                # the posterior precision 1/tau_sq + n/sigma_sq would be infinite
                raise ValueError(f"{name} is too small: its reciprocal overflows")
            object.__setattr__(self, name, value)

    def prior(self) -> "NormalDist":
        """Distribution of the location before any data is seen."""
        return NormalDist(0.0, self.tau_sq)


@dataclass(frozen=True)
class Dataset:
    """Immutable sequence of scalar observations with cached size and mean."""

    observations: tuple[float, ...]

    def __post_init__(self):
        obs = tuple(float(x) for x in self.observations)
        if len(obs) == 0:
            raise ValueError("empty dataset")
        if not all(math.isfinite(x) for x in obs):
            raise ValueError("non-finite input")
        object.__setattr__(self, "observations", obs)
        try:
            self.mean  # cache it now, so an overflowing sum is rejected as input
        except OverflowError:
            raise ValueError("sum of observations overflows") from None

    @property
    def n(self) -> int:
        return len(self.observations)

    @cached_property
    def mean(self) -> float:
        # fsum keeps the cached mean within one rounding of the exact value
        return math.fsum(self.observations) / len(self.observations)


@dataclass(frozen=True)
class NormalDist:
    """Normal distribution as a (mean, variance) pair.

    ``variance == 0`` is allowed as a degenerate point mass: its CDF is the
    right-continuous unit step at ``mean``, while the density and quantile
    are undefined and raise.  Degenerate instances only arise from degenerate
    resampling (e.g. the bootstrap-mean law of a single repeated value) and
    must be representable without silently producing NaNs.
    """

    mean: float
    variance: float

    def __post_init__(self):
        mean = float(self.mean)
        variance = float(self.variance)
        if not math.isfinite(mean):
            raise ValueError("mean must be finite")
        if not math.isfinite(variance) or variance < 0.0:
            raise ValueError("variance must be finite and non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    @property
    def is_degenerate(self) -> bool:
        return self.variance == 0.0


def _posterior_moments(model: GaussianLocationModel, n: int, xbar):
    """Posterior ``(mean, variance)`` after ``n`` observations with mean ``xbar``.

    mean = n * xbar / (n + sigma_sq / tau_sq),
    variance = 1 / (1 / tau_sq + n / sigma_sq).

    ``xbar`` may be an array of sample means of equal size ``n``; each
    element is computed with the same operations as the scalar form, so an
    element equals the scalar result bit for bit.
    """
    shrink = n + model.sigma_sq / model.tau_sq
    mean = n * xbar / shrink
    variance = 1.0 / (1.0 / model.tau_sq + n / model.sigma_sq)
    return mean, variance


def posterior(model: GaussianLocationModel, data: Dataset) -> NormalDist:
    """Posterior of the location given ``data`` (see :func:`_posterior_moments`)."""
    return NormalDist(*_posterior_moments(model, data.n, data.mean))


def normal_cdf(u: float, dist: NormalDist) -> float:
    """CDF of ``dist`` at ``u``.

    Infinite ``u`` returns the limit (0 or 1).  A degenerate ``dist`` yields
    the unit step at its mean.
    """
    u = float(u)
    if math.isnan(u):
        raise ValueError("non-finite input")
    return float(_normal_cdf(u, dist.mean, dist.sd))


def normal_pdf(r: float, dist: NormalDist) -> float:
    """Density of ``dist`` at ``r``; raises for a degenerate distribution."""
    r = float(r)
    if math.isnan(r):
        raise ValueError("non-finite input")
    if dist.is_degenerate:
        raise ValueError("degenerate density")
    z = (r - dist.mean) / dist.sd
    return math.exp(-0.5 * z * z) / (dist.sd * _SQRT_2PI)


def normal_quantile(p: float, dist: NormalDist) -> float:
    """Quantile (inverse CDF) of ``dist`` at probability ``p`` in (0, 1).

    Returns ``mean + sd * z(p)`` (see :func:`_normal_quantile`).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("probability out of range")
    if dist.is_degenerate:
        raise ValueError("degenerate distribution has no quantile function")
    return float(_normal_quantile(p, dist.mean, dist.sd))
