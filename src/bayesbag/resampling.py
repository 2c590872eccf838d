"""Seeded generation of perturbed datasets: bootstrap and subsample schemes.

Reproducibility contract: the random stream for replicate ``b`` is a pure
function of the pair ``(master, b)`` — each replicate owns its generator, so
replicates can be produced in any order, or concurrently, with identical
results.  Streams are numpy PCG64 generators seeded through
``SeedSequence((master, b))``; Gaussian variates use numpy's ziggurat
``standard_normal``.  Both choices are pinned for a release so that seeded
outputs stay stable.

Replicate ``b``'s posterior depends on its ``(master, b)`` stream only through
the replicate's size and its ``math.fsum`` mean.  :func:`replicate_means`
returns exactly those, from the same draws as :func:`resample`, without
building a :class:`Dataset` per replicate; the Monte Carlo bag is computed
from them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Dataset, GaussianLocationModel, NormalDist, posterior

__all__ = [
    "SchemeKind",
    "ResampleScheme",
    "Seed",
    "PointEstimate",
    "point_estimate",
    "map_point_estimate",
    "resample",
    "bootstrap_mean_law",
]


class SchemeKind(Enum):
    # in the order the CLI lists its --scheme choices
    PARAMETRIC_BOOTSTRAP = "parametric"
    NONPARAMETRIC_BOOTSTRAP = "nonparametric"
    SUBSAMPLE = "subsample"


@dataclass(frozen=True)
class ResampleScheme:
    """Dataset perturbation policy.

    ``subsample_size`` applies to the subsample scheme only; ``None`` means
    the default ceil(n/2) resolved against the data when resampling.
    """

    kind: SchemeKind
    subsample_size: int | None = None

    def __post_init__(self):
        if self.subsample_size is not None:
            size = operator.index(self.subsample_size)
            if size < 1:
                raise ValueError("subsample_size must be at least 1")
            object.__setattr__(self, "subsample_size", size)

    @classmethod
    def nonparametric(cls) -> "ResampleScheme":
        """Resample the observed data with replacement to the original size."""
        return cls(SchemeKind.NONPARAMETRIC_BOOTSTRAP)

    @classmethod
    def parametric(cls) -> "ResampleScheme":
        """Draw fresh i.i.d. normal data centered at a point estimate."""
        return cls(SchemeKind.PARAMETRIC_BOOTSTRAP)

    @classmethod
    def subsample(cls, size: int | None = None) -> "ResampleScheme":
        """Draw ``size`` observations without replacement (default ceil(n/2))."""
        return cls(SchemeKind.SUBSAMPLE, size)

    def subsample_size_for(self, n: int) -> int:
        """Subsample size against ``n`` observations (default ceil(n/2)).

        Raises ``ValueError`` when the requested size exceeds ``n``.
        """
        m = self.subsample_size if self.subsample_size is not None else (n + 1) // 2
        if m > n:
            raise ValueError("subsample larger than data")
        return m


@dataclass(frozen=True)
class Seed:
    """Master seed plus replicate index; identifies one random stream."""

    master: int
    replicate_index: int = 0

    def __post_init__(self):
        master = operator.index(self.master)
        index = operator.index(self.replicate_index)
        if not 0 <= master < 2**64:
            raise ValueError("master seed must be a 64-bit unsigned integer")
        if index < 0:
            raise ValueError("replicate_index must be non-negative")
        object.__setattr__(self, "master", master)
        object.__setattr__(self, "replicate_index", index)

    def rng(self) -> np.random.Generator:
        """PCG64 generator derived purely from (master, replicate_index)."""
        return np.random.default_rng(
            np.random.SeedSequence((self.master, self.replicate_index))
        )


@dataclass(frozen=True)
class PointEstimate:
    """Scalar location estimate used to center the parametric bootstrap."""

    value: float

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value):
            raise ValueError("point estimate must be finite")
        object.__setattr__(self, "value", value)


def point_estimate(data: Dataset) -> PointEstimate:
    """Sample mean of the data."""
    return PointEstimate(data.mean)


def map_point_estimate(model: GaussianLocationModel, data: Dataset) -> PointEstimate:
    """Posterior mode, which coincides with the posterior mean here."""
    return PointEstimate(posterior(model, data).mean)


def _draws(
    scheme: ResampleScheme,
    model: GaussianLocationModel,
    values: np.ndarray,
    center: PointEstimate,
    rng: np.random.Generator,
) -> np.ndarray:
    """One replicate's observations, drawn from ``rng`` (see :func:`resample`)."""
    n = values.shape[0]
    if scheme.kind is SchemeKind.PARAMETRIC_BOOTSTRAP:
        return center.value + math.sqrt(model.sigma_sq) * rng.standard_normal(n)
    if scheme.kind is SchemeKind.NONPARAMETRIC_BOOTSTRAP:
        return values[rng.integers(0, n, size=n)]
    if scheme.kind is SchemeKind.SUBSAMPLE:
        m = scheme.subsample_size_for(n)
        return values[rng.choice(n, size=m, replace=False)]
    raise ValueError(f"unknown scheme kind: {scheme.kind}")  # pragma: no cover


def resample(
    scheme: ResampleScheme,
    model: GaussianLocationModel,
    data: Dataset,
    center: PointEstimate,
    seed: Seed,
) -> Dataset:
    """Generate one perturbed dataset.

    Nonparametric bootstrap: n draws with replacement from the observations.
    Parametric bootstrap: n i.i.d. normal draws with mean ``center.value``
    and variance ``model.sigma_sq``.  Subsample: m distinct observations
    drawn without replacement.  Deterministic given ``seed``.
    """
    values = np.asarray(data.observations)
    return Dataset(tuple(_draws(scheme, model, values, center, seed.rng()).tolist()))


def replicate_means(
    scheme: ResampleScheme,
    model: GaussianLocationModel,
    data: Dataset,
    center: PointEstimate,
    master: int,
    replicates: int,
) -> tuple[int, np.ndarray]:
    """Size and ``fsum`` mean of replicates ``0 .. replicates-1`` of ``master``.

    Element ``b`` equals ``resample(scheme, model, data, center,
    Seed(master, b)).mean`` bit for bit, and every replicate has the same
    size.  Raises ``ValueError`` when a replicate's sum overflows or its
    mean is not finite.
    """
    values = np.asarray(data.observations)
    means = np.empty(replicates)
    size = 0
    try:
        for b in range(replicates):
            draws = _draws(scheme, model, values, center, Seed(master, b).rng())
            size = draws.shape[0]
            means[b] = math.fsum(draws.tolist()) / size
    except OverflowError:
        raise ValueError("sum of replicate observations overflows") from None
    if not np.isfinite(means).all():
        raise ValueError("non-finite replicate mean")
    return size, means


def _bootstrap_mean_moments(model: GaussianLocationModel, n: int, center: PointEstimate):
    """``(mean, variance)`` of :func:`bootstrap_mean_law` for ``n`` observations.

    The variance underflows to 0 when ``n + sigma_sq / tau_sq`` is huge;
    the bagged variance adds the positive posterior variance, so it never does.
    """
    shrink = n + model.sigma_sq / model.tau_sq
    return n * center.value / shrink, n * model.sigma_sq / (shrink * shrink)


def bootstrap_mean_law(
    model: GaussianLocationModel, data: Dataset, center: PointEstimate
) -> NormalDist:
    """Law of the replicate-posterior mean under the parametric bootstrap.

    With replicate data drawn i.i.d. N(center, sigma_sq), the replicate
    sample mean is N(center, sigma_sq / n) and the posterior mean computed
    from it is normal with

        mean     = n * center / (n + sigma_sq / tau_sq)
        variance = n * sigma_sq / (n + sigma_sq / tau_sq)^2

    Raises ``ValueError`` when that variance underflows to 0.
    """
    return NormalDist(*_bootstrap_mean_moments(model, data.n, center))
