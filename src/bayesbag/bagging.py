"""Bagged posteriors: exact closed form, quadrature cross-check, and Monte Carlo.

The bagged posterior CDF is the expectation, over resampled datasets, of the
posterior CDF computed on each resample.  Its Monte Carlo form is an
equal-weight mixture of replicate posterior CDFs; for the Gaussian location
model with a parametric bootstrap it also has a closed form, because
averaging Phi((u - r) / s) over r ~ N(m, v) gives Phi((u - m) / sqrt(s^2 + v)):
the bag is normal with the replicate-mean law's mean and the summed variance

    variance = 1 / (1 / tau_sq + n / sigma_sq) + n * sigma_sq / (n + sigma_sq / tau_sq)^2

The quadrature evaluator integrates the defining integral directly and is
kept as an independent check on that derivation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .model import (
    Dataset,
    GaussianLocationModel,
    NormalDist,
    _normal_cdf,
    _normal_quantile,
    _posterior_moments,
    normal_quantile,
    posterior,
)
from .resampling import (
    PointEstimate,
    ResampleScheme,
    Seed,
    _bootstrap_mean_moments,
    map_point_estimate,
    point_estimate,
    replicate_means,
)

__all__ = [
    "CenterPolicy",
    "BagConfig",
    "QuantilePair",
    "MixtureCdf",
    "bayesbag_mc",
    "bayesbag_exact",
    "bayesbag_quadrature",
    "mixture_cdf_eval",
    "mixture_quantile",
    "credible_interval",
]

DEFAULT_REPLICATES = 1000
DEFAULT_SEED = 42
DEFAULT_LEVEL = 0.95

_QUANTILE_CDF_TOL = 1e-12
# A posterior sd must span this many float spacings (math.ulp) of the data's
# magnitude.  mixture_quantile stops at a relative bracket width of 1e-14,
# which is 45 to 90 spacings; at 2**10 that stays below a tenth of an sd.
# Below about one spacing the interval endpoints round together.  The same
# margin over _QUANTILE_CDF_TOL bounds the level, so bisection resolves it.
RESOLUTION_ULPS = 2**10
_QUANTILE_REL_WIDTH = 1e-14
_QUANTILE_MAX_ITER = 200


class CenterPolicy(Enum):
    """Which point estimate centers the parametric bootstrap."""

    SAMPLE_MEAN = "mean"
    MAP = "map"


@dataclass(frozen=True)
class BagConfig:
    """Replicate count, resampling scheme, master seed, and centering."""

    replicates: int = DEFAULT_REPLICATES
    scheme: ResampleScheme = field(default_factory=ResampleScheme.parametric)
    seed: int = DEFAULT_SEED
    center_policy: CenterPolicy = CenterPolicy.SAMPLE_MEAN

    def __post_init__(self):
        replicates = operator.index(self.replicates)
        if replicates < 1:
            raise ValueError("replicates must be at least 1")
        object.__setattr__(self, "replicates", replicates)
        object.__setattr__(self, "seed", Seed(self.seed).master)  # Seed range-checks it


@dataclass(frozen=True)
class QuantilePair:
    """Lower and upper quantile of a central credible interval."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("quantiles must be finite")
        if not lo < hi:
            raise ValueError("lower quantile must be below upper quantile")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


class MixtureCdf:
    """Equal-weight mixture of component CDFs.

    Components are either :class:`NormalDist` instances or callables mapping
    a scalar to a CDF value, so posteriors from arbitrary models can be
    bagged through the same machinery.  Every normal component has a
    positive variance, as a :class:`NormalDist` does.

    The normal components are held as read-only arrays ``means``,
    ``variances`` and ``sds`` (``sqrt(variances)``, so ``sds[b]`` equals
    ``NormalDist.sd`` of component ``b``), empty when there are none; the
    callables are held in the ``callables`` tuple.  :meth:`normal` builds an
    all-normal mixture from those arrays directly.  ``components`` lists the
    normals first, then the callables.
    """

    def __init__(self, components):
        components = tuple(components)
        for comp in components:
            if not isinstance(comp, NormalDist) and not callable(comp):
                raise TypeError("components must be NormalDist or callable CDFs")
        normals = [c for c in components if isinstance(c, NormalDist)]
        self.callables = tuple(c for c in components if not isinstance(c, NormalDist))
        self._set_arrays([c.mean for c in normals], [c.variance for c in normals])

    @classmethod
    def normal(cls, means, variances) -> "MixtureCdf":
        """All-normal mixture whose component ``b`` is N(means[b], variances[b])."""
        mix = cls.__new__(cls)
        mix.callables = ()
        mix._set_arrays(means, variances)
        return mix

    def _set_arrays(self, means, variances):
        means = np.array(means, dtype=float)
        variances = np.array(variances, dtype=float)
        if means.ndim != 1 or means.shape != variances.shape:
            raise ValueError("means and variances must be 1-d arrays of one length")
        if means.size + len(self.callables) == 0:
            raise ValueError("mixture needs at least one component")
        if not np.isfinite(means).all():
            raise ValueError("mean must be finite")
        if not (np.isfinite(variances).all() and (variances > 0.0).all()):
            raise ValueError("variance must be finite and positive")
        sds = np.sqrt(variances)
        for array in (means, variances, sds):
            array.flags.writeable = False
        self.means, self.variances, self.sds = means, variances, sds

    @property
    def components(self) -> tuple:
        normals = zip(self.means.tolist(), self.variances.tolist())
        return tuple(NormalDist(m, v) for m, v in normals) + self.callables

    def __len__(self) -> int:
        return self.means.shape[0] + len(self.callables)


def _component_values(mix: MixtureCdf, grid: np.ndarray) -> np.ndarray:
    """CDF value of every component at every grid point, shape (B, len(grid))."""
    values = _normal_cdf(grid[None, :], mix.means[:, None], mix.sds[:, None])
    if not mix.callables:
        return values
    rows = [[float(comp(float(u))) for u in grid] for comp in mix.callables]
    return np.vstack([values, np.array(rows)])


def _mixture_mean(values: np.ndarray) -> np.ndarray:
    # reduce over contiguous rows of the transpose so every grid point sums
    # its component values in the same pairwise order regardless of grid
    # size; scalar evaluation then matches grid evaluation bit for bit.
    # The exact mean lies between the smallest and largest component value,
    # so clamping to them (and to [0, 1], for callables) only removes rounding.
    columns = np.ascontiguousarray(values.T)
    mean = np.clip(columns.mean(axis=1), columns.min(axis=1), columns.max(axis=1))
    return np.clip(mean, 0.0, 1.0)


def mixture_cdf_eval(mix: MixtureCdf, u: float) -> float:
    """Pointwise mean of the component CDFs; always in [0, 1]."""
    u = float(u)
    if math.isnan(u):
        raise ValueError("non-finite input")
    return float(_mixture_mean(_component_values(mix, np.array([u])))[0])


def _bracket(mix: MixtureCdf, p: float) -> tuple[float, float]:
    points = _normal_quantile(p, mix.means, mix.sds)
    if points.size:
        lo, hi = float(points.min()), float(points.max())
        if lo == hi and not mix.callables:
            return lo, hi  # every component's p-quantile, so the mixture's
    else:
        lo, hi = -1.0, 1.0
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    # Component quantiles bracket the mixture quantile for all-normal
    # mixtures; generic callables may need the bracket widened.
    span = hi - lo
    for _ in range(_QUANTILE_MAX_ITER):
        if mixture_cdf_eval(mix, lo) <= p:
            break
        lo -= span
        span *= 2.0
    else:
        raise RuntimeError("could not bracket mixture quantile from below")
    span = hi - lo
    for _ in range(_QUANTILE_MAX_ITER):
        if mixture_cdf_eval(mix, hi) >= p:
            break
        hi += span
        span *= 2.0
    else:
        raise RuntimeError("could not bracket mixture quantile from above")
    return lo, hi


def mixture_quantile(mix: MixtureCdf, p: float) -> float:
    """Invert the mixture CDF by bisection.

    The mixture CDF is monotone but has no closed-form inverse; bisection on
    a bracket built from component quantiles converges to a point whose CDF
    value is within 1e-9 of ``p``.  When every component of an all-normal
    mixture has the same float as its p-quantile, that float is returned
    without bisection, so B identical replicates give the quantile of their
    common normal bit for bit.  Bisection also stops when the bracket is
    narrower than 1e-14 of its larger end, or holds no float between its
    ends, so the result does not depend on the data's scale.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("probability out of range")
    lo, hi = _bracket(mix, p)
    if lo == hi:
        return lo
    mid = 0.5 * lo + 0.5 * hi
    for _ in range(_QUANTILE_MAX_ITER):
        mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            return mid
        value = mixture_cdf_eval(mix, mid)
        if abs(value - p) <= _QUANTILE_CDF_TOL:
            return mid
        if value < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _QUANTILE_REL_WIDTH * max(abs(lo), abs(hi)):
            return 0.5 * lo + 0.5 * hi
    return mid


def credible_interval(dist_or_mix, level: float = DEFAULT_LEVEL) -> QuantilePair:
    """Central credible interval between the (1-level)/2 and 1-(1-level)/2 quantiles.

    The level and each tail ``(1 - level)/2`` must be at least
    ``RESOLUTION_ULPS`` CDF tolerances of :func:`mixture_quantile`.
    """
    level = float(level)
    alpha = 0.5 * (1.0 - level)
    floor = RESOLUTION_ULPS * _QUANTILE_CDF_TOL
    if not (level >= floor and alpha >= floor):
        raise ValueError(
            f"level must be in (0, 1), with the level and each tail (1 - level)/2 "
            f"at least {floor:.3g}, below which the interval cannot be resolved"
        )
    if isinstance(dist_or_mix, NormalDist):
        return QuantilePair(
            normal_quantile(alpha, dist_or_mix),
            normal_quantile(1.0 - alpha, dist_or_mix),
        )
    if isinstance(dist_or_mix, MixtureCdf):
        return QuantilePair(
            mixture_quantile(dist_or_mix, alpha),
            mixture_quantile(dist_or_mix, 1.0 - alpha),
        )
    raise TypeError("expected NormalDist or MixtureCdf")


def _resolve_center(
    model: GaussianLocationModel, data: Dataset, policy: CenterPolicy
) -> PointEstimate:
    if policy is CenterPolicy.MAP:
        return map_point_estimate(model, data)
    return point_estimate(data)


def bayesbag_mc(
    model: GaussianLocationModel,
    data: Dataset,
    cfg: BagConfig,
) -> MixtureCdf:
    """Monte Carlo bagged posterior: mixture of replicate posterior CDFs.

    Replicate ``b`` resamples the data with the stream keyed by
    ``(cfg.seed, b)``, so results do not depend on execution order.  Its
    posterior depends on the replicate only through its size and mean, so
    the posterior formula is applied once to the array of replicate means;
    component ``b`` equals ``posterior(model, resample(..., Seed(cfg.seed,
    b)))`` bit for bit.
    """
    center = _resolve_center(model, data, cfg.center_policy)
    size, means = replicate_means(cfg.scheme, model, data, center, cfg.seed, cfg.replicates)
    post_means, variance = _posterior_moments(model, size, means)
    return MixtureCdf.normal(post_means, np.full(cfg.replicates, variance))


def bayesbag_exact(
    model: GaussianLocationModel,
    data: Dataset,
    center_policy: CenterPolicy = CenterPolicy.SAMPLE_MEAN,
) -> NormalDist:
    """Closed form of the parametric-bootstrap bagged posterior.

    Averaging the posterior CDF over the replicate-mean law adds the two
    variances: the bag is N(law.mean, posterior.variance + law.variance).
    """
    post = posterior(model, data)
    center = _resolve_center(model, data, center_policy)
    law_mean, law_variance = _bootstrap_mean_moments(model, data.n, center)
    return NormalDist(law_mean, post.variance + law_variance)


@lru_cache(maxsize=8)
def _hermgauss(nodes: int):
    return np.polynomial.hermite.hermgauss(nodes)


def _gauss_hermite_cdf(u, post_sd, law_mean, law_variance, nodes):
    t, w = _hermgauss(nodes)
    replicate_means = law_mean + math.sqrt(2.0 * law_variance) * t
    return float(w @ _normal_cdf(u, replicate_means, post_sd)) / math.sqrt(math.pi)


def bayesbag_quadrature(
    model: GaussianLocationModel,
    data: Dataset,
    u: float,
    center_policy: CenterPolicy = CenterPolicy.SAMPLE_MEAN,
    nodes: int = 128,
    residual_tol: float = 1e-10,
) -> float:
    """Numerically integrate the bagged-posterior CDF at ``u``.

    Gauss-Hermite quadrature of the posterior CDF against the replicate-mean
    density, after mapping the integration variable onto the exp(-t^2)
    weight.  Convergence is checked by re-evaluating at half the node count;
    a residual above ``residual_tol`` raises.  Kept as an independent
    cross-check of :func:`bayesbag_exact`.
    """
    u = float(u)
    if math.isnan(u):
        raise ValueError("non-finite input")
    if nodes < 64:
        raise ValueError("need at least 64 quadrature nodes")
    post = posterior(model, data)
    law = _bootstrap_mean_moments(model, data.n, _resolve_center(model, data, center_policy))
    value = _gauss_hermite_cdf(u, post.sd, *law, nodes)
    coarse = _gauss_hermite_cdf(u, post.sd, *law, nodes // 2)
    residual = abs(value - coarse)
    if residual > residual_tol:
        raise RuntimeError(
            f"quadrature did not converge: residual estimate {residual:.3e} "
            f"exceeds {residual_tol:.1e}"
        )
    return min(max(value, 0.0), 1.0)
