"""Bagged posteriors: exact closed form, quadrature cross-check, and Monte Carlo.

The bagged posterior CDF is the expectation, over resampled datasets, of the
posterior CDF computed on each resample.  Its Monte Carlo form is an
equal-weight mixture of replicate posterior CDFs; for the Gaussian location
model with a parametric bootstrap it also has a closed form, because
averaging Phi((u - r) / s) over r ~ N(m, v) gives Phi((u - m) / sqrt(s^2 + v)):
the bag is normal with the replicate-mean law's mean and the summed variance

    variance = 1 / (1 / tau_sq + n / sigma_sq) + n * sigma_sq / (n + sigma_sq / tau_sq)^2

The quadrature evaluator integrates the defining integral directly and is
kept as an independent check on that derivation.  :mod:`.resampling`
defines and resolves the parametric bootstrap's center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .model import (
    Dataset,
    GaussianLocationModel,
    NormalDist,
    _count,
    _normal_cdf,
    _normal_pdf,
    _normal_quantile,
    _posterior_moments,
    _reals,
    normal_quantile,
    np,
    posterior,
)
from .resampling import (
    CenterPolicy,
    ResampleScheme,
    SchemeKind,
    Seed,
    _bootstrap_mean_moments,
    _center,
    replicate_means,
)

__all__ = [
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
# margin over _QUANTILE_CDF_TOL bounds the level, so the quantile search resolves it.
RESOLUTION_ULPS = 2**10
_QUANTILE_REL_WIDTH = 1e-14
_QUANTILE_MAX_ITER = 200
# bayesbag_quadrature's Gauss-Hermite nodes, and the largest change it
# accepts when they are halved
_QUADRATURE_NODES = 128
_QUADRATURE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class BagConfig:
    """Replicate count, resampling scheme, master seed, and centering (MAP: parametric only)."""

    replicates: int = DEFAULT_REPLICATES
    scheme: ResampleScheme = field(default_factory=ResampleScheme.parametric)
    seed: int = DEFAULT_SEED
    center_policy: CenterPolicy = CenterPolicy.SAMPLE_MEAN

    def __post_init__(self):
        replicates = _count(self.replicates)
        if replicates < 1:
            raise ValueError("replicates must be at least 1")
        object.__setattr__(self, "replicates", replicates)
        object.__setattr__(self, "seed", Seed(self.seed).master)  # Seed range-checks it
        if not isinstance(self.scheme, ResampleScheme):
            raise TypeError(f"expected a ResampleScheme, got {type(self.scheme).__name__}")
        if not isinstance(self.center_policy, CenterPolicy):
            raise TypeError(f"expected a CenterPolicy, got {type(self.center_policy).__name__}")
        parametric = self.scheme.kind is SchemeKind.PARAMETRIC_BOOTSTRAP
        if self.center_policy is CenterPolicy.MAP and not parametric:
            raise ValueError("only the parametric scheme takes the MAP center")


@dataclass(frozen=True)
class QuantilePair:
    """Lower and upper quantile of a central credible interval."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = _reals(self.lo, self.hi)
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
    """Equal-weight mixture of normal CDFs, each with a positive variance.

    Component ``b`` is N(means[b], variances[b]), held in the read-only
    arrays ``means``, ``variances`` and ``sds`` (``sqrt(variances)``); the
    ``components`` view gives each as a ``NormalDist``.
    """

    def __init__(self, means, variances):
        given = (means, variances)
        means, variances = map(np.array, given)
        if means.dtype.kind not in "iuf" or variances.dtype.kind not in "iuf":
            raise TypeError("means and variances must be integer or float arrays")
        means, variances = means.astype(float, copy=False), variances.astype(float, copy=False)
        if means.ndim != 1 or means.shape != variances.shape:
            raise ValueError("means and variances must be 1-d arrays of one length")
        for values in given:
            if isinstance(values, (list, tuple)):
                _reals(*values)  # numpy would read a bool among numbers as 0 or 1
        if means.size == 0:
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
        return tuple(map(NormalDist, self.means.tolist(), self.variances.tolist()))

    def __len__(self) -> int:
        return self.means.shape[0]


def _component_values(mix: MixtureCdf, grid: np.ndarray) -> np.ndarray:
    """CDF value of every component at every grid point, shape (B, len(grid))."""
    return _normal_cdf(grid[None, :], mix.means[:, None], mix.sds[:, None])


def _mixture_mean(values: np.ndarray) -> np.ndarray:
    # reduce over contiguous rows of the transpose so every grid point sums
    # its component values in the same pairwise order regardless of grid
    # size; scalar evaluation then matches grid evaluation bit for bit.
    # The exact mean lies between the smallest and largest component value,
    # so clamping to them only removes rounding.
    columns = np.ascontiguousarray(values.T)
    return np.clip(columns.mean(axis=1), columns.min(axis=1), columns.max(axis=1))


def mixture_cdf_eval(mix: MixtureCdf, u: float) -> float:
    """Pointwise mean of the component CDFs; always in [0, 1]."""
    u = float(u)
    if math.isnan(u):
        raise ValueError("non-finite input")
    return float(_mixture_mean(_component_values(mix, np.array([u])))[0])


def _moment_quantile(mix: MixtureCdf, p: float, lo: float, hi: float) -> float:
    """The p-quantile of the normal with the mixture's mean and variance.

    It is worked in units of the larger of the bracket's half-width and the
    largest sd, where every component mean lies within about 40 units of
    the bracket's center, so no sum or square overflows; the last step, in
    Python floats, may give an infinity, which lies outside the bracket.
    """
    center = 0.5 * lo + 0.5 * hi
    scale = max(0.5 * hi - 0.5 * lo, float(mix.sds.max()))
    t = (0.5 * mix.means - 0.5 * center) / (0.5 * scale)
    r = mix.sds / scale
    mean, variance = float(t.mean()), float(t.var() + np.mean(r * r))
    return center + scale * (mean + math.sqrt(variance) * _normal_quantile(p, 0.0, 1.0))


def mixture_quantile(mix: MixtureCdf, p: float) -> float:
    """Invert the mixture CDF by Newton steps, safeguarded by bisection.

    The mixture CDF is monotone but has no closed-form inverse.  At the
    smallest component p-quantile it is at most ``p``, and at the largest at
    least ``p`` (up to about 1e-16 of rounding, far below the 1e-12 at which
    the search stops), so a search between them converges to a point whose
    CDF value is within 1e-9 of ``p``.  The first point is the p-quantile of
    the moment-matched normal.  Each evaluation narrows the bracket, and the
    next point is the Newton step ``x - (F(x) - p) / f(x)``, ``f`` the mean
    of the component densities, when it lands strictly inside the bracket,
    and the bracket's midpoint otherwise.  When every component has the same
    float as its p-quantile, that float is returned without a search, so B
    identical replicates give the quantile of their common normal bit for
    bit.  The search also stops when the bracket is narrower than 1e-14 of
    its larger end, or holds no float between its ends, so the result does
    not depend on the data's scale.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("probability out of range")
    points = _normal_quantile(p, mix.means, mix.sds)
    lo, hi = float(points.min()), float(points.max())
    if lo == hi:
        return lo  # every component's p-quantile, so the mixture's
    x = _moment_quantile(mix, p, lo, hi)
    for _ in range(_QUANTILE_MAX_ITER):
        if not lo < x < hi:
            x = 0.5 * lo + 0.5 * hi
            if x == lo or x == hi:
                return x
        value = mixture_cdf_eval(mix, x)
        if abs(value - p) <= _QUANTILE_CDF_TOL:
            return x
        if value < p:
            lo = x
        else:
            hi = x
        if hi - lo <= _QUANTILE_REL_WIDTH * max(abs(lo), abs(hi)):
            return 0.5 * lo + 0.5 * hi
        density = float(_normal_pdf(x, mix.means, mix.sds).mean())
        x = x - (value - p) / density if density > 0.0 else math.nan  # NaN: bisect
    return 0.5 * lo + 0.5 * hi


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
    size, means = replicate_means(cfg.scheme, model, data, cfg.center_policy, cfg.seed, cfg.replicates)
    post_means, variance = _posterior_moments(model, size, means)
    return MixtureCdf(post_means, np.full(cfg.replicates, variance))


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
    center = _center(center_policy, model, data)
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
) -> float:
    """Numerically integrate the bagged-posterior CDF at ``u``.

    Gauss-Hermite quadrature of the posterior CDF against the replicate-mean
    density, after mapping the integration variable onto the exp(-t^2)
    weight, with ``_QUADRATURE_NODES`` nodes.  Convergence is checked by
    re-evaluating with half as many; a residual above
    ``_QUADRATURE_RESIDUAL_TOL`` raises.  Kept as an independent cross-check
    of :func:`bayesbag_exact`.
    """
    u = float(u)
    if math.isnan(u):
        raise ValueError("non-finite input")
    post = posterior(model, data)
    law = _bootstrap_mean_moments(model, data.n, _center(center_policy, model, data))
    value = _gauss_hermite_cdf(u, post.sd, *law, _QUADRATURE_NODES)
    coarse = _gauss_hermite_cdf(u, post.sd, *law, _QUADRATURE_NODES // 2)
    residual = abs(value - coarse)
    if residual > _QUADRATURE_RESIDUAL_TOL:
        raise RuntimeError(
            f"quadrature did not converge: residual estimate {residual:.3e} "
            f"exceeds {_QUADRATURE_RESIDUAL_TOL:.1e}"
        )
    return min(max(value, 0.0), 1.0)
