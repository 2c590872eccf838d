"""Stability diagnostics: replicate CDF bands and raw-vs-bagged summaries."""

from __future__ import annotations

from dataclasses import dataclass

from .bagging import (
    DEFAULT_LEVEL,
    BagConfig,
    MixtureCdf,
    QuantilePair,
    _component_values,
    _mixture_mean,
    bayesbag_exact,
    bayesbag_mc,
    credible_interval,
)
from .model import _KERNEL_BLOCK, Dataset, GaussianLocationModel, NormalDist, _count, _normal_cdf, np, posterior
from .resampling import SchemeKind

__all__ = [
    "GridSpec",
    "CdfBand",
    "BagReport",
    "evaluation_grid",
    "build_band",
    "bagged_cdf_curves",
    "make_report",
]

DEFAULT_GRID_POINTS = 401


@dataclass(frozen=True)
class GridSpec:
    """Number of points of the evaluation grid; :func:`evaluation_grid` derives its span."""

    points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        points = _count(self.points)
        if points < 2:
            raise ValueError("grid needs at least 2 points")
        object.__setattr__(self, "points", points)


def evaluation_grid(post: NormalDist, mix: MixtureCdf, spec: GridSpec | None = None) -> np.ndarray:
    """Equally spaced grid reaching 6 component sd beyond the posterior mean and every component mean.

    Each component's CDF, and so the mixture's, is at most Phi(-6), about
    1e-9, at the lower end and at least 1 - Phi(-6) at the upper end,
    however widely the component means spread.  The sd is the largest
    component's; every Monte Carlo component has the same one, at least the
    posterior's.  For the closed form, the one component N(m, v), the grid
    runs 6 sqrt(v) beyond the posterior mean and m; under sample-mean
    centering m equals the posterior mean bit for bit.
    """
    if spec is None:
        spec = GridSpec()
    span = 6.0 * mix.sds.max()
    lo, hi = min(post.mean, mix.means.min()), max(post.mean, mix.means.max())
    return np.linspace(lo - span, hi + span, spec.points)


@dataclass(frozen=True, eq=False)
class CdfBand:
    """Replicate and raw-posterior CDFs on a grid, with the replicates' pointwise min/max and mean."""

    grid: np.ndarray
    per_replicate: np.ndarray
    pointwise_lo: np.ndarray
    pointwise_hi: np.ndarray
    mean_curve: np.ndarray
    posterior_curve: np.ndarray

    def __post_init__(self):
        n_grid = self.grid.shape[0]
        if self.per_replicate.shape[1] != n_grid:
            raise ValueError("per-replicate matrix does not match the grid")
        for name in ("pointwise_lo", "pointwise_hi", "mean_curve", "posterior_curve"):
            if getattr(self, name).shape != (n_grid,):
                raise ValueError(f"{name} does not match the grid")
        if not (
            np.all(self.pointwise_lo <= self.mean_curve)
            and np.all(self.mean_curve <= self.pointwise_hi)
        ):
            raise ValueError("pointwise min/max must enclose the mean curve")

    @property
    def replicates(self) -> int:
        return self.per_replicate.shape[0]


@dataclass(frozen=True, eq=False)
class BagReport:
    """Raw-vs-bagged interval comparison, with the grid and the two CDF curves it was measured on."""

    posterior_interval: QuantilePair
    bagged_interval: QuantilePair
    widening_ratio: float
    ks_distance: float
    degenerate_resampling_flag: bool
    method: str  # "exact" or "mc(B=...)", as bagged_cdf_curves decided
    grid: np.ndarray
    posterior_curve: np.ndarray
    bagged_curve: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError("ks_distance must lie in [0, 1]")


def build_band(
    model: GaussianLocationModel,
    data: Dataset,
    cfg: BagConfig,
    grid_spec: GridSpec | None = None,
) -> CdfBand:
    """Evaluate every replicate posterior CDF, and the raw posterior CDF, on a grid.

    The mean curve is computed through the same code path as
    ``mixture_cdf_eval``, so it matches the bagged CDF bit for bit given the
    same seed.  The band is the pointwise min/max across replicates.
    """
    if cfg.replicates < 2:
        raise ValueError("need at least 2 replicates for a band")
    mix = bayesbag_mc(model, data, cfg)
    post = posterior(model, data)
    grid = evaluation_grid(post, mix, grid_spec)
    values = np.empty((grid.shape[0], len(mix)))
    mean_curve = _chunked_curve(mix, grid, values)
    return CdfBand(
        grid,
        values.T,
        values.min(axis=1),
        values.max(axis=1),
        mean_curve,
        _normal_curve(post, grid),
    )


def _normal_curve(dist: NormalDist, grid: np.ndarray) -> np.ndarray:
    # the posterior curve passes here and every bagged one through
    # _component_values, so a tracer wrapping both counts all evaluated cells
    return _normal_cdf(grid, dist.mean, dist.sd)


def _chunked_curve(mix, grid: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
    """``_mixture_mean(_component_values(mix, grid))``, over blocks of grid points.

    A block holds about ``_KERNEL_BLOCK`` cells (one point's row when B is
    larger), so only one block of the points-by-components matrix is held
    at a time.  Every point still reduces its row in the same pairwise
    order, so the curve is the same bit for bit.  ``values``, a
    ``(len(grid), B)`` array, also receives every block.
    """
    curve = np.empty(grid.shape)
    step = max(1, _KERNEL_BLOCK // len(mix))
    for i in range(0, grid.shape[0], step):
        block = _component_values(mix, grid[i:i + step])
        curve[i:i + step] = _mixture_mean(block)
        if values is not None:
            values[i:i + step] = block
    return curve


def bagged_cdf_curves(model: GaussianLocationModel, data: Dataset, cfg: BagConfig):
    """Raw posterior and bagged CDF curves on the default grid that covers both, and the bag they measure.

    The parametric scheme takes the closed form (method ``"exact"``), which
    uses neither ``cfg.replicates`` nor ``cfg.seed``, as a one-component
    mixture; every other scheme takes Monte Carlo (method ``"mc(B=...)"``).
    The grid is :func:`evaluation_grid`'s for the posterior and that
    mixture, and the bagged curve is the mixture's; a one-component curve
    is its normal's bit for bit.  Returns ``(grid, posterior_curve,
    bagged_curve, mixture, method)``.
    """
    post = posterior(model, data)
    if cfg.scheme.kind is SchemeKind.PARAMETRIC_BOOTSTRAP:
        bag = bayesbag_exact(model, data, cfg.center_policy)
        mix, method = MixtureCdf([bag.mean], [bag.variance]), "exact"
    else:
        mix, method = bayesbag_mc(model, data, cfg), f"mc(B={cfg.replicates})"
    grid = evaluation_grid(post, mix)
    return grid, _normal_curve(post, grid), _chunked_curve(mix, grid), mix, method


def make_report(
    model: GaussianLocationModel,
    data: Dataset,
    cfg: BagConfig,
    level: float = DEFAULT_LEVEL,
) -> BagReport:
    """Assemble the interval comparison and grid-based diagnostics.

    The bagged interval, the degeneracy flag (two or more components, all
    with one mean) and ``ks_distance`` all measure the one mixture of
    :func:`bagged_cdf_curves`.  ``ks_distance`` is the sup distance between
    the two CDF curves on the grid, which the report keeps with both curves
    (grid-approximate, not the exact sup over R).
    """
    grid, post_curve, bag_curve, mix, method = bagged_cdf_curves(model, data, cfg)
    bagged_interval = credible_interval(mix, level)
    posterior_interval = credible_interval(posterior(model, data), level)
    return BagReport(
        posterior_interval=posterior_interval,
        bagged_interval=bagged_interval,
        widening_ratio=bagged_interval.width / posterior_interval.width,
        ks_distance=float(np.max(np.abs(post_curve - bag_curve))),
        degenerate_resampling_flag=len(mix) > 1 and bool(np.all(mix.means == mix.means[0])),
        method=method,
        grid=grid,
        posterior_curve=post_curve,
        bagged_curve=bag_curve,
    )
