"""Stability diagnostics: replicate CDF bands and raw-vs-bagged summaries."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bagging import (
    DEFAULT_LEVEL,
    BagConfig,
    QuantilePair,
    _component_values,
    _mixture_mean,
    bayesbag_exact,
    bayesbag_mc,
    credible_interval,
)
from .model import Dataset, GaussianLocationModel, NormalDist, _normal_cdf, posterior
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
# cells of the replicate-by-grid matrix held at once for a bagged curve:
# 2**18 float64 cells are 2 MiB, whatever B and the grid size
_CURVE_CHUNK_CELLS = 2**18


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: explicit [lo, hi] or a default span derived from the bag."""

    points: int = DEFAULT_GRID_POINTS
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        points = operator.index(self.points)
        if points < 2:
            raise ValueError("grid needs at least 2 points")
        object.__setattr__(self, "points", points)
        if (self.lo is None) != (self.hi is None):
            raise ValueError("grid bounds must be given together")
        if self.lo is not None:
            if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
                raise ValueError("grid bounds must be finite")
            if not self.lo < self.hi:
                raise ValueError("grid lower bound must be below upper bound")


def evaluation_grid(
    model: GaussianLocationModel,
    data: Dataset,
    spec: GridSpec | None = None,
) -> np.ndarray:
    """Equally spaced grid; defaults to posterior mean +/- 6 bagged sd.

    The bagged variance, posterior variance plus that of the replicate-mean
    law, does not depend on the bootstrap center, so neither does the grid.
    """
    if spec is None:
        spec = GridSpec()
    if spec.lo is not None:
        return np.linspace(spec.lo, spec.hi, spec.points)
    center = posterior(model, data).mean
    span = 6.0 * bayesbag_exact(model, data).sd
    return np.linspace(center - span, center + span, spec.points)


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
    grid = evaluation_grid(model, data, grid_spec)
    values = _component_values(mix, grid)
    return CdfBand(
        grid,
        values,
        values.min(axis=0),
        values.max(axis=0),
        _mixture_mean(values),
        _normal_curve(posterior(model, data), grid),
    )


def _normal_curve(dist: NormalDist, grid: np.ndarray) -> np.ndarray:
    # every single-normal curve of this layer passes here, so a tracer that
    # wraps this function and _component_values counts all evaluated cells
    return _normal_cdf(grid, dist.mean, dist.sd)


def _mixture_curve(mix, grid: np.ndarray) -> np.ndarray:
    """``_mixture_mean(_component_values(mix, grid))``, over column chunks of the grid.

    Every column is still reduced over all B rows in the same pairwise
    order, so the curve is the same bit for bit; only a (B, chunk) block of
    the matrix is held at a time.
    """
    step = max(1, _CURVE_CHUNK_CELLS // len(mix))
    return np.concatenate([
        _mixture_mean(_component_values(mix, grid[i:i + step]))
        for i in range(0, grid.shape[0], step)
    ])


def bagged_cdf_curves(
    model: GaussianLocationModel,
    data: Dataset,
    cfg: BagConfig,
    grid_spec: GridSpec | None = None,
    level: float = DEFAULT_LEVEL,
):
    """Raw posterior and bagged CDF curves on a shared grid.

    The parametric scheme takes the closed form, every other scheme Monte
    Carlo.  Returns ``(grid, posterior_curve, bagged_curve,
    bagged_interval, degenerate_flag)``; the interval comes from the same
    object that produced the curve.
    """
    grid = evaluation_grid(model, data, grid_spec)
    post_curve = _normal_curve(posterior(model, data), grid)
    if cfg.scheme.kind is SchemeKind.PARAMETRIC_BOOTSTRAP:
        bag = bayesbag_exact(model, data, cfg.center_policy)
        interval = credible_interval(bag, level)
        return grid, post_curve, _normal_curve(bag, grid), interval, False

    mix = bayesbag_mc(model, data, cfg)
    # identical replicate means: bayesbag_mc gives every replicate one variance
    degenerate = bool(np.all(mix.means == mix.means[0]))
    bag_curve = _mixture_curve(mix, grid)
    return grid, post_curve, bag_curve, credible_interval(mix, level), degenerate


def make_report(
    model: GaussianLocationModel,
    data: Dataset,
    cfg: BagConfig,
    grid_spec: GridSpec | None = None,
    level: float = DEFAULT_LEVEL,
) -> BagReport:
    """Assemble the interval comparison and grid-based diagnostics.

    ``ks_distance`` is the sup distance between the raw-posterior and bagged
    CDFs evaluated on the grid (grid-approximate, not the exact sup over R).
    The report keeps the grid and both curves of :func:`bagged_cdf_curves`.
    """
    grid, post_curve, bag_curve, bagged_interval, degenerate = bagged_cdf_curves(
        model, data, cfg, grid_spec, level
    )
    posterior_interval = credible_interval(posterior(model, data), level)
    return BagReport(
        posterior_interval=posterior_interval,
        bagged_interval=bagged_interval,
        widening_ratio=bagged_interval.width / posterior_interval.width,
        ks_distance=float(np.max(np.abs(post_curve - bag_curve))),
        degenerate_resampling_flag=degenerate,
        grid=grid,
        posterior_curve=post_curve,
        bagged_curve=bag_curve,
    )
