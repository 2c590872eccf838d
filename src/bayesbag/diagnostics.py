"""Stability diagnostics: replicate CDF bands and raw-vs-bagged summaries."""

from __future__ import annotations

import contextlib
import os
import sys
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
from .model import Dataset, GaussianLocationModel, NormalDist, _count, _normal_cdf, np, posterior
from .resampling import CenterPolicy, SchemeKind

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
# cells that each process keeps when a bagged curve is split across CPUs:
# about 40 ms of _ndtr work, against 1-2 ms to fork a child (2-CPU Xeon VM)
_SPLIT_MIN_CELLS = 2**20


@dataclass(frozen=True)
class GridSpec:
    """Number of points of the evaluation grid; :func:`evaluation_grid` derives its span."""

    points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        points = _count(self.points)
        if points < 2:
            raise ValueError("grid needs at least 2 points")
        object.__setattr__(self, "points", points)


def evaluation_grid(
    model: GaussianLocationModel,
    data: Dataset,
    spec: GridSpec | None = None,
    center_policy: CenterPolicy = CenterPolicy.SAMPLE_MEAN,
) -> np.ndarray:
    """Equally spaced grid reaching 6 bagged sd beyond the posterior and bagged means.

    The bagged mean is that of :func:`bayesbag_exact` under
    ``center_policy``.  Under sample-mean centering it equals the posterior
    mean bit for bit, so the grid is the posterior mean +/- 6 bagged sd;
    under MAP centering the bagged mean is shrunk further towards 0, and the
    grid stretches to cover both.  The bagged sd does not depend on the
    center.
    """
    if spec is None:
        spec = GridSpec()
    post_mean = posterior(model, data).mean
    bag = bayesbag_exact(model, data, center_policy)
    span = 6.0 * bag.sd
    lo, hi = min(post_mean, bag.mean), max(post_mean, bag.mean)
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
    grid = evaluation_grid(model, data, grid_spec, cfg.center_policy)
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
    # the posterior curve passes here and every bagged one through
    # _component_values, so a tracer wrapping both counts all evaluated cells
    return _normal_cdf(grid, dist.mean, dist.sd)


def _chunked_curve(mix, grid: np.ndarray) -> np.ndarray:
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


def _usable_cpus() -> int:
    """CPUs a bagged curve may be split across: 1 unless this is a single-threaded Linux process.

    A forked child holds only the thread that forked it, so a lock that
    another thread (a BLAS pool, say) held at the fork would never be
    released in the child.
    """
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) == 1:
            return len(os.sched_getaffinity(0))
    except OSError:  # no /proc to count threads in
        pass
    return 1


def _fork_curve(mix, grid: np.ndarray):
    """``(pid, pipe)`` of a child writing ``_chunked_curve(mix, grid)`` to ``pipe``, or None if none started."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:  # the child: it answers through the pipe alone, and never returns
        status = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(_chunked_curve(mix, grid).tobytes())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _collect(child, columns: int):
    """The curve values a :func:`_fork_curve` child wrote, or None if it failed; it is reaped either way.

    A child writes only once it has every value, so one that failed wrote
    fewer bytes than ``columns`` float64 values.
    """
    if child is None:
        return None
    pid, read = child
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        with contextlib.suppress(ChildProcessError):  # reaped already where SIGCHLD is ignored
            os.waitpid(pid, 0)
    return np.frombuffer(data, dtype=float) if len(data) == 8 * columns else None


def _mixture_curve(mix, grid: np.ndarray) -> np.ndarray:
    """:func:`_chunked_curve`, split into contiguous column parts across CPUs when the grid is large.

    Each part keeps at least ``_SPLIT_MIN_CELLS`` cells.  Forked children
    evaluate every part but the first, which this process evaluates; it
    then reads and reaps every child, and evaluates again the part of any
    child that failed.  Every column is reduced by the same code, so the
    curve, and any error, are those of a serial run.
    """
    min_columns = -(-_SPLIT_MIN_CELLS // len(mix))  # rounded up
    parts = grid.shape[0] // min_columns
    if parts > 1:
        parts = min(parts, _usable_cpus())
    if parts < 2:
        return _chunked_curve(mix, grid)
    first, *rest = np.array_split(grid, parts)
    children = [_fork_curve(mix, part) for part in rest]
    try:
        curves = [_chunked_curve(mix, first)]
    finally:
        shares = [_collect(child, part.shape[0]) for child, part in zip(children, rest)]
    for part, share in zip(rest, shares):
        curves.append(_chunked_curve(mix, part) if share is None else share)
    return np.concatenate(curves)


def bagged_cdf_curves(model: GaussianLocationModel, data: Dataset, cfg: BagConfig):
    """Raw posterior and bagged CDF curves on the default grid, and the bag they measure.

    The parametric scheme takes the closed form (method ``"exact"``), which
    uses neither ``cfg.replicates`` nor ``cfg.seed``, as a one-component
    mixture; every other scheme takes Monte Carlo (method ``"mc(B=...)"``).
    The bagged curve is that mixture's; a one-component curve is its normal's
    bit for bit.  Returns ``(grid, posterior_curve, bagged_curve, mixture,
    method)``.
    """
    grid = evaluation_grid(model, data, center_policy=cfg.center_policy)
    post_curve = _normal_curve(posterior(model, data), grid)
    if cfg.scheme.kind is SchemeKind.PARAMETRIC_BOOTSTRAP:
        bag = bayesbag_exact(model, data, cfg.center_policy)
        mix, method = MixtureCdf([bag.mean], [bag.variance]), "exact"
    else:
        mix, method = bayesbag_mc(model, data, cfg), f"mc(B={cfg.replicates})"
    return grid, post_curve, _mixture_curve(mix, grid), mix, method


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
