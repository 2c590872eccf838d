"""Correctness checks on the files the CLI writes, computed apart from the program.

Every expected value comes from the closed forms of the conjugate Gaussian
location model, evaluated with the standard library's ``statistics.NormalDist``
and numpy; nothing here imports ``bayesbag`` or compares against a stored
copy of earlier output.  Each check raises :class:`CheckError` with a message
naming the file and the quantity that is wrong.

Model (the CLI defaults, which the benchmark also passes explicitly): prior
N(0, TAU_SQ), known noise variance SIGMA_SQ, level 0.95.  With ``c =
SIGMA_SQ / TAU_SQ`` and n observations of sample mean ``xbar``:

    posterior          N(n xbar / (n + c), 1 / (1/TAU_SQ + n/SIGMA_SQ))
    replicate-mean law N(n xbar / (n + c), n SIGMA_SQ / (n + c)^2)   (parametric)
    exact bag          N(law mean, posterior variance + law variance)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

TAU_SQ = 4.0
SIGMA_SQ = 1.0
LEVEL = 0.95

# Built-in table1 scenario and the published two-row reference table: the
# posterior rows must round to these exactly, the bagged rows to within the
# stated tolerance (the table was printed from a slightly different bag).
TABLE1_MEANS = {1: 1.325, 10: 0.72775}
TABLE1_POSTERIOR_2DP = {1: (-0.69, 2.81), 10: (0.10, 1.32)}
TABLE1_BAGGED_2DP = {1: ((-1.30, 3.41), 0.015), 10: ((-0.16, 1.56), 0.02)}

# Closed-form results are reproduced to this share of the interval width.
EXACT_REL_TOL = 1e-9
# Monte Carlo endpoints may sit this many standard errors from the target.
# Five keeps a false alarm below one in a million per endpoint.
MC_SE_MULTIPLE = 5.0
# Allowance, as a share of the interval width, for the normal approximation
# of the replicate-mean law beyond its skewness term (kurtosis and higher).
MC_APPROX_REL = 5e-4
# Probability that a correct curve export fails the band check, per inequality.
CURVES_FALSE_ALARM = 1e-6
# Agreement of recomputed curves (CSV values carry 17 significant digits).
CURVE_ABS_TOL = 1e-12


class CheckError(Exception):
    """An output file disagrees with what the model says it must contain."""


@dataclass(frozen=True)
class Sample:
    """Size, mean and central moments of an input file, computed here."""

    n: int
    mean: float
    m2: float  # (1/n) sum (x - mean)^2
    m3: float  # (1/n) sum (x - mean)^3

    @classmethod
    def of(cls, values) -> "Sample":
        values = [float(v) for v in values]
        n = len(values)
        mean = math.fsum(values) / n
        m2 = math.fsum((x - mean) ** 2 for x in values) / n
        m3 = math.fsum((x - mean) ** 3 for x in values) / n
        return cls(n, mean, m2, m3)


def _shrink(n: int) -> float:
    return n + SIGMA_SQ / TAU_SQ


def posterior(n: int, xbar: float) -> NormalDist:
    return NormalDist(n * xbar / _shrink(n), math.sqrt(1.0 / (1.0 / TAU_SQ + n / SIGMA_SQ)))


def exact_bag(n: int, xbar: float) -> NormalDist:
    post = posterior(n, xbar)
    law_var = n * SIGMA_SQ / _shrink(n) ** 2
    return NormalDist(post.mean, math.sqrt(post.variance + law_var))


def interval(dist: NormalDist, level: float = LEVEL) -> tuple[float, float]:
    alpha = 0.5 * (1.0 - level)
    return dist.inv_cdf(alpha), dist.inv_cdf(1.0 - alpha)


def _expect_close(what: str, got: float, want: float, tol: float) -> None:
    if not math.isfinite(got) or abs(got - want) > tol:
        raise CheckError(f"{what}: got {got!r}, expected {want!r} within {tol:.3g}")


def _expect_interval(what, got, want, tol) -> None:
    _expect_close(f"{what} lower end", got[0], want[0], tol)
    _expect_close(f"{what} upper end", got[1], want[1], tol)


def _parse_csv(text: str, name: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{name}: header {lines[0] if lines else ''!r} != {header!r}")
    return [line.split(",") for line in lines[1:]]


# --- Monte Carlo error of a mixture quantile -------------------------------

_STD = NormalDist()
_NODES = np.linspace(-9.0, 9.0, 3601)
_WEIGHTS = np.array([_STD.pdf(x) for x in _NODES])
_WEIGHTS /= _WEIGHTS.sum()
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def mc_quantile_se(post_sd: float, law: NormalDist, level_p: float, replicates: int) -> float:
    """Standard error of the p-quantile of a B-component replicate mixture.

    Components are N(r, post_sd^2) with r drawn from ``law``.  The mixture
    CDF at the exact quantile q is a mean of B values Phi((q - r) / post_sd),
    so its error has variance Var_r[Phi((q - r) / post_sd)] / B; the delta
    method divides by the bag density at q.
    """
    bag = NormalDist(law.mean, math.sqrt(post_sd**2 + law.variance))
    q = bag.inv_cdf(level_p)
    values = np.array([_STD.cdf((q - law.mean - law.stdev * x) / post_sd) for x in _NODES])
    mean = float(_WEIGHTS @ values)
    var = max(float(_WEIGHTS @ (values - mean) ** 2), 0.0)
    return math.sqrt(var / replicates) / bag.pdf(q)


def mc_cdf_variance(grid: np.ndarray, post_sd: float, law: NormalDist) -> np.ndarray:
    """Var_r[Phi((u - r) / post_sd)] at each grid point u, for r drawn from ``law``.

    This is the variance of one replicate curve at u; the mean of B replicate
    curves has variance this over B.  Gauss-Hermite quadrature over r.
    """
    nodes, weights = hermegauss(80)
    weights = weights / weights.sum()
    z = (grid[:, None] - law.mean - law.stdev * nodes[None, :]) / post_sd
    values = 0.5 * _ERFC(-z / math.sqrt(2.0)).astype(float)
    mean = values @ weights
    return np.maximum(((values - mean[:, None]) ** 2) @ weights, 0.0)


def _check_mc_interval(what, got, post_sd, law, replicates, skew_shift=0.0) -> None:
    """Bagged interval within MC error (plus approximation allowance) of its target."""
    alpha = 0.5 * (1.0 - LEVEL)
    want = interval(NormalDist(law.mean, math.sqrt(post_sd**2 + law.variance)))
    width = want[1] - want[0]
    for end, p, g, w in (("lower", alpha, got[0], want[0]), ("upper", 1.0 - alpha, got[1], want[1])):
        se = mc_quantile_se(post_sd, law, p, replicates)
        tol = MC_SE_MULTIPLE * se + abs(skew_shift) + MC_APPROX_REL * width
        _expect_close(f"{what} {end} end (Monte Carlo, B={replicates})", g, w, tol)


# --- table1 ----------------------------------------------------------------

TABLE1_HEADER = (
    "n,method,posterior_lo,posterior_hi,bayesbag_lo,bayesbag_hi,"
    "posterior_lo_2dp,posterior_hi_2dp,bayesbag_lo_2dp,bayesbag_hi_2dp"
)


def check_table1(text: str, mc_replicates: int | None = None) -> None:
    """table1.csv: closed-form rows (or Monte Carlo rows within their error)."""
    rows = _parse_csv(text, "table1.csv", TABLE1_HEADER)
    if [r[0] for r in rows] != ["1", "10"]:
        raise CheckError(f"table1.csv: rows for n = {[r[0] for r in rows]}, expected [1, 10]")
    method = "exact" if mc_replicates is None else f"mc(B={mc_replicates})"
    for row in rows:
        if len(row) != 10:
            raise CheckError(f"table1.csv: row {row[0]} has {len(row)} fields, expected 10")
        n = int(row[0])
        if row[1] != method:
            raise CheckError(f"table1.csv n={n}: method {row[1]!r}, expected {method!r}")
        post_iv = (float(row[2]), float(row[3]))
        bag_iv = (float(row[4]), float(row[5]))
        post = posterior(n, TABLE1_MEANS[n])
        want_post = interval(post)
        tol = EXACT_REL_TOL * (want_post[1] - want_post[0])
        _expect_interval(f"table1.csv n={n} posterior", post_iv, want_post, tol)
        if mc_replicates is None:
            want_bag = interval(exact_bag(n, TABLE1_MEANS[n]))
            width = want_bag[1] - want_bag[0]
            _expect_interval(f"table1.csv n={n} bayesbag", bag_iv, want_bag, EXACT_REL_TOL * width)
            ratio = math.sqrt(1.0 + n / _shrink(n))
            _expect_close(
                f"table1.csv n={n} widening ratio",
                (bag_iv[1] - bag_iv[0]) / (post_iv[1] - post_iv[0]),
                ratio,
                EXACT_REL_TOL * ratio,
            )
        else:
            law = NormalDist(post.mean, math.sqrt(n * SIGMA_SQ) / _shrink(n))
            _check_mc_interval(f"table1.csv n={n} bayesbag", bag_iv, post.stdev, law, mc_replicates)
        # the 2-decimal view renders the full-precision columns ...
        for col, value in zip(row[6:10], post_iv + bag_iv):
            if col != f"{value:.2f}":
                raise CheckError(f"table1.csv n={n}: 2dp column {col!r} does not render {value!r}")
        # ... and reproduces the reference table (bagged rows: exact mode only)
        if (float(row[6]), float(row[7])) != TABLE1_POSTERIOR_2DP[n]:
            raise CheckError(f"table1.csv n={n}: posterior row {row[6:8]} != {TABLE1_POSTERIOR_2DP[n]}")
        if mc_replicates is not None:
            continue
        (ref_lo, ref_hi), ref_tol = TABLE1_BAGGED_2DP[n]
        _expect_close(f"table1.csv n={n} bayesbag 2dp lower", float(row[8]), ref_lo, ref_tol + 1e-12)
        _expect_close(f"table1.csv n={n} bayesbag 2dp upper", float(row[9]), ref_hi, ref_tol + 1e-12)


# --- bag -------------------------------------------------------------------

REPORT_HEADER = (
    "n,level,posterior_lo,posterior_hi,bayesbag_lo,bayesbag_hi,"
    "widening_ratio,ks_distance,degenerate_resampling"
)


def normal_sup_distance(a: NormalDist, b: NormalDist) -> float:
    """sup_u |F_a(u) - F_b(u)| for two normals with the same mean.

    The difference peaks where the densities are equal, at distance
    t = s_a s_b sqrt(2 ln(s_b / s_a) / (s_b^2 - s_a^2)) from the mean.
    """
    sa, sb = sorted((a.stdev, b.stdev))
    t = sa * sb * math.sqrt(2.0 * math.log(sb / sa) / (sb * sb - sa * sa))
    return _STD.cdf(t / sa) - _STD.cdf(t / sb)


def _replicate_law(sample: Sample, scheme: str, m: int | None) -> tuple[int, NormalDist, float]:
    """Size, normal law and skewness-induced quantile shift of the replicate posterior mean.

    Nonparametric bootstrap: the replicate mean has variance m2 / n and
    third central moment m3 / n^2.  Subsample of m without replacement:
    variance (m2 / m)(n - m)/(n - 1) and third moment
    m3 (n - m)(n - 2m) / (m^2 (n - 1)(n - 2)) (zero for m = n/2).
    The shift is the Cornish-Fisher skewness term at the interval's z.
    """
    n = sample.n
    if scheme == "nonparametric":
        size = n
        var = sample.m2 / n
        mu3 = sample.m3 / n**2
    else:
        size = (n + 1) // 2 if m is None else m
        var = sample.m2 / size * (n - size) / (n - 1)
        mu3 = sample.m3 * (n - size) * (n - 2 * size) / (size**2 * (n - 1) * (n - 2))
    scale = size / _shrink(size)
    law = NormalDist(scale * sample.mean, scale * math.sqrt(var))
    z = _STD.inv_cdf(0.5 + 0.5 * LEVEL)
    skew = mu3 / var**1.5 if var > 0.0 else 0.0
    return size, law, law.stdev * skew * (z * z - 1.0) / 6.0


def check_report(text: str, sample: Sample, scheme: str, replicates: int, m: int | None = None) -> None:
    """report.csv of ``bag``: closed form for parametric, MC error bound otherwise."""
    rows = _parse_csv(text, "report.csv", REPORT_HEADER)
    if len(rows) != 1 or len(rows[0]) != 9:
        raise CheckError(f"report.csv: expected one row of 9 fields, got {rows}")
    row = rows[0]
    if int(row[0]) != sample.n or float(row[1]) != LEVEL or row[8] != "0":
        raise CheckError(f"report.csv: n/level/degenerate {row[0]},{row[1]},{row[8]} unexpected")
    post_iv = (float(row[2]), float(row[3]))
    bag_iv = (float(row[4]), float(row[5]))
    widening, ks = float(row[6]), float(row[7])
    post = posterior(sample.n, sample.mean)
    want_post = interval(post)
    post_width = want_post[1] - want_post[0]
    _expect_interval("report.csv posterior", post_iv, want_post, EXACT_REL_TOL * post_width)
    _expect_close(
        "report.csv widening ratio vs its intervals",
        widening,
        (bag_iv[1] - bag_iv[0]) / (post_iv[1] - post_iv[0]),
        1e-12 * widening,
    )
    if scheme == "parametric":
        bag = exact_bag(sample.n, sample.mean)
        want_bag = interval(bag)
        _expect_interval(
            "report.csv bayesbag", bag_iv, want_bag, EXACT_REL_TOL * (want_bag[1] - want_bag[0])
        )
        ratio = math.sqrt(1.0 + sample.n / _shrink(sample.n))
        _expect_close("report.csv widening ratio", widening, ratio, EXACT_REL_TOL * ratio)
        # grid sup distance: never above the exact sup, and close below it
        sup = normal_sup_distance(post, bag)
        if not sup - 1e-3 <= ks <= sup + 1e-12:
            raise CheckError(f"report.csv ks distance {ks!r} not within [sup - 1e-3, sup] of {sup!r}")
        return
    size, law, shift = _replicate_law(sample, scheme, m)
    _check_mc_interval("report.csv bayesbag", bag_iv, posterior(size, 0.0).stdev, law, replicates, shift)
    if not 0.0 < ks < 1.0:
        raise CheckError(f"report.csv ks distance {ks!r} outside (0, 1)")


def _monotone_in_unit(values: np.ndarray, axis: int = -1) -> bool:
    return bool(
        np.all(np.isfinite(values))
        and np.all(values >= 0.0)
        and np.all(values <= 1.0)
        and np.all(np.diff(values, axis=axis) >= 0.0)
    )


def check_cdf(text: str, grid_points: int = 401) -> None:
    """cdf.csv: both curves monotone in u and inside [0, 1]."""
    rows = _parse_csv(text, "cdf.csv", "u,F_posterior,F_bayesbag")
    if len(rows) != grid_points:
        raise CheckError(f"cdf.csv: {len(rows)} rows, expected {grid_points}")
    table = np.array(rows, dtype=float)
    if not np.all(np.diff(table[:, 0]) > 0.0):
        raise CheckError("cdf.csv: grid is not increasing")
    for col, name in ((1, "F_posterior"), (2, "F_bayesbag")):
        if not _monotone_in_unit(table[:, col]):
            raise CheckError(f"cdf.csv: {name} is not a monotone curve in [0, 1]")


# --- curves ----------------------------------------------------------------


def parse_curves(text: str) -> np.ndarray:
    """curves.csv as an (rows, 3) float array of (replicate_id, u, F)."""
    header, _, body = text.partition("\n")
    if header != "replicate_id,u,F":
        raise CheckError(f"curves.csv: header {header!r}")
    if not body.endswith("\n"):
        raise CheckError("curves.csv: last line is not terminated (truncated file?)")
    try:
        flat = np.array(body.replace(",", " ").split(), dtype=float)
    except ValueError as exc:
        raise CheckError(f"curves.csv: unparsable value: {exc}") from None
    if flat.size % 3 or flat.size // 3 != body.count("\n"):
        raise CheckError("curves.csv: a row does not have exactly 3 fields")
    return flat.reshape(-1, 3)


def check_curves(text: str, sample: Sample, replicates: int, grid_points: int) -> None:
    """curves.csv of ``curves`` (parametric scheme): shape, band and sentinel curves."""
    table = parse_curves(text)
    g = grid_points
    if table.shape[0] != replicates * g + 2 * g:
        raise CheckError(f"curves.csv: {table.shape[0]} rows, expected B*G + 2G = {replicates * g + 2 * g}")
    ids = table[:, 0].reshape(-1, g)
    expected_ids = np.concatenate([np.arange(replicates), [-1, -2]])
    if not np.array_equal(ids, np.repeat(expected_ids[:, None], g, axis=1)):
        raise CheckError("curves.csv: replicate ids are not 0..B-1, -1, -2 in blocks of G rows")
    grids = table[:, 1].reshape(-1, g)
    grid = grids[0]
    if not (np.all(np.diff(grid) > 0.0) and np.all(grids == grid)):
        raise CheckError("curves.csv: curves do not share one increasing grid")
    values = table[:, 2].reshape(-1, g)
    reps, mean_curve, post_curve = values[:replicates], values[-2], values[-1]
    if not _monotone_in_unit(reps, axis=1):
        raise CheckError("curves.csv: a replicate curve is not monotone in [0, 1]")
    row_mean = reps.mean(axis=0)
    if np.max(np.abs(mean_curve - row_mean)) > CURVE_ABS_TOL:
        raise CheckError("curves.csv: id -1 curve is not the mean of the replicate curves")
    post = posterior(sample.n, sample.mean)
    want_post = np.array([post.cdf(u) for u in grid])
    if np.max(np.abs(post_curve - want_post)) > CURVE_ABS_TOL:
        raise CheckError("curves.csv: id -2 curve is not the posterior CDF")
    # Each point of the mean curve averages B values in [0, 1] whose mean is
    # the exact bagged CDF; union bound over the grid.  Hoeffding bounds the
    # gap whatever the variance; Bernstein, with the variance of one replicate
    # curve at that point, is tighter where that variance is small.
    bag = exact_bag(sample.n, sample.mean)
    law = NormalDist(bag.mean, math.sqrt(bag.variance - post.variance))
    want_bag = np.array([bag.cdf(u) for u in grid])
    log_term = math.log(2.0 * g / CURVES_FALSE_ALARM)
    hoeffding = math.sqrt(log_term / (2.0 * replicates))
    linear = log_term / (3.0 * replicates)
    variance = mc_cdf_variance(grid, post.stdev, law)
    bernstein = linear + np.sqrt(linear**2 + 2.0 * variance * log_term / replicates)
    bound = np.minimum(hoeffding, bernstein)
    excess = np.abs(mean_curve - want_bag) - bound
    worst = int(np.argmax(excess))
    if excess[worst] > 0.0:
        raise CheckError(
            f"curves.csv: mean curve is {abs(mean_curve[worst] - want_bag[worst]):.3g} from the exact bag "
            f"at u={grid[worst]:.6g} (bound {bound[worst]:.3g})"
        )
