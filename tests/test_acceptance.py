"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints one ``ACCEPTANCE <k> PASS`` line on success (visible with
``pytest -s``); a failing criterion shows up as the usual pytest FAILED line.
Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np

from bayesbag import (
    BagConfig,
    CenterPolicy,
    Dataset,
    GaussianLocationModel,
    MixtureCdf,
    NormalDist,
    ResampleScheme,
    Seed,
    bayesbag_exact,
    bayesbag_mc,
    bayesbag_quadrature,
    credible_interval,
    make_report,
    mixture_cdf_eval,
    mixture_quantile,
    normal_quantile,
    posterior,
    resample,
)
from bayesbag.bagging import _component_values, _mixture_mean
from bayesbag.cli import main
from bayesbag.model import _normal_cdf

MODEL = GaussianLocationModel(tau_sq=4.0, sigma_sq=1.0)
DATA_1 = Dataset((1.325,))
DATA_10 = Dataset((0.72775,) * 10)

# fixed master seed for the Monte Carlo criteria
MC_SEED = 10


def grid_for(dist, points=201):
    return np.linspace(dist.mean - 6 * dist.sd, dist.mean + 6 * dist.sd, points)


def sup_distance(mix, dist, grid):
    curve = _mixture_mean(_component_values(mix, grid))
    target = _normal_cdf(grid, dist.mean, dist.sd)
    return float(np.max(np.abs(curve - target)))


def report(number, text):
    print(f"ACCEPTANCE {number} PASS - {text}")


def test_criterion_1_posterior_rows():
    start = time.perf_counter()
    expected = {1: (-0.69, 2.81), 10: (0.10, 1.32)}
    for data in (DATA_1, DATA_10):
        interval = credible_interval(posterior(MODEL, data), 0.95)
        lo, hi = expected[data.n]
        assert round(interval.lo, 2) == lo
        assert round(interval.hi, 2) == hi
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"posterior rows round to (-0.69, 2.81) and (0.10, 1.32) [{elapsed:.3f}s]")


def test_criterion_2_bagged_rows_exact():
    start = time.perf_counter()
    n1 = credible_interval(bayesbag_exact(MODEL, DATA_1), 0.95)
    assert abs(n1.lo - -1.30) <= 0.015
    assert abs(n1.hi - 3.41) <= 0.015
    n10 = credible_interval(bayesbag_exact(MODEL, DATA_10), 0.95)
    assert abs(n10.lo - -0.16) <= 0.02
    assert abs(n10.hi - 1.56) <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"exact bagged rows within tolerance of (-1.30, 3.41) and (-0.16, 1.56) [{elapsed:.3f}s]")


def test_criterion_3_quadrature_agrees_with_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for data in (DATA_1, DATA_10):
        bag = bayesbag_exact(MODEL, data)
        grid = grid_for(bag, points=201)
        for u, closed in zip(grid, _normal_cdf(grid, bag.mean, bag.sd)):
            gap = abs(bayesbag_quadrature(MODEL, data, u) - closed)
            worst = max(worst, gap)
            assert gap <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, f"quadrature vs closed form, 201-point grids, max gap {worst:.2e} [{elapsed:.3f}s]")


def test_criterion_4_monte_carlo_convergence():
    start = time.perf_counter()
    for data in (DATA_1, DATA_10):
        bag = bayesbag_exact(MODEL, data)
        grid = grid_for(bag, points=201)
        previous = None
        for replicates in (100, 1000, 10_000):
            mix = bayesbag_mc(MODEL, data, BagConfig(replicates=replicates, seed=MC_SEED))
            distance = sup_distance(mix, bag, grid)
            assert distance <= 1.36 / math.sqrt(replicates) + 0.005
            if previous is not None:
                assert distance <= previous
            previous = distance
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"MC sup-distance within DKW-style bound and monotone over B [{elapsed:.3f}s]")


def test_criterion_5_widening_law():
    start = time.perf_counter()
    ratio_c = MODEL.sigma_sq / MODEL.tau_sq
    for n in (1, 10, 100, 10_000):
        data = Dataset((0.72775,) * n)
        width_ratio = (
            credible_interval(bayesbag_exact(MODEL, data), 0.95).width
            / credible_interval(posterior(MODEL, data), 0.95).width
        )
        closed = math.sqrt(1.0 + n / (n + ratio_c))
        assert abs(width_ratio - closed) <= 1e-12
        if n == 10_000:
            assert abs(width_ratio - math.sqrt(2.0)) <= 1e-3
    elapsed = time.perf_counter() - start
    report(5, f"interval-width ratio equals sqrt(1 + n/(n + c)) to 1e-12 [{elapsed:.3f}s]")


def test_criterion_6_property_suites(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # mixture CDF monotonicity and bounds, 1000 random mixtures
    for _ in range(1000):
        size = int(rng.integers(1, 15))
        mix = MixtureCdf(rng.uniform(-10, 10, size), 10.0 ** rng.uniform(-3, 2, size))
        us = np.sort(rng.uniform(-40, 40, 12))
        values = _mixture_mean(_component_values(mix, us))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) >= -1e-13)

    # quantile round trips
    std = NormalDist(0.0, 1.0)
    probs = np.linspace(0.001, 0.999, 200)
    quantiles = np.array([normal_quantile(p, std) for p in probs])
    assert np.max(np.abs(_normal_cdf(quantiles, std.mean, std.sd) - probs)) <= 1e-9
    for _ in range(100):
        size = int(rng.integers(1, 10))
        mix = MixtureCdf(rng.uniform(-5, 5, size), 10.0 ** rng.uniform(-2, 2, size))
        for p in (0.025, 0.5, 0.975):
            assert abs(mixture_cdf_eval(mix, mixture_quantile(mix, p)) - p) <= 1e-9

    # permutation invariance of the posterior
    values = list(rng.uniform(-3, 3, 17))
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert posterior(MODEL, Dataset(tuple(values))) == posterior(MODEL, Dataset(tuple(shuffled)))

    # seed determinism: repeated runs identical, and replicate b depends only
    # on its own stream (checked in reverse order)
    cfg = BagConfig(replicates=400, seed=MC_SEED)
    first = bayesbag_mc(MODEL, DATA_10, cfg)
    second = bayesbag_mc(MODEL, DATA_10, cfg)
    assert first.components == second.components
    center = CenterPolicy.SAMPLE_MEAN
    for b in reversed(range(cfg.replicates)):
        replicate = resample(cfg.scheme, MODEL, DATA_10, center, Seed(cfg.seed, b))
        assert first.components[b] == posterior(MODEL, replicate)

    # CLI byte-level determinism
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    data_file = tmp_path / "obs.csv"
    data_file.write_text("1.325\n", encoding="utf-8")
    args = ["curves", "--input", str(data_file), "--B", "25", "--grid-points", "21",
            "--seed", str(MC_SEED)]
    assert main(args + ["--out", str(run_a)]) == 0
    assert main(args + ["--out", str(run_b)]) == 0
    assert (run_a / "curves.csv").read_bytes() == (run_b / "curves.csv").read_bytes()

    # nonparametric n=1 degeneracy: flagged, no widening
    degenerate = make_report(
        MODEL, DATA_1, BagConfig(replicates=25, seed=MC_SEED, scheme=ResampleScheme.nonparametric())
    )
    assert degenerate.degenerate_resampling_flag
    assert degenerate.widening_ratio == 1.0

    elapsed = time.perf_counter() - start
    report(6, f"property suites: monotone mixtures, round trips, determinism [{elapsed:.3f}s]")


def test_criterion_7_curve_export_band(tmp_path):
    start = time.perf_counter()
    widths = {}
    curves = {}
    for label, value, n in (("n1", 1.325, 1), ("n10", 0.72775, 10)):
        out = tmp_path / label
        data_file = tmp_path / f"{label}.csv"
        data_file.write_text("\n".join([repr(value)] * n) + "\n", encoding="utf-8")
        rc = main([
            "curves", "--input", str(data_file), "--B", "1000",
            "--grid-points", "201", "--seed", str(MC_SEED), "--out", str(out),
        ])
        assert rc == 0

        by_id = {}
        with open(out / "curves.csv", newline="", encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                rid, u, f = line.split(",")
                by_id.setdefault(int(rid), []).append((float(u), float(f)))
        replicate_matrix = np.array(
            [[f for _, f in by_id[b]] for b in range(1000)]
        )
        grid = np.array([u for u, _ in by_id[-1]])
        mean_curve = np.array([f for _, f in by_id[-1]])

        # horizontal extent of the min/max band at the band's center
        # height: the u-range swept by the replicate curves around the
        # posterior mean (the vertical band saturates to [0, 1] for
        # both sample sizes at B=1000, so the parameter-axis width is the
        # quantity that exposes the sample-size effect)
        hi = replicate_matrix.max(axis=0)
        lo = replicate_matrix.min(axis=0)
        left = grid[np.argmax(hi >= 0.5)]
        right = grid[np.argmax(lo >= 0.5)]
        widths[label] = right - left

        data = Dataset((value,) * n)
        bag = bayesbag_exact(MODEL, data)
        target = _normal_cdf(grid, bag.mean, bag.sd)
        curves[label] = float(np.max(np.abs(mean_curve - target)))

    assert widths["n1"] > widths["n10"]
    bound = 1.36 / math.sqrt(1000) + 0.005
    assert curves["n1"] <= bound
    assert curves["n10"] <= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        7,
        "band horizontally wider for n=1 "
        f"({widths['n1']:.2f} vs {widths['n10']:.2f}), mean curve within "
        f"{bound:.4f} of exact [{elapsed:.3f}s]",
    )
