"""Self-tests of the benchmark: its checks reject wrong outputs, its span arithmetic is right.

    python3 -m pytest bench -q

The outputs fed to the checks are built here from the closed forms and
rendered the way the CLI renders them (``{:.17g}``), then perturbed.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtr

import checks
import spans
import trace_launcher

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FULL = "{:.17g}".format

pytestmark = pytest.mark.filterwarnings("error")


def rejects(check, *args, match=None):
    with pytest.raises(checks.CheckError, match=match):
        check(*args)


# --- table1 ------------------------------------------------------------------


def table1_csv(bag_shift=0.0, mc=None, row_edit=None):
    """table1.csv with exact (or, for ``mc``, target) values; bag shifted by a share of its width."""
    lines = [checks.TABLE1_HEADER]
    for n, xbar in checks.TABLE1_MEANS.items():
        post = checks.interval(checks.posterior(n, xbar))
        lo, hi = checks.interval(checks.exact_bag(n, xbar))
        shift = bag_shift * (hi - lo)
        bag = (lo + shift, hi + shift)
        method = "exact" if mc is None else f"mc(B={mc})"
        row = [str(n), method, *map(FULL, post + bag), *(f"{v:.2f}" for v in post + bag)]
        if row_edit:
            row = row_edit(n, row)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_table1_accepts_closed_form():
    checks.check_table1(table1_csv())
    checks.check_table1(table1_csv(mc=10000), 10000)


def test_table1_rejects_bag_shifted_by_one_percent_of_width():
    rejects(checks.check_table1, table1_csv(bag_shift=0.01), match="bayesbag")


def test_table1_mc_rejects_bag_shifted_beyond_monte_carlo_error():
    # B=10000 puts one standard error near 0.25% of the width; five of them
    # is the tolerance, so a 2% shift must fail and a 0.25% shift must pass
    checks.check_table1(table1_csv(bag_shift=0.0025, mc=10000), 10000)
    rejects(checks.check_table1, table1_csv(bag_shift=0.02, mc=10000), 10000, match="Monte Carlo")


def test_table1_rejects_wrong_method_rounding_and_rows():
    rejects(checks.check_table1, table1_csv(mc=10000), match="method")
    rejects(checks.check_table1, table1_csv(row_edit=lambda n, r: r[:6] + ["9.99"] + r[7:]), match="2dp")
    rejects(checks.check_table1, table1_csv().rsplit("\n", 2)[0] + "\n", match="rows")


# --- bag: report.csv and cdf.csv ------------------------------------------------


def sample_of(n, seed=3):
    rng = random.Random(seed)
    return checks.Sample.of([rng.gauss(0.7, 1.0) for _ in range(n)])


def report_csv(sample, scheme, bag_shift=0.0, ks=None, widening_scale=1.0):
    post = checks.interval(checks.posterior(sample.n, sample.mean))
    if scheme == "parametric":
        bag_dist = checks.exact_bag(sample.n, sample.mean)
    else:
        size, law, _ = checks._replicate_law(sample, scheme, None)
        post_sd = checks.posterior(size, 0.0).stdev
        bag_dist = NormalDist(law.mean, math.sqrt(post_sd**2 + law.variance))
    lo, hi = checks.interval(bag_dist)
    shift = bag_shift * (hi - lo)
    bag = (lo + shift, hi + shift)
    widening = widening_scale * (bag[1] - bag[0]) / (post[1] - post[0])
    if ks is None:
        ks = checks.normal_sup_distance(checks.posterior(sample.n, sample.mean), bag_dist) - 1e-5
    row = [str(sample.n), "0.95", *map(FULL, post + bag), FULL(widening), FULL(ks), "0"]
    return checks.REPORT_HEADER + "\n" + ",".join(row) + "\n"


def test_parametric_report_accepts_closed_form_and_rejects_shift():
    sample = sample_of(1000)
    checks.check_report(report_csv(sample, "parametric"), sample, "parametric", 1000)
    rejects(checks.check_report, report_csv(sample, "parametric", bag_shift=0.01), sample, "parametric", 1000)


def test_parametric_report_rejects_wrong_ks_and_widening():
    sample = sample_of(1000)
    rejects(checks.check_report, report_csv(sample, "parametric", ks=0.2), sample, "parametric", 1000,
            match="ks")
    rejects(checks.check_report, report_csv(sample, "parametric", widening_scale=1.001), sample,
            "parametric", 1000, match="widening")


@pytest.mark.parametrize("scheme, n", [("nonparametric", 1000), ("subsample", 100)])
def test_monte_carlo_report_tolerance(scheme, n):
    sample = sample_of(n)
    checks.check_report(report_csv(sample, scheme, ks=0.1), sample, scheme, 10000)
    checks.check_report(report_csv(sample, scheme, bag_shift=0.0025, ks=0.1), sample, scheme, 10000)
    rejects(checks.check_report, report_csv(sample, scheme, bag_shift=0.02, ks=0.1), sample, scheme, 10000,
            match="Monte Carlo")
    rejects(checks.check_report, report_csv(sample, scheme, bag_shift=-0.02, ks=0.1), sample, scheme, 10000,
            match="Monte Carlo")


def test_monte_carlo_standard_error_matches_simulation():
    # simulate the mixture quantile directly and compare its spread with the formula
    rng = np.random.default_rng(7)
    post_sd, law, replicates = 0.3, NormalDist(1.0, 0.25), 400
    target = NormalDist(law.mean, math.sqrt(post_sd**2 + law.variance)).inv_cdf(0.025)
    grid = np.linspace(target - 0.6, target + 0.6, 1201)
    quantiles = []
    for _ in range(300):
        r = rng.normal(law.mean, law.stdev, replicates)
        cdf = ndtr((grid[:, None] - r[None, :]) / post_sd).mean(axis=1)
        quantiles.append(grid[np.searchsorted(cdf, 0.025)])
    se = checks.mc_quantile_se(post_sd, law, 0.025, replicates)
    assert se > 10 * (grid[1] - grid[0])
    assert 0.8 < np.std(quantiles) / se < 1.2


def cdf_csv(edit=None):
    grid = np.linspace(-3.0, 3.0, 401)
    post, bag = NormalDist(0.0, 1.0), NormalDist(0.0, 1.4)
    rows = [[u, post.cdf(u), bag.cdf(u)] for u in grid]
    if edit:
        edit(rows)
    return "u,F_posterior,F_bayesbag\n" + "".join(",".join(map(FULL, r)) + "\n" for r in rows)


def test_cdf_check():
    checks.check_cdf(cdf_csv())

    def swap(rows):
        rows[100][2], rows[101][2] = rows[101][2], rows[100][2]

    rejects(checks.check_cdf, cdf_csv(swap), match="monotone")
    rejects(checks.check_cdf, cdf_csv(lambda rows: rows[-1].__setitem__(1, 1.0 + 1e-9)), match="monotone")
    rejects(checks.check_cdf, cdf_csv(lambda rows: rows.pop()), match="rows")


# --- curves.csv -------------------------------------------------------------------

B, G = 60, 21


def curves_csv(sample, center_shift=0.0, law_var_scale=1.0, edit=None, replicates=B, grid_points=G):
    """Replicate curves from draws of the parametric replicate-mean law (its variance scaled)."""
    post = checks.posterior(sample.n, sample.mean)
    bag = checks.exact_bag(sample.n, sample.mean)
    law_sd = math.sqrt(law_var_scale * (bag.variance - post.variance))
    rng = random.Random(11)
    grid = np.linspace(post.mean - 6 * bag.stdev, post.mean + 6 * bag.stdev, grid_points)
    # erfc keeps the far lower tail monotone, as the program's curves are
    reps = np.array(
        [
            [0.5 * math.erfc((r - u) / (post.stdev * math.sqrt(2.0))) for u in grid]
            for r in (rng.gauss(post.mean + center_shift, law_sd) for _ in range(replicates))
        ]
    )
    curves = {b: reps[b] for b in range(replicates)}
    curves[-1] = reps.mean(axis=0)
    curves[-2] = np.array([post.cdf(u) for u in grid])
    if edit:
        edit(curves)
    ids = [*range(replicates), -1, -2]
    lines = [f"{b},{FULL(u)},{FULL(f)}" for b in ids for u, f in zip(grid, curves[b])]
    return "replicate_id,u,F\n" + "\n".join(lines) + "\n"


def test_curves_accepts_consistent_export():
    sample = sample_of(100)
    checks.check_curves(curves_csv(sample), sample, B, G)


def test_curves_rejects_perturbed_exports():
    sample = sample_of(100)
    good = curves_csv(sample)
    rejects(checks.check_curves, good[:-40], sample, B, G, match="truncated")
    rejects(checks.check_curves, good.rsplit("\n", 2)[0] + "\n", sample, B, G, match="rows")

    def swap(curves):
        curves[5][8], curves[5][9] = curves[5][9], curves[5][8]

    rejects(checks.check_curves, curves_csv(sample, edit=swap), sample, B, G, match="monotone")

    def nudge_mean(curves):
        curves[-1] = curves[-1] + 1e-6

    rejects(checks.check_curves, curves_csv(sample, edit=nudge_mean), sample, B, G, match="mean of the replicate")

    def nudge_posterior(curves):
        curves[-2] = curves[-2] * (1 + 1e-6)

    rejects(checks.check_curves, curves_csv(sample, edit=nudge_posterior), sample, B, G, match="posterior")
    # replicates drawn around a center three bagged sds off: mean curve leaves the Hoeffding band
    off = 3 * checks.exact_bag(sample.n, sample.mean).stdev
    rejects(checks.check_curves, curves_csv(sample, center_shift=off), sample, B, G, match="exact bag")


def test_curves_band_at_workload_size_rejects_doubled_replicate_variance():
    """At B=1000 the per-point band catches a replicate law with twice the variance.

    That moves the mean curve at most about 0.05 from the exact bag, inside
    the Hoeffding band (about 0.1) but not inside the Bernstein one.
    """
    sample, replicates, grid_points = sample_of(100), 1000, 101
    good = curves_csv(sample, replicates=replicates, grid_points=grid_points)
    checks.check_curves(good, sample, replicates, grid_points)
    wide = curves_csv(sample, law_var_scale=2.0, replicates=replicates, grid_points=grid_points)
    rejects(checks.check_curves, wide, sample, replicates, grid_points, match="exact bag")


def test_curve_variance_matches_simulation():
    sample = sample_of(100)
    post = checks.posterior(sample.n, sample.mean)
    bag = checks.exact_bag(sample.n, sample.mean)
    law = NormalDist(bag.mean, math.sqrt(bag.variance - post.variance))
    grid = np.linspace(bag.mean - 3 * bag.stdev, bag.mean + 3 * bag.stdev, 7)
    draws = np.random.default_rng(5).normal(law.mean, law.stdev, 1_000_000)
    simulated = ndtr((grid[:, None] - draws[None, :]) / post.stdev).var(axis=1)
    assert np.allclose(checks.mc_cdf_variance(grid, post.stdev, law), simulated, rtol=0.05, atol=0.0)


# --- spans ---------------------------------------------------------------------------


def test_covered_length_merges_overlaps():
    assert spans.covered_length([(1, 4), (3, 6), (8, 9), (8.5, 8.7)]) == pytest.approx(6.0)
    assert spans.covered_length([]) == 0.0


def test_self_time_on_hand_built_trace():
    trace = [
        ("cli.main", 0.0, 10.0, -1),
        ("bagging.bayesbag_mc", 1.0, 4.0, 0),
        ("model.posterior", 3.0, 6.0, 0),  # overlaps its sibling: the union counts once
        ("resampling.resample", 1.5, 2.0, 1),
        ("resampling.rng", 1.6, 1.8, 3),
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.5, 3.0, 0.3, 0.2])


def test_layer_metrics_on_hand_built_trace():
    trace = {
        "imports": {"numpy": 0.1, "scipy.special": 0.2, "bayesbag": 0.05},
        "spans": [
            ["cli.main", 0.0, 10.0, -1],
            ["cli.parse", 0.0, 0.5, 0],
            ["diagnostics.bagged_cdf_curves", 1.0, 9.0, 0],
            ["bagging.bayesbag_mc", 1.0, 5.0, 2],
            ["resampling.resample", 1.0, 2.0, 3],
            ["resampling.resample", 2.0, 3.0, 3],
            ["bagging.mixture_quantile", 6.0, 8.0, 2],
            ["bagging.mixture_cdf_eval", 6.0, 6.5, 6],
            ["bagging.mixture_cdf_eval", 7.0, 7.5, 6],
            ["bagging.mixture_cdf_eval", 7.5, 8.0, 6],
        ],
        "counts": {"bagging.replicates": 2, "diagnostics.grid_cells": 40},
        "absent": [],
    }
    m = spans.layer_metrics([trace, trace], bytes_written=123)
    assert m["import.scipy_special_s"] == pytest.approx(0.4)
    assert m["cli.self_s"] == pytest.approx(2 * 1.5)  # 10 - (0.5 + 8)
    assert m["cli.parse_s"] == pytest.approx(1.0)
    assert m["diagnostics.grid_eval_s"] == pytest.approx(2 * 2.0)  # 8 - (4 + 2)
    assert m["bagging.bayesbag_mc_self_s"] == pytest.approx(2 * 2.0)
    assert m["resampling.resample_calls"] == 4
    assert m["bagging.replicates_per_s"] == pytest.approx(4 / 8.0)
    assert m["bagging.cdf_evals_per_quantile"] == pytest.approx(3.0)
    assert m["diagnostics.grid_cells"] == 80
    assert m["cli.bytes_written"] == 123
    assert m["model.posterior_s"] == 0.0
    assert set(m) == set(spans.LAYER_METRICS) - {"trace.overhead_s"}


# --- trace launcher and whole runs -----------------------------------------------------


def test_absent_hook_is_reported_not_raised(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(trace_launcher, "SPAN_HOOKS", (("gone", "bayesbag.cli", "no_such_function"),))
    monkeypatch.setattr(trace_launcher, "COUNT_HOOKS", (("gone2", "bayesbag.no_such_module", "f", len),))
    recorder = trace_launcher.Recorder()
    trace_launcher.install(recorder)
    assert recorder.absent == [
        "gone2 (bayesbag.no_such_module.f)",
        "gone (bayesbag.cli.no_such_function)",
    ]


def test_traced_table1_writes_spans(tmp_path):
    trace_path = tmp_path / "trace.json"
    argv = [sys.executable, str(BENCH / "trace_launcher.py"), str(ROOT / "src"), str(trace_path),
            "--", "table1", "--out", str(tmp_path)]
    subprocess.run(argv, check=True, capture_output=True, timeout=120)
    trace = json.loads(trace_path.read_text())
    names = {s[0] for s in trace["spans"]}
    assert {"cli.main", "cli.parse", "model.posterior", "bagging.bayesbag_exact"} <= names
    assert trace["absent"] == [] and trace["exit"] == 0
    checks.check_table1((tmp_path / "table1.csv").read_text())


def test_run_reports_result_line(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cold-cli", "--seed", "5", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == {"setup_s", "pass_wall_s", "pass_cpu_s", "peak_rss_mb"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold-cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
