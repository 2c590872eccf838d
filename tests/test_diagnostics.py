"""Tests for CDF bands and raw-vs-bagged reports."""

import math
import os
import signal
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bayesbag import (
    BagConfig,
    CenterPolicy,
    Dataset,
    GaussianLocationModel,
    GridSpec,
    ResampleScheme,
    bagged_cdf_curves,
    bayesbag_exact,
    bayesbag_mc,
    build_band,
    credible_interval,
    evaluation_grid,
    make_report,
    mixture_cdf_eval,
    posterior,
)
from bayesbag.bagging import _component_values, _mixture_mean
from bayesbag import diagnostics
from bayesbag.diagnostics import _chunked_curve, _mixture_curve, _runs, _split, _usable_cpus
from bayesbag.model import _KERNEL_BLOCK, _normal_cdf

MODEL = GaussianLocationModel(tau_sq=4.0, sigma_sq=1.0)
DATA_1 = Dataset((1.325,))
DATA_10 = Dataset((0.72775,) * 10)


def band_width_at_median(band):
    """Horizontal extent of the min/max band at CDF level one half."""
    left = band.grid[np.argmax(band.pointwise_hi >= 0.5)]
    right = band.grid[np.argmax(band.pointwise_lo >= 0.5)]
    return right - left


class TestEvaluationGrid:
    def test_default_span(self):
        # under sample-mean centering the bag's mean is the posterior mean,
        # so the grid is centred on both
        for data in (DATA_1, DATA_10, Dataset((100.0, -3.5, 7.25))):
            center = posterior(MODEL, data).mean
            bag = bayesbag_exact(MODEL, data)
            assert bag.mean == center
            span = 6.0 * bag.sd
            np.testing.assert_array_equal(
                evaluation_grid(MODEL, data), np.linspace(center - span, center + span, 401)
            )

    def test_map_centered_bag_inside_default_grid(self):
        # MAP centering shrinks the bag's mean towards 0, far below the
        # posterior mean for one observation of 100: the grid spans both
        data = Dataset((100.0,))
        cfg = BagConfig(replicates=20, center_policy=CenterPolicy.MAP)
        post = posterior(MODEL, data)
        bag = bayesbag_exact(MODEL, data, CenterPolicy.MAP)
        assert bag.mean + 6 * bag.sd < post.mean - 6 * bag.sd
        grid = evaluation_grid(MODEL, data, center_policy=CenterPolicy.MAP)
        assert grid[0] == pytest.approx(bag.mean - 6 * bag.sd)
        assert grid[-1] == pytest.approx(post.mean + 6 * bag.sd)
        report = make_report(MODEL, data, cfg)
        np.testing.assert_array_equal(report.grid, grid)
        assert report.bagged_curve[0] < 1e-8 and report.bagged_curve[-1] == 1.0
        assert report.grid[0] < report.bagged_interval.lo
        band = build_band(MODEL, data, cfg)
        np.testing.assert_array_equal(band.grid, grid)
        assert band.mean_curve[0] < 1e-8

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(points=1)
        with pytest.raises(TypeError):
            GridSpec(5, -1.0, 1.0)


class TestBuildBand:
    def test_identical_replicates_collapse_envelope(self):
        cfg = BagConfig(replicates=2, seed=4, scheme=ResampleScheme.nonparametric())
        band = build_band(MODEL, DATA_1, cfg)
        np.testing.assert_array_equal(band.pointwise_lo, band.mean_curve)
        np.testing.assert_array_equal(band.pointwise_hi, band.mean_curve)

    def test_mean_curve_bit_consistent_with_mixture(self):
        cfg = BagConfig(replicates=200, seed=10)
        band = build_band(MODEL, DATA_10, cfg)
        mix = bayesbag_mc(MODEL, DATA_10, cfg)
        for u, value in zip(band.grid, band.mean_curve):
            assert mixture_cdf_eval(mix, u) == value

    def test_mean_curve_close_to_exact(self):
        cfg = BagConfig(replicates=1000, seed=10)
        band = build_band(MODEL, DATA_1, cfg)
        bag = bayesbag_exact(MODEL, DATA_1)
        target = _normal_cdf(band.grid, bag.mean, bag.sd)
        assert np.max(np.abs(band.mean_curve - target)) <= 1.36 / math.sqrt(1000) + 0.005

    def test_small_sample_band_horizontally_wider(self):
        cfg = BagConfig(replicates=1000, seed=10)
        wide = band_width_at_median(build_band(MODEL, DATA_1, cfg))
        narrow = band_width_at_median(build_band(MODEL, DATA_10, cfg))
        assert wide > narrow

    def test_envelope_ordering_holds(self):
        for seed in (0, 1, 2, 3):
            for replicates in (2, 7, 40):
                cfg = BagConfig(replicates=replicates, seed=seed)
                band = build_band(MODEL, DATA_10, cfg)
                assert np.all(band.pointwise_lo <= band.mean_curve)
                assert np.all(band.mean_curve <= band.pointwise_hi)
                assert np.all(band.per_replicate >= 0.0)
                assert np.all(band.per_replicate <= 1.0)
                assert np.all(np.diff(band.per_replicate, axis=1) >= -1e-13)

    def test_needs_two_replicates(self):
        with pytest.raises(ValueError):
            build_band(MODEL, DATA_1, BagConfig(replicates=1))


class TestMakeReport:
    def test_parametric_exact_widening(self):
        report = make_report(MODEL, DATA_1, BagConfig(replicates=10, seed=1))
        assert report.widening_ratio == pytest.approx(math.sqrt(1.44 / 0.8), rel=1e-12)
        assert report.ks_distance > 0.0
        assert not report.degenerate_resampling_flag

    def test_widening_matches_closed_form(self):
        # sqrt(bag variance / posterior variance) == sqrt(1 + n/(n + sigma_sq/tau_sq))
        for data in (DATA_1, DATA_10):
            report = make_report(MODEL, data, BagConfig(replicates=10, seed=1))
            n = data.n
            closed = math.sqrt(1.0 + n / (n + MODEL.sigma_sq / MODEL.tau_sq))
            assert abs(report.widening_ratio - closed) <= 1e-12

    def test_ten_observation_widening(self):
        report = make_report(MODEL, DATA_10, BagConfig(replicates=10, seed=1))
        assert report.widening_ratio == pytest.approx(1.4055638569974547, rel=1e-12)

    def test_degenerate_nonparametric_single_point(self):
        cfg = BagConfig(replicates=25, seed=6, scheme=ResampleScheme.nonparametric())
        report = make_report(MODEL, DATA_1, cfg)
        assert report.degenerate_resampling_flag
        assert report.widening_ratio == 1.0
        assert report.ks_distance == 0.0

    def test_ks_zero_only_when_degenerate(self):
        cfg = BagConfig(replicates=50, seed=6, scheme=ResampleScheme.nonparametric())
        varied = Dataset((0.2, 1.9, 0.7, 1.1))
        report = make_report(MODEL, varied, cfg)
        assert not report.degenerate_resampling_flag
        assert report.ks_distance > 0.0

    def test_subsample_widens(self):
        varied = Dataset((0.2, 1.9, 0.7, 1.1, 0.5, 0.9))
        cfg = BagConfig(replicates=400, seed=3, scheme=ResampleScheme.subsample())
        report = make_report(MODEL, varied, cfg)
        assert report.widening_ratio > 1.0
        assert not report.degenerate_resampling_flag


class TestReportMixture:
    VARIED = Dataset((0.2, 1.9, 0.7, 1.1, 0.5, 0.9))

    @pytest.mark.parametrize("policy", list(CenterPolicy))
    def test_parametric_mixture_is_the_closed_form(self, policy):
        cfg = BagConfig(10, seed=1, center_policy=policy)
        mix, method = bagged_cdf_curves(MODEL, self.VARIED, cfg)[3:]
        bag = bayesbag_exact(MODEL, self.VARIED, policy)
        assert method == "exact"
        assert mix.means.tolist() == [bag.mean]
        assert mix.variances.tolist() == [bag.variance]

    @pytest.mark.parametrize("scheme", [ResampleScheme.nonparametric(), ResampleScheme.subsample()])
    def test_monte_carlo_mixture_is_bayesbag_mc_bit_for_bit(self, scheme):
        cfg = BagConfig(200, scheme, seed=3)
        mix, method = bagged_cdf_curves(MODEL, self.VARIED, cfg)[3:]
        expected = bayesbag_mc(MODEL, self.VARIED, cfg)
        assert method == "mc(B=200)"
        assert mix.means.tobytes() == expected.means.tobytes()
        assert mix.variances.tobytes() == expected.variances.tobytes()

    @pytest.mark.parametrize(
        "scheme", [ResampleScheme.parametric(), ResampleScheme.nonparametric(), ResampleScheme.subsample()]
    )
    def test_bagged_interval_is_the_mixtures(self, scheme):
        cfg = BagConfig(200, scheme, seed=3)
        mix = bagged_cdf_curves(MODEL, self.VARIED, cfg)[3]
        for level in (0.5, 0.95):
            report = make_report(MODEL, self.VARIED, cfg, level)
            assert report.bagged_interval == credible_interval(mix, level)


class TestChunkedBagCurve:
    REPLICATES = 1000
    CHUNK = _KERNEL_BLOCK // REPLICATES

    @pytest.mark.parametrize("points", [1, 2, CHUNK - 1, CHUNK + 1, 401])
    def test_equals_full_matrix_mean_bit_for_bit(self, points):
        varied = Dataset((0.2, 1.9, 0.7, 1.1, 0.5, 0.9, -0.4))
        cfg = BagConfig(self.REPLICATES, ResampleScheme.nonparametric(), seed=8)
        mix = bayesbag_mc(MODEL, varied, cfg)
        grid = np.linspace(-3.0, 4.0, points)
        np.testing.assert_array_equal(
            _mixture_curve(mix, grid), _mixture_mean(_component_values(mix, grid))
        )

    def test_peak_memory_well_below_full_matrix(self):
        # the full 10,000 x 401 float64 matrix alone is 32 MB
        data = Dataset((0.2, 1.9, 0.7, 1.1, 0.5, 0.9, -0.4, 1.3, 0.8, 0.1))
        cfg = BagConfig(10_000, ResampleScheme.nonparametric(), seed=8)
        tracemalloc.start()
        try:
            curves = bagged_cdf_curves(MODEL, data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert curves[2].shape == (401,)
        assert peak < 8 * 2**20

    def test_band_peak_memory_is_its_matrix(self):
        # the band keeps the 10,000 x 401 float64 matrix (30.6 MiB), and
        # beside it only a block of the kernel's size at a time
        data = Dataset((0.2, 1.9, 0.7, 1.1, 0.5, 0.9, -0.4, 1.3, 0.8, 0.1))
        cfg = BagConfig(10_000, ResampleScheme.nonparametric(), seed=8)
        tracemalloc.start()
        try:
            band = build_band(MODEL, data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert band.per_replicate.shape == (10_000, 401)
        assert peak < band.per_replicate.nbytes + 4 * 2**20

    def test_band_evaluates_each_cell_once(self, monkeypatch):
        # bench/trace_launcher.py counts diagnostics.grid_cells from what
        # diagnostics._component_values returns, so a band must count B x G
        cells, values = [], diagnostics._component_values
        monkeypatch.setattr(
            diagnostics, "_component_values", lambda mix, points: cells.append(values(mix, points)) or cells[-1]
        )
        band = build_band(MODEL, DATA_10, BagConfig(self.REPLICATES, ResampleScheme.nonparametric(), seed=8))
        assert sum(block.size for block in cells) == self.REPLICATES * band.grid.shape[0]
        assert len(cells) > 1


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the grid split forks")
# a 3.12+ interpreter warns on a fork while a BLAS pool runs; the children never use it
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
class TestSplitBagCurve:
    """The bagged curve split across forked processes, with the split forced.

    The threshold is set to 50 grid columns of the 1,000-replicate bag, and
    the CPU count to 3, so a grid of 100 or more points is split in two and
    one of 150 or more in three.
    """

    REPLICATES = 1000
    COLUMNS = 50

    @pytest.fixture
    def mix(self):
        varied = Dataset((0.2, 1.9, 0.7, 1.1, 0.5, 0.9, -0.4))
        return bayesbag_mc(MODEL, varied, BagConfig(self.REPLICATES, ResampleScheme.nonparametric(), seed=8))

    @pytest.fixture
    def forks(self, monkeypatch):
        """Forces the split; the list returned collects the pid of each child forked."""
        monkeypatch.setattr(diagnostics, "_SPLIT_MIN_CELLS", self.COLUMNS * self.REPLICATES)
        monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: 3)
        made, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                made.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return made

    @pytest.mark.parametrize("points, parts", [(99, 1), (100, 2), (149, 2), (150, 3), (401, 3)])
    def test_equals_serial_bit_for_bit(self, mix, forks, points, parts):
        grid = np.linspace(-3.0, 4.0, points)
        curve = _mixture_curve(mix, grid)
        assert len(forks) == parts - 1
        assert curve.tobytes() == _chunked_curve(mix, grid).tobytes()
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "killed"])
    def test_failed_child_gives_the_serial_curve(self, mix, forks, monkeypatch, failure):
        grid = np.linspace(-3.0, 4.0, 401)
        serial = _chunked_curve(mix, grid)
        parent, chunked = os.getpid(), _chunked_curve

        def failing(mix, part):
            if os.getpid() != parent:
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise MemoryError("child")
            return chunked(mix, part)

        monkeypatch.setattr(diagnostics, "_chunked_curve", failing)
        assert _mixture_curve(mix, grid).tobytes() == serial.tobytes()
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("sigchld", [signal.SIG_DFL, signal.SIG_IGN], ids=["default", "ignored"])
    def test_parent_evaluates_only_its_own_part(self, mix, forks, monkeypatch, sigchld):
        grid = np.linspace(-3.0, 4.0, 401)
        parent, chunked, evaluated = os.getpid(), _chunked_curve, []

        def recorded(mix, points):
            if os.getpid() == parent:
                evaluated.append(points.shape[0])
            return chunked(mix, points)

        monkeypatch.setattr(diagnostics, "_chunked_curve", recorded)
        previous = signal.signal(signal.SIGCHLD, sigchld)
        try:
            curve = _mixture_curve(mix, grid)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 2
        assert evaluated == [401 // 3]  # the first of 3 runs, range(0, 133)
        assert curve.tobytes() == chunked(mix, grid).tobytes()
        assert_no_child_left()

    @pytest.mark.parametrize("poisoned", [0, 1, 2], ids=["own-part", "first-child", "last-child"])
    def test_error_in_a_part_is_the_serial_runs(self, mix, forks, monkeypatch, poisoned):
        # every part from ``poisoned`` on fails, and a serial run raises the first one's error
        grid = np.linspace(-3.0, 4.0, 150)
        parts = np.array_split(grid, 3)
        values = diagnostics._component_values

        def poisoned_values(mix, chunk):
            for index in range(poisoned, 3):
                if np.isin(parts[index], chunk).any():
                    raise FloatingPointError(f"part {index}")
            return values(mix, chunk)

        monkeypatch.setattr(diagnostics, "_component_values", poisoned_values)
        with pytest.raises(FloatingPointError) as serial:
            _chunked_curve(mix, grid)
        with pytest.raises(FloatingPointError) as split:
            _mixture_curve(mix, grid)
        assert str(split.value) == str(serial.value) == f"part {poisoned}"
        assert len(forks) == 2
        assert_no_child_left()


@given(
    count=st.integers(0, 1000),
    cells=st.integers(0, 10**6),
    part_cells=st.integers(1, 10**5),
    usable=st.integers(1, 64),
)
def test_runs_cover_the_work_in_order(count, cells, part_cells, usable):
    asked = []
    with pytest.MonkeyPatch.context() as patch:  # forks nothing: only the CPU count is read
        patch.setattr(diagnostics, "_usable_cpus", lambda: asked.append(usable) or usable)
        runs = _runs(count, cells, part_cells)
    could = min(count, cells // part_cells)
    assert len(runs) == max(1, min(could, usable))
    assert asked == ([usable] if could >= 2 else [])
    assert [index for run in runs for index in run] == list(range(count))
    assert all(run.step == 1 for run in runs)
    assert [run.stop for run in runs[:-1]] == [run.start for run in runs[1:]]
    assert max(map(len, runs)) - min(map(len, runs)) <= 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="_split forks")
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
@pytest.mark.parametrize("failure", ["fork", "raises", "killed"])
def test_split_returns_the_unfinished_parts_in_order(monkeypatch, failure):
    # parts 1 and 3 of 4 fail in the way named; 0 and 2 run to their end
    import mmap

    ran, parent, failing, fork = mmap.mmap(-1, 4), os.getpid(), {1, 3}, os.fork
    forked = []

    def fork_or_refuse():
        forked.append(len(forked) + 1)  # the part this fork is for
        if failure == "fork" and forked[-1] in failing:
            raise OSError("no fork")
        return fork()

    def run(k):
        if os.getpid() != parent and k in failing:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise MemoryError(f"part {k}")
        ran[k] = 1

    monkeypatch.setattr(os, "fork", fork_or_refuse)
    assert _split(4, run) == [1, 3]
    assert ran[:] == bytes([1, 0, 1, 0])
    assert forked == [1, 2, 3]
    assert_no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="the grid split is Linux-only")
def test_no_split_while_another_thread_runs():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _usable_cpus() == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
