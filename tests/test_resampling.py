"""Tests for seeded dataset perturbation."""

import math

import numpy as np
import pytest

from bayesbag import resampling
from bayesbag import (
    Dataset,
    GaussianLocationModel,
    PointEstimate,
    ResampleScheme,
    Seed,
    bootstrap_mean_law,
    map_point_estimate,
    normal_cdf,
    point_estimate,
    resample,
)

MODEL = GaussianLocationModel(tau_sq=4.0, sigma_sq=1.0)
DATA_1 = Dataset((1.325,))
DATA_10 = Dataset((0.72775,) * 10)


def test_point_estimate_examples():
    assert point_estimate(DATA_1).value == 1.325
    assert point_estimate(Dataset((0.0, 0.0, 0.0, 0.0))).value == 0.0
    assert point_estimate(DATA_10).value == pytest.approx(0.72775, abs=1e-15)


def test_map_point_estimate_examples():
    assert map_point_estimate(MODEL, DATA_1).value == pytest.approx(1.06, abs=1e-12)
    assert map_point_estimate(MODEL, DATA_10).value == pytest.approx(0.71, abs=1e-12)


def test_map_flat_prior_limit():
    flat = GaussianLocationModel(tau_sq=1e12, sigma_sq=1.0)
    estimate = map_point_estimate(flat, DATA_1).value
    assert estimate == pytest.approx(1.325, rel=1e-9)


def test_point_estimate_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        PointEstimate(math.inf)


class TestSeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            Seed(-1)
        with pytest.raises(ValueError):
            Seed(2**64)
        with pytest.raises(ValueError):
            Seed(0, -1)
        Seed(2**64 - 1, 0)

    def test_streams_differ_by_replicate(self):
        a = Seed(5, 0).rng().standard_normal(4)
        b = Seed(5, 1).rng().standard_normal(4)
        assert not np.allclose(a, b)

    def test_stream_is_pure_function_of_pair(self):
        a = Seed(5, 3).rng().standard_normal(4)
        b = np.random.default_rng(np.random.SeedSequence((5, 3))).standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestResample:
    def test_deterministic(self):
        scheme = ResampleScheme.parametric()
        center = point_estimate(DATA_10)
        first = resample(scheme, MODEL, DATA_10, center, Seed(11, 2))
        second = resample(scheme, MODEL, DATA_10, center, Seed(11, 2))
        assert first == second

    def test_full_subsample_is_permutation(self):
        data = Dataset((1.0, 2.0, 3.0, 4.0, 5.0))
        out = resample(
            ResampleScheme.subsample(5), MODEL, data, point_estimate(data), Seed(0, 0)
        )
        assert sorted(out.observations) == sorted(data.observations)

    def test_default_subsample_size_is_half_rounded_up(self):
        data = Dataset((1.0, 2.0, 3.0, 4.0, 5.0))
        out = resample(
            ResampleScheme.subsample(), MODEL, data, point_estimate(data), Seed(0, 0)
        )
        assert out.n == 3
        assert set(out.observations) <= set(data.observations)

    def test_subsample_larger_than_data(self):
        with pytest.raises(ValueError, match="subsample larger than data"):
            resample(
                ResampleScheme.subsample(2), MODEL, DATA_1, point_estimate(DATA_1), Seed(0, 0)
            )

    def test_nonparametric_single_point_is_identity(self):
        for b in range(5):
            out = resample(
                ResampleScheme.nonparametric(), MODEL, DATA_1, point_estimate(DATA_1), Seed(3, b)
            )
            assert out == DATA_1

    def test_nonparametric_closure(self):
        data = Dataset((1.5, -2.0, 0.25, 9.0))
        atoms = set(data.observations)
        for b in range(20):
            out = resample(
                ResampleScheme.nonparametric(), MODEL, data, point_estimate(data), Seed(17, b)
            )
            assert out.n == data.n
            assert set(out.observations) <= atoms

    def test_parametric_grand_mean(self):
        # E[replicate sample mean] is the centering value
        center = PointEstimate(0.71)
        means = [
            resample(ResampleScheme.parametric(), MODEL, DATA_10, center, Seed(99, b)).mean
            for b in range(10_000)
        ]
        assert np.mean(means) == pytest.approx(0.71, abs=0.02)


class TestReplicateMeans:
    def test_equal_resample_means(self):
        data = Dataset((1.5, -2.0, 0.25, 9.0, 3.125))
        for scheme, expected_size in (
            (ResampleScheme.nonparametric(), 5),
            (ResampleScheme.parametric(), 5),
            (ResampleScheme.subsample(), 3),
        ):
            size, means = resampling.replicate_means(
                scheme, MODEL, data, point_estimate(data), 17, 30
            )
            assert size == expected_size
            for b in range(30):
                out = resample(scheme, MODEL, data, point_estimate(data), Seed(17, b))
                assert out.n == size
                assert means[b] == out.mean

    def test_replicate_sum_overflow_is_value_error(self):
        # the data's sum is 0, but a replicate drawing 1e308 twice overflows
        data = Dataset((1e308, -1e308))
        with pytest.raises(ValueError, match="overflows"):
            resampling.replicate_means(
                ResampleScheme.nonparametric(), MODEL, data, point_estimate(data), 1, 20
            )

    def test_non_finite_replicate_mean_is_value_error(self, monkeypatch):
        monkeypatch.setattr(resampling, "_draws", lambda *args: np.array([math.inf, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            resampling.replicate_means(
                ResampleScheme.nonparametric(), MODEL, DATA_10, point_estimate(DATA_10), 1, 3
            )


B_DIST = 10_000


@pytest.fixture(scope="module")
def replicate_means():
    center = point_estimate(DATA_10)
    scheme = ResampleScheme.parametric()
    means = np.array(
        [
            resample(scheme, MODEL, DATA_10, center, Seed(99, b)).mean
            for b in range(B_DIST)
        ]
    )
    return center, means


class TestParametricDistribution:
    def test_mean_and_variance_converge(self, replicate_means):
        center, means = replicate_means
        n = DATA_10.n
        se_mean = math.sqrt(MODEL.sigma_sq / n / B_DIST)
        assert means.mean() == pytest.approx(center.value, abs=3 * se_mean)
        target_var = MODEL.sigma_sq / n
        se_var = target_var * math.sqrt(2.0 / (B_DIST - 1))
        assert means.var(ddof=1) == pytest.approx(target_var, abs=3 * se_var)

    def test_posterior_means_match_bootstrap_mean_law(self, replicate_means):
        center, means = replicate_means
        law = bootstrap_mean_law(MODEL, DATA_10, center)
        shrink = DATA_10.n + MODEL.sigma_sq / MODEL.tau_sq
        post_means = np.sort(DATA_10.n * means / shrink)
        cdf = np.array([normal_cdf(x, law) for x in post_means])
        ranks = np.arange(1, B_DIST + 1)
        ks = max(
            np.max(np.abs(ranks / B_DIST - cdf)),
            np.max(np.abs((ranks - 1) / B_DIST - cdf)),
        )
        assert ks <= 1.36 / math.sqrt(B_DIST) + 0.01


class TestBootstrapMeanLaw:
    def test_single_observation(self):
        law = bootstrap_mean_law(MODEL, DATA_1, point_estimate(DATA_1))
        assert law.mean == pytest.approx(1.06, abs=1e-12)
        assert law.variance == pytest.approx(0.64, abs=1e-12)

    def test_ten_observations(self):
        law = bootstrap_mean_law(MODEL, DATA_10, point_estimate(DATA_10))
        assert law.mean == pytest.approx(0.71, abs=1e-12)
        assert law.variance == pytest.approx(10.0 / 10.25**2, abs=1e-15)

    def test_noiseless_limit_concentrates(self):
        quiet = GaussianLocationModel(tau_sq=4.0, sigma_sq=1e-12)
        law = bootstrap_mean_law(quiet, DATA_10, point_estimate(DATA_10))
        assert law.variance < 1e-12


def test_scheme_validation():
    with pytest.raises(ValueError):
        ResampleScheme.subsample(0)
    assert ResampleScheme.subsample().subsample_size is None
