"""Tests for the conjugate model and scalar normal machinery."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from bayesbag import (
    Dataset,
    GaussianLocationModel,
    NormalDist,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    posterior,
)
from bayesbag.model import _KERNEL_BLOCK, _ndtr, _normal_pdf, _normal_quantile

MODEL = GaussianLocationModel(tau_sq=4.0, sigma_sq=1.0)

# z such that Phi(z) = 0.975, from an independent high-precision source
# (scipy.special.ndtri)
Z_975 = 1.9599639845400545

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
variances = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestPosterior:
    def test_single_observation(self):
        # oracle: 1 * 1.325 / (1 + 0.25) and (1/4 + 1/1)^-1
        post = posterior(MODEL, Dataset((1.325,)))
        assert post.mean == pytest.approx(1.06, abs=1e-12)
        assert post.variance == pytest.approx(0.8, abs=1e-12)

    def test_ten_observations(self):
        # oracle: 10 * 0.72775 / 10.25 = 0.71 and 1/10.25
        post = posterior(MODEL, Dataset((0.72775,) * 10))
        assert post.mean == pytest.approx(0.71, abs=1e-12)
        assert post.variance == pytest.approx(1.0 / 10.25, abs=1e-15)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            Dataset(())

    def test_non_finite_observation_rejected(self):
        with pytest.raises(ValueError, match="non-finite input"):
            Dataset((1.0, math.nan))
        with pytest.raises(ValueError, match="non-finite input"):
            Dataset((math.inf,))

    @given(st.lists(finite_floats, min_size=1, max_size=30), st.randoms())
    def test_permutation_invariance(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert posterior(MODEL, Dataset(tuple(values))) == posterior(
            MODEL, Dataset(tuple(shuffled))
        )

    @given(st.lists(finite_floats, min_size=1, max_size=30), variances, variances)
    def test_shrinkage_and_variance_bounds(self, values, tau_sq, sigma_sq):
        model = GaussianLocationModel(tau_sq, sigma_sq)
        data = Dataset(tuple(values))
        post = posterior(model, data)
        assert abs(post.mean) <= abs(data.mean) * (1 + 1e-12)
        assert post.variance < min(tau_sq, sigma_sq / data.n)

    def test_precision_overflow_rejected(self):
        # n / sigma_sq overflows, so the posterior variance would be 0
        model = GaussianLocationModel(4.0, 1e-308)
        with pytest.raises(ValueError, match="overflows"):
            posterior(model, Dataset((0.0, 0.0, 0.0)))

    def test_model_validation(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                GaussianLocationModel(bad, 1.0)
            with pytest.raises(ValueError):
                GaussianLocationModel(1.0, bad)


class TestNormalCdf:
    def test_median(self):
        assert normal_cdf(1.06, NormalDist(1.06, 0.8)) == pytest.approx(0.5, abs=1e-12)

    def test_upper_975_point(self):
        dist = NormalDist(2.0, 9.0)
        assert normal_cdf(2.0 + 1.959963985 * 3.0, dist) == pytest.approx(0.975, abs=1e-9)

    def test_limits(self):
        dist = NormalDist(0.0, 1.0)
        assert normal_cdf(-math.inf, dist) == 0.0
        assert normal_cdf(math.inf, dist) == 1.0
        assert normal_cdf(-1e12, dist) == 0.0
        assert normal_cdf(1e12, dist) == 1.0

    def test_against_erf_oracle(self):
        dist = NormalDist(0.0, 1.0)
        for u in np.linspace(-8, 8, 81):
            oracle = 0.5 * (1.0 + special.erf(u / math.sqrt(2.0)))
            assert normal_cdf(u, dist) == pytest.approx(oracle, abs=1e-12)

    @given(finite_floats, finite_floats, finite_floats, variances)
    def test_nondecreasing(self, u1, u2, mean, variance):
        dist = NormalDist(mean, variance)
        lo, hi = min(u1, u2), max(u1, u2)
        assert normal_cdf(lo, dist) <= normal_cdf(hi, dist)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite input"):
            normal_cdf(math.nan, NormalDist(0.0, 1.0))


class TestNormalPdf:
    def test_standard_mode(self):
        assert normal_pdf(0.0, NormalDist(0.0, 1.0)) == pytest.approx(
            0.3989422804014327, abs=1e-12
        )

    def test_scale(self):
        assert normal_pdf(3.0, NormalDist(3.0, 4.0)) == pytest.approx(
            0.5 * 0.3989422804014327, abs=1e-12
        )

    def test_one_sd_out(self):
        # exp(-1/2) / sqrt(2*pi)
        assert normal_pdf(1.0, NormalDist(0.0, 1.0)) == pytest.approx(
            0.24197072451914337, abs=1e-12
        )

    def test_integrates_to_one(self):
        dist = NormalDist(1.3, 2.7)
        grid = np.linspace(dist.mean - 10 * dist.sd, dist.mean + 10 * dist.sd, 20001)
        values = [normal_pdf(u, dist) for u in grid]
        assert np.trapezoid(values, grid) == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_rejected(self):
        # a point mass has no density; it is refused when the NormalDist is built
        with pytest.raises(ValueError, match="variance must be finite and positive"):
            normal_pdf(0.0, NormalDist(0.0, 0.0))

    def test_array_kernel_is_elementwise_and_cannot_overflow(self):
        # z reaches 5e299, whose square would overflow; the density there is 0
        u = np.array([-1e300, -80.0, -1.0, 0.5, 2.5, 1e200])
        values = _normal_pdf(u, 0.5, 2.0)
        dist = NormalDist(0.5, 4.0)
        assert values.tolist() == [normal_pdf(x, dist) for x in u.tolist()]
        expected = [math.exp(-0.5 * ((x - 0.5) / 2.0) ** 2) / (2.0 * math.sqrt(2.0 * math.pi))
                    for x in u[1:-1].tolist()]
        assert values[1:-1] == pytest.approx(expected, rel=1e-15)
        assert values[0] == values[-1] == 0.0


class TestNormalQuantile:
    def test_median_is_mean(self):
        assert normal_quantile(0.5, NormalDist(-3.7, 12.0)) == pytest.approx(-3.7, abs=1e-12)

    def test_reference_row_quantiles(self):
        dist = NormalDist(1.06, 0.8)
        hi = normal_quantile(0.975, dist)
        lo = normal_quantile(0.025, dist)
        assert round(hi, 2) == 2.81
        assert round(lo, 2) == -0.69
        assert hi == pytest.approx(2.813045081153163, abs=1e-10)
        assert lo == pytest.approx(-0.6930450811531628, abs=1e-10)

    def test_round_trip(self):
        dist = NormalDist(0.4, 2.3)
        for p in np.linspace(0.001, 0.999, 500):
            assert abs(normal_cdf(normal_quantile(p, dist), dist) - p) <= 1e-10

    def test_equals_stdlib_inv_cdf_bit_for_bit(self):
        # both tails down to 1e-300 and 1 - 1e-16, and every branch switch of
        # AS241, for unit and non-unit (mean, sd), as one float and as the
        # array of component quantiles a mixture brackets with
        probs = np.concatenate([
            np.linspace(1e-6, 1.0 - 1e-6, 4001),
            10.0 ** -np.linspace(1.0, 300.0, 600),
            1.0 - 10.0 ** -np.linspace(1.0, 16.0, 151),
            [0.075, np.nextafter(0.075, 0.0), 0.925, np.nextafter(0.925, 1.0)],
            [math.exp(-25.0), np.nextafter(math.exp(-25.0), 1.0)],
        ]).tolist()
        dists = [NormalDist(0.0, 1.0), NormalDist(1.06, 0.8), NormalDist(-3.5e4, 6e-6),
                 NormalDist(1e8, 49.0)]
        oracles = [statistics.NormalDist(d.mean, d.sd) for d in dists]
        means = np.array([d.mean for d in dists])
        sds = np.array([d.sd for d in dists])
        for p in probs:
            expected = [oracle.inv_cdf(p) for oracle in oracles]
            assert [normal_quantile(p, d) for d in dists] == expected, p
            assert _normal_quantile(p, means, sds).tolist() == expected, p

    def test_out_of_range_rejected(self):
        dist = NormalDist(0.0, 1.0)
        for p in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match="probability out of range"):
                normal_quantile(p, dist)

    def test_degenerate_rejected(self):
        # a point mass has no quantile; it is refused when the NormalDist is built
        with pytest.raises(ValueError, match="variance must be finite and positive"):
            normal_quantile(0.5, NormalDist(0.0, 0.0))


def _same(a, b):
    """Equal bit patterns, NaN included (0.0 and -0.0 are told apart)."""
    return np.array_equal(np.asarray(a, float).view(np.int64), np.asarray(b, float).view(np.int64))


class TestNormalKernels:
    """The numpy-only kernels behind every normal CDF and quantile."""

    def test_ndtr_against_scipy_dense_sweep(self):
        a = np.concatenate([np.linspace(-38.4, 38.4, 768_001), [-np.inf, np.inf]])
        ours = _ndtr(a)
        ref = special.ndtr(a)
        tiny = np.finfo(float).tiny
        normal = ref >= tiny
        # relative error no looser than 1e-13 wherever scipy's value is a
        # normal float, and 16 ulps on |a| <= 5
        rel = np.abs(ours[normal] - ref[normal]) / ref[normal]
        assert rel.max() <= 1e-13
        central = np.abs(a) <= 5.0
        ulps = np.abs(ours[central] - ref[central]) / np.spacing(ref[central])
        assert ulps.max() <= 16.0
        # past a = -37.5 scipy's value is a subnormal or 0; the kernel's is
        # below the smallest normal float too
        assert np.all((ours[~normal] >= 0.0) & (ours[~normal] < tiny))
        assert ours[-2] == 0.0 and ours[-1] == 1.0

    def test_ndtr_nan_and_no_warning(self):
        # tier-1 turns RuntimeWarning into an error, so any warning fails here
        values = _ndtr(np.array([np.nan, -np.inf, np.inf, -1e308, 1e308, -0.0]))
        assert math.isnan(values[0])
        assert values[1:].tolist() == [0.0, 1.0, 0.0, 1.0, 0.5]
        assert math.isnan(_ndtr(math.nan))

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(
            st.integers(1, 40),
            st.integers(_KERNEL_BLOCK - 3, _KERNEL_BLOCK + 3),
            st.integers(2 * _KERNEL_BLOCK - 3, 2 * _KERNEL_BLOCK + 3),
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_ndtr_elementwise(self, size, seed):
        # output i depends only on input i: not on the array's length, shape
        # or the element's position relative to a block boundary
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 8.0, size)
        special_values = [np.nan, -np.inf, np.inf, 0.0, -11.3137, math.sqrt(2.0), -40.0]
        x[rng.integers(0, size, 20)] = rng.choice(special_values, 20)
        values = _ndtr(x)
        assert values.shape == x.shape
        positions = range(size) if size <= 40 else {
            0, size - 1, _KERNEL_BLOCK - 1, _KERNEL_BLOCK, *rng.integers(0, size, 40).tolist()
        }
        for i in positions:
            if i < size:
                assert _same(values[i], _ndtr(x[i]))  # 0-d input
                assert _same(values[i], _ndtr(x[i:i + 1])[0])
        if size % 2 == 0:
            assert _same(_ndtr(x.reshape(2, -1).T), values.reshape(2, -1).T)

    def test_zero_d_and_empty(self):
        assert isinstance(_ndtr(np.float64(0.3)), float)
        assert _ndtr(np.array(0.3)) == _ndtr(np.array([0.3]))[0]
        assert _ndtr(np.empty(0)).shape == (0,)
        assert _ndtr(np.empty((0, 3))).shape == (0, 3)


class TestTypes:
    def test_dataset_caches_n_and_mean(self):
        data = Dataset((1.0, 2.0, 4.0))
        assert data.n == 3
        assert data.mean == pytest.approx(7.0 / 3.0, abs=1e-15)

    def test_dataset_immutable(self):
        data = Dataset((1.0,))
        with pytest.raises(AttributeError):
            data.observations = (2.0,)

    def test_normal_dist_validation(self):
        with pytest.raises(ValueError):
            NormalDist(0.0, -1.0)
        with pytest.raises(ValueError):
            NormalDist(math.nan, 1.0)
        with pytest.raises(ValueError):
            NormalDist(0.0, math.inf)
        # a point mass has no density or quantile, so it cannot be built
        with pytest.raises(ValueError, match="positive"):
            NormalDist(1.0, 0.0)
