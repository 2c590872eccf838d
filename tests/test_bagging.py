"""Tests for exact, quadrature, and Monte Carlo bagged posteriors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesbag import (
    BagConfig,
    CenterPolicy,
    Dataset,
    GaussianLocationModel,
    MixtureCdf,
    NormalDist,
    QuantilePair,
    ResampleScheme,
    Seed,
    bayesbag_exact,
    bayesbag_mc,
    bayesbag_quadrature,
    bootstrap_mean_law,
    credible_interval,
    map_point_estimate,
    mixture_cdf_eval,
    mixture_quantile,
    normal_cdf,
    normal_quantile,
    point_estimate,
    posterior,
    resample,
)
from bayesbag.bagging import _component_values, _mixture_mean

MODEL = GaussianLocationModel(tau_sq=4.0, sigma_sq=1.0)
DATA_1 = Dataset((1.325,))
DATA_10 = Dataset((0.72775,) * 10)

normal_components = st.builds(
    NormalDist,
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
mixtures = st.builds(
    MixtureCdf, st.lists(normal_components, min_size=1, max_size=12).map(tuple)
)


def sup_distance_to(mix, dist, grid):
    curve = _mixture_mean(_component_values(mix, grid))
    target = np.array([normal_cdf(u, dist) for u in grid])
    return float(np.max(np.abs(curve - target)))


def default_grid(dist, points=201):
    return np.linspace(dist.mean - 6 * dist.sd, dist.mean + 6 * dist.sd, points)


class TestBayesbagExact:
    def test_single_observation(self):
        bag = bayesbag_exact(MODEL, DATA_1)
        assert bag.mean == pytest.approx(1.06, abs=1e-12)
        assert bag.variance == pytest.approx(0.8 + 0.64, abs=1e-12)
        interval = credible_interval(bag)
        assert interval.lo == pytest.approx(-1.30, abs=0.015)
        assert interval.hi == pytest.approx(3.41, abs=0.015)

    def test_ten_observations(self):
        bag = bayesbag_exact(MODEL, DATA_10)
        assert bag.mean == pytest.approx(0.71, abs=1e-12)
        assert bag.variance == pytest.approx(1.0 / 10.25 + 10.0 / 10.25**2, abs=1e-15)
        interval = credible_interval(bag)
        assert interval.lo == pytest.approx(-0.16, abs=0.02)
        assert interval.hi == pytest.approx(1.56, abs=0.02)

    def test_variance_ratio_limit(self):
        # bagged / posterior variance tends to 2 as n grows
        data = Dataset((0.5,) * 10_000)
        ratio = bayesbag_exact(MODEL, data).variance / posterior(MODEL, data).variance
        assert ratio == pytest.approx(2.0, abs=1e-3)

    def test_strictly_wider_than_posterior(self):
        for data in (DATA_1, DATA_10):
            assert bayesbag_exact(MODEL, data).variance > posterior(MODEL, data).variance

    def test_map_centering_shifts_mean(self):
        bag = bayesbag_exact(MODEL, DATA_1, CenterPolicy.MAP)
        shrink = 1 + MODEL.sigma_sq / MODEL.tau_sq
        assert bag.mean == pytest.approx(
            map_point_estimate(MODEL, DATA_1).value / shrink, abs=1e-12
        )
        assert bag.variance == bayesbag_exact(MODEL, DATA_1).variance


class TestBayesbagQuadrature:
    def test_center_is_half(self):
        mean = posterior(MODEL, DATA_1).mean
        assert bayesbag_quadrature(MODEL, DATA_1, mean) == pytest.approx(0.5, abs=1e-9)

    def test_upper_975_point(self):
        bag = bayesbag_exact(MODEL, DATA_1)
        u = bag.mean + 1.959963985 * bag.sd
        assert bayesbag_quadrature(MODEL, DATA_1, u) == pytest.approx(0.975, abs=1e-9)

    def test_far_tail(self):
        bag = bayesbag_exact(MODEL, DATA_1)
        value = bayesbag_quadrature(MODEL, DATA_1, bag.mean + 12 * bag.sd)
        assert 1.0 - value < 1e-12

    def test_matches_closed_form_on_grid(self):
        for data in (DATA_1, DATA_10):
            bag = bayesbag_exact(MODEL, data)
            for u in default_grid(bag):
                quad = bayesbag_quadrature(MODEL, data, u)
                assert quad == pytest.approx(normal_cdf(u, bag), abs=1e-9)

    def test_node_floor(self):
        with pytest.raises(ValueError):
            bayesbag_quadrature(MODEL, DATA_1, 0.0, nodes=32)


class TestMixtureCdfEval:
    def test_mean_of_two_callables(self):
        mix = MixtureCdf((lambda u: 0.2, lambda u: 0.6))
        assert mixture_cdf_eval(mix, 13.7) == pytest.approx(0.4, abs=1e-15)

    def test_identical_components(self):
        comp = NormalDist(1.0, 2.0)
        mix = MixtureCdf((comp,) * 5)
        for u in (-1.0, 1.0, 4.0):
            assert mixture_cdf_eval(mix, u) == pytest.approx(normal_cdf(u, comp), abs=1e-15)

    def test_large_mixture_close_to_exact(self):
        cfg = BagConfig(replicates=10_000, seed=42)
        mix = bayesbag_mc(MODEL, DATA_1, cfg)
        bag = bayesbag_exact(MODEL, DATA_1)
        dist = sup_distance_to(mix, bag, default_grid(bag))
        assert dist <= 1.36 / math.sqrt(cfg.replicates) + 0.005

    def test_mean_of_identical_rows_is_the_row(self):
        # the pairwise mean of three copies of 0.1 rounds above 0.1
        rows = np.full((3, 2), 0.1)
        assert rows.mean(axis=0)[0] > 0.1
        np.testing.assert_array_equal(_mixture_mean(rows), [0.1, 0.1])

    @given(mixtures, st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_monotone_bounded_sandwich(self, mix, us):
        us = sorted(us)
        values = [mixture_cdf_eval(mix, u) for u in us]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b - a >= -1e-13 for a, b in zip(values, values[1:]))
        for u, v in zip(us, values):
            comp_values = [normal_cdf(u, c) for c in mix.components]
            assert min(comp_values) - 1e-12 <= v <= max(comp_values) + 1e-12


class TestMixtureQuantile:
    def test_single_component(self):
        comp = NormalDist(0.3, 1.7)
        mix = MixtureCdf((comp,))
        for p in (0.025, 0.5, 0.975):
            assert mixture_quantile(mix, p) == pytest.approx(
                normal_quantile(p, comp), abs=1e-9
            )

    def test_symmetric_median(self):
        mix = MixtureCdf((NormalDist(1.0, 2.0), NormalDist(3.0, 2.0)))
        assert mixture_quantile(mix, 0.5) == pytest.approx(2.0, abs=1e-9)

    def test_large_mixture_matches_exact_quantiles(self):
        cfg = BagConfig(replicates=10_000, seed=42)
        exact = credible_interval(bayesbag_exact(MODEL, DATA_10))
        mc = credible_interval(bayesbag_mc(MODEL, DATA_10, cfg))
        assert mc.lo == pytest.approx(exact.lo, abs=0.03)
        assert mc.hi == pytest.approx(exact.hi, abs=0.03)

    @settings(deadline=None)
    @given(mixtures, st.sampled_from([0.025, 0.1, 0.5, 0.9, 0.975]))
    def test_round_trip(self, mix, p):
        q = mixture_quantile(mix, p)
        assert abs(mixture_cdf_eval(mix, q) - p) <= 1e-9

    def test_out_of_range(self):
        mix = MixtureCdf((NormalDist(0.0, 1.0),))
        for p in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="probability out of range"):
                mixture_quantile(mix, p)

    def test_all_degenerate_rejected(self):
        # point-mass components are refused when the mixture is built
        with pytest.raises(ValueError, match="variance must be finite and positive"):
            mixture_quantile(MixtureCdf.normal([0.0, 1.0], [0.0, 0.0]), 0.5)

    def test_identical_components_give_their_quantile_bit_for_bit(self):
        comp = NormalDist(0.71, 1.0 / 10.25)
        mix = MixtureCdf.normal([comp.mean] * 20, [comp.variance] * 20)
        for p in (0.025, 0.3, 0.5, 0.975):
            assert mixture_quantile(mix, p) == normal_quantile(p, comp)

    def test_callable_components_bracketed_by_expansion(self):
        comp = NormalDist(40.0, 9.0)
        mix = MixtureCdf((lambda u: normal_cdf(u, comp),))
        assert mixture_quantile(mix, 0.9) == pytest.approx(
            normal_quantile(0.9, comp), abs=1e-6
        )

    @pytest.mark.parametrize(
        "scheme",
        [ResampleScheme.nonparametric(), ResampleScheme.subsample(), ResampleScheme.parametric()],
    )
    def test_interval_does_not_depend_on_data_scale(self, scheme):
        # the same problem on data near 1e-150 and rescaled to unit data
        unit_values = (0.4967, -0.1383, 0.6477)
        cfg = BagConfig(200, scheme, seed=42)
        tiny = credible_interval(bayesbag_mc(
            GaussianLocationModel(4.0, 1e-300),
            Dataset(tuple(1e-150 * x for x in unit_values)),
            cfg,
        ))
        unit = credible_interval(bayesbag_mc(
            GaussianLocationModel(4e300, 1.0), Dataset(unit_values), cfg
        ))
        assert tiny.lo * 1e150 == pytest.approx(unit.lo, rel=1e-12)
        assert tiny.hi * 1e150 == pytest.approx(unit.hi, rel=1e-12)


class TestBayesbagMc:
    def test_single_replicate_identity(self):
        cfg = BagConfig(replicates=1, seed=123)
        mix = bayesbag_mc(MODEL, DATA_10, cfg)
        expected = posterior(
            MODEL,
            resample(
                cfg.scheme, MODEL, DATA_10, point_estimate(DATA_10), Seed(123, 0)
            ),
        )
        assert mix.components == (expected,)

    def test_nonparametric_single_point_degenerates_to_posterior(self):
        cfg = BagConfig(replicates=50, seed=5, scheme=ResampleScheme.nonparametric())
        mix = bayesbag_mc(MODEL, DATA_1, cfg)
        post = posterior(MODEL, DATA_1)
        assert all(comp == post for comp in mix.components)

    def test_deterministic_and_order_independent(self):
        cfg = BagConfig(replicates=300, seed=7)
        serial = bayesbag_mc(MODEL, DATA_10, cfg)
        again = bayesbag_mc(MODEL, DATA_10, cfg)
        assert serial.components == again.components
        center = point_estimate(DATA_10)
        for b in reversed(range(cfg.replicates)):
            replicate = resample(cfg.scheme, MODEL, DATA_10, center, Seed(cfg.seed, b))
            assert serial.components[b] == posterior(MODEL, replicate)

    @pytest.mark.parametrize(
        "scheme, policy",
        [
            (ResampleScheme.parametric(), CenterPolicy.SAMPLE_MEAN),
            (ResampleScheme.parametric(), CenterPolicy.MAP),
            (ResampleScheme.nonparametric(), CenterPolicy.SAMPLE_MEAN),
            (ResampleScheme.subsample(), CenterPolicy.SAMPLE_MEAN),
            (ResampleScheme.subsample(137), CenterPolicy.SAMPLE_MEAN),
        ],
        ids=["parametric-mean", "parametric-map", "nonparametric", "subsample-default", "subsample-m137"],
    )
    def test_components_equal_resample_path_bit_for_bit(self, scheme, policy):
        data = Dataset(tuple(np.random.default_rng(11).normal(0.4, 1.3, 1000).tolist()))
        cfg = BagConfig(replicates=64, scheme=scheme, seed=2718, center_policy=policy)
        mix = bayesbag_mc(MODEL, data, cfg)
        assert len(mix) == cfg.replicates
        center = (
            map_point_estimate(MODEL, data) if policy is CenterPolicy.MAP else point_estimate(data)
        )
        for b in range(cfg.replicates):
            post = posterior(MODEL, resample(scheme, MODEL, data, center, Seed(cfg.seed, b)))
            assert mix.means[b] == post.mean
            assert mix.sds[b] == post.sd

    def test_paper_interval_reproduced_at_large_B(self):
        cfg = BagConfig(replicates=10_000, seed=42)
        interval = credible_interval(bayesbag_mc(MODEL, DATA_1, cfg))
        assert interval.lo == pytest.approx(-1.30, abs=0.05)
        assert interval.hi == pytest.approx(3.41, abs=0.05)

    def test_distance_shrinks_with_replicates(self):
        for data in (DATA_1, DATA_10):
            bag = bayesbag_exact(MODEL, data)
            grid = default_grid(bag)
            small = sup_distance_to(bayesbag_mc(MODEL, data, BagConfig(replicates=10, seed=42)), bag, grid)
            large = sup_distance_to(bayesbag_mc(MODEL, data, BagConfig(replicates=10_000, seed=42)), bag, grid)
            assert large < small

    def test_map_centering(self):
        cfg = BagConfig(replicates=100, seed=9, center_policy=CenterPolicy.MAP)
        mix = bayesbag_mc(MODEL, DATA_10, cfg)
        expected_first = posterior(
            MODEL,
            resample(
                cfg.scheme, MODEL, DATA_10, map_point_estimate(MODEL, DATA_10), Seed(9, 0)
            ),
        )
        assert mix.components[0] == expected_first


class TestCredibleInterval:
    def test_reference_rows(self):
        pairs = [
            (NormalDist(1.06, 0.8), (-0.69, 2.81)),
            (NormalDist(0.71, 1.0 / 10.25), (0.10, 1.32)),
        ]
        for dist, (lo, hi) in pairs:
            interval = credible_interval(dist, 0.95)
            assert round(interval.lo, 2) == lo
            assert round(interval.hi, 2) == hi

    def test_reference_bag_row(self):
        interval = credible_interval(NormalDist(1.06, 1.44), 0.95)
        assert interval.lo == pytest.approx(-1.30, abs=0.015)
        assert interval.hi == pytest.approx(3.41, abs=0.015)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            credible_interval(NormalDist(0.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            credible_interval(NormalDist(0.0, 1.0), 1.0)

    def test_type_dispatch(self):
        with pytest.raises(TypeError):
            credible_interval(3.0, 0.95)


class TestConfigAndTypes:
    def test_bag_config_validation(self):
        with pytest.raises(ValueError):
            BagConfig(replicates=0)
        with pytest.raises(ValueError):
            BagConfig(seed=-1)

    def test_quantile_pair_ordering(self):
        with pytest.raises(ValueError):
            QuantilePair(1.0, 1.0)
        with pytest.raises(ValueError):
            QuantilePair(2.0, 1.0)
        assert QuantilePair(1.0, 2.0).width == 1.0

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            MixtureCdf(())
        with pytest.raises(TypeError):
            MixtureCdf((3.0,))
        for means, variances in (
            ([], []),
            ([0.0, 1.0], [1.0]),
            ([[0.0]], [[1.0]]),
            ([math.inf], [1.0]),
            ([0.0], [-1.0]),
            ([0.0], [math.nan]),
            ([0.0], [0.0]),
            ([1.0, 2.0], [1.0, 0.0]),
        ):
            with pytest.raises(ValueError):
                MixtureCdf.normal(means, variances)

    def test_array_and_component_forms_agree(self):
        components = (NormalDist(0.5, 2.0), NormalDist(-1.0, 1e-6), NormalDist(3.0, 0.25))
        from_tuple = MixtureCdf(components)
        from_arrays = MixtureCdf.normal([0.5, -1.0, 3.0], [2.0, 1e-6, 0.25])
        assert from_arrays.components == components
        assert from_tuple.components == components
        for mix in (from_tuple, from_arrays):
            assert len(mix) == 3
            assert mix.means.tolist() == [c.mean for c in components]
            assert mix.sds.tolist() == [c.sd for c in components]
        assert mixture_quantile(from_tuple, 0.3) == mixture_quantile(from_arrays, 0.3)
        def half(u):
            return 0.5

        mixed = MixtureCdf((half, components[0]))
        assert mixed.means.tolist() == [0.5] and mixed.callables == (half,)
        assert len(mixed) == 2
        assert mixed.components == (components[0], half)

    def test_callable_component_matches_its_normal(self):
        wide, shifted = NormalDist(0.5, 2.0), NormalDist(3.0, 1.0)
        mixed = MixtureCdf((wide, lambda u: normal_cdf(u, shifted)))
        normal = MixtureCdf((wide, shifted))
        for u in np.linspace(-6.0, 8.0, 57):
            assert mixture_cdf_eval(mixed, u) == pytest.approx(
                mixture_cdf_eval(normal, u), abs=1e-15
            )
        for p in (0.025, 0.5, 0.975):
            assert mixture_quantile(mixed, p) == pytest.approx(
                mixture_quantile(normal, p), abs=1e-9
            )

    def test_exact_equals_law_plus_posterior_variance(self):
        # independent derivation check: integral of the posterior CDF against
        # the replicate-mean density, by brute-force quadrature over r
        post = posterior(MODEL, DATA_10)
        law = bootstrap_mean_law(MODEL, DATA_10, point_estimate(DATA_10))
        bag = bayesbag_exact(MODEL, DATA_10)
        rs = np.linspace(law.mean - 10 * law.sd, law.mean + 10 * law.sd, 40001)
        for u in (0.0, 0.71, 1.5):
            integrand = [
                normal_cdf(u, NormalDist(r, post.variance))
                * math.exp(-0.5 * ((r - law.mean) / law.sd) ** 2)
                / (law.sd * math.sqrt(2 * math.pi))
                for r in rs
            ]
            brute = np.trapezoid(integrand, rs)
            assert brute == pytest.approx(normal_cdf(u, bag), abs=1e-8)
