"""Tests for exact, quadrature, and Monte Carlo bagged posteriors."""

import collections
import itertools
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayesbag import (
    BagConfig,
    CenterPolicy,
    Dataset,
    GaussianLocationModel,
    MixtureCdf,
    NormalDist,
    QuantilePair,
    ResampleScheme,
    SchemeKind,
    Seed,
    bayesbag_exact,
    bayesbag_mc,
    bayesbag_quadrature,
    bootstrap_mean_law,
    credible_interval,
    mixture_cdf_eval,
    mixture_quantile,
    normal_quantile,
    posterior,
    resample,
)
from bayesbag import bagging
from bayesbag.bagging import _component_values, _mixture_mean
from bayesbag.model import _normal_cdf, _normal_pdf

MODEL = GaussianLocationModel(tau_sq=4.0, sigma_sq=1.0)
DATA_1 = Dataset((1.325,))
DATA_10 = Dataset((0.72775,) * 10)

normal_components = st.builds(
    NormalDist,
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
mixtures = st.lists(normal_components, min_size=1, max_size=12).map(
    lambda comps: MixtureCdf([c.mean for c in comps], [c.variance for c in comps])
)


def _near_degenerate(mean, sd, steps):
    """Mixture whose component means and sds are a few float spacings from ``mean`` and ``sd``."""
    means = [mean + k * math.ulp(mean) for k, _ in steps]
    sds = [sd + k * math.ulp(sd) for _, k in steps]
    return MixtureCdf(means, [s * s for s in sds])


near_degenerate_mixtures = st.builds(
    _near_degenerate,
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=2, max_size=8),
)


def sup_distance_to(mix, dist, grid):
    curve = _mixture_mean(_component_values(mix, grid))
    target = _normal_cdf(grid, dist.mean, dist.sd)
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
        assert bag.mean == pytest.approx(posterior(MODEL, DATA_1).mean / shrink, abs=1e-12)
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
            grid = default_grid(bag)
            for u, closed in zip(grid, _normal_cdf(grid, bag.mean, bag.sd)):
                quad = bayesbag_quadrature(MODEL, data, u)
                assert quad == pytest.approx(closed, abs=1e-9)


class TestMixtureCdfEval:
    def test_identical_components(self):
        comp = NormalDist(1.0, 2.0)
        mix = MixtureCdf([comp.mean] * 5, [comp.variance] * 5)
        us = np.array([-1.0, 1.0, 4.0])
        for u, single in zip(us, _normal_cdf(us, comp.mean, comp.sd)):
            assert mixture_cdf_eval(mix, u) == pytest.approx(single, abs=1e-15)

    def test_large_mixture_close_to_exact(self):
        cfg = BagConfig(replicates=10_000, seed=42)
        mix = bayesbag_mc(MODEL, DATA_1, cfg)
        bag = bayesbag_exact(MODEL, DATA_1)
        dist = sup_distance_to(mix, bag, default_grid(bag))
        assert dist <= 1.36 / math.sqrt(cfg.replicates) + 0.005

    def test_mean_of_identical_rows_is_the_row(self):
        # the pairwise mean of three copies of 0.1 rounds above 0.1
        rows = np.full((2, 3), 0.1)
        assert rows.mean(axis=1)[0] > 0.1
        np.testing.assert_array_equal(_mixture_mean(rows), [0.1, 0.1])

    @given(mixtures, st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_monotone_bounded_sandwich(self, mix, us):
        us = sorted(us)
        values = [mixture_cdf_eval(mix, u) for u in us]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b - a >= -1e-13 for a, b in zip(values, values[1:]))
        comp_values = _normal_cdf(np.array(us)[:, None], mix.means, mix.sds)
        assert np.all(comp_values.min(axis=1) - 1e-12 <= values)
        assert np.all(values <= comp_values.max(axis=1) + 1e-12)


class TestMixtureQuantile:
    def test_single_component(self):
        comp = NormalDist(0.3, 1.7)
        mix = MixtureCdf([comp.mean], [comp.variance])
        for p in (0.025, 0.5, 0.975):
            assert mixture_quantile(mix, p) == pytest.approx(
                normal_quantile(p, comp), abs=1e-9
            )

    def test_symmetric_median(self):
        mix = MixtureCdf([1.0, 3.0], [2.0, 2.0])
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

    @settings(deadline=None)
    @given(near_degenerate_mixtures, st.sampled_from([1e-9, 0.025, 0.5, 0.975]))
    @example(
        # the mixture CDF at the lowest component quantile rounds 6.9e-18 above p
        MixtureCdf(
            [0.005737091110101642, 0.0057370911101016445, 0.005737091110101642,
             0.005737091110101642],
            [0.012191611442939934**2] * 4,
        ),
        0.025,
    )
    def test_near_degenerate_mixture_stays_in_component_bracket(self, mix, p):
        ends = [normal_quantile(p, comp) for comp in mix.components]
        q = mixture_quantile(mix, p)
        assert min(ends) <= q <= max(ends)
        assert abs(mixture_cdf_eval(mix, q) - p) <= 1e-9

    @pytest.mark.parametrize(
        "means, variances, p",
        [
            # brackets 5.5e99 and 4.3e53 wide around quantiles on scales of 1 and 3e-3
            ([0, 0, 0, 0, -5.525e99], [1, 1, 1, 2.17e86, 1], 0.5625),
            ([0, 4.25e53], [1e-5, 1], 1e-9),
        ],
    )
    def test_wide_bracket_closes_by_float_ordinals(self, monkeypatch, means, variances, p):
        # arithmetic bisection spent all 200 steps on these and missed p by 0.26 and 1e-9
        mix, evaluations, evaluate = MixtureCdf(means, variances), [], bagging.mixture_cdf_eval
        monkeypatch.setattr(bagging, "mixture_cdf_eval", lambda mix, u: evaluations.append(u) or evaluate(mix, u))
        q = mixture_quantile(mix, p)
        assert len(evaluations) <= 64
        assert abs(evaluate(mix, q) - p) <= 1e-12

    def test_out_of_range(self):
        mix = MixtureCdf([0.0], [1.0])
        for p in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="probability out of range"):
                mixture_quantile(mix, p)
        with pytest.raises(ValueError, match="non-finite input"):
            mixture_cdf_eval(mix, math.nan)

    def test_all_degenerate_rejected(self):
        # point-mass components are refused when the mixture is built
        with pytest.raises(ValueError, match="variance must be finite and positive"):
            mixture_quantile(MixtureCdf([0.0, 1.0], [0.0, 0.0]), 0.5)

    def test_identical_components_give_their_quantile_bit_for_bit(self):
        comp = NormalDist(0.71, 1.0 / 10.25)
        mix = MixtureCdf([comp.mean] * 20, [comp.variance] * 20)
        for p in (0.025, 0.3, 0.5, 0.975):
            assert mixture_quantile(mix, p) == normal_quantile(p, comp)

    def test_bracket_near_largest_float_does_not_overflow(self):
        # the bracket's ends sum past the largest float, so the midpoint
        # must be formed from halves
        mix = MixtureCdf([1e308, 1.5e308], [1e300, 1e300])
        q = mixture_quantile(mix, 0.5)
        assert math.isfinite(q)
        assert 1e308 < q < 1.5e308

    @pytest.mark.parametrize(
        "scheme",
        [ResampleScheme.nonparametric(), ResampleScheme.subsample(), ResampleScheme.parametric()],
        ids=["nonparametric", "subsample", "parametric"],
    )
    def test_few_cdf_evaluations_per_quantile(self, scheme, monkeypatch):
        # a count, not a timing: Newton steps from the moment-matched start
        # take 3 or 4 evaluations here, where bisection took 35 to 37
        rng = random.Random(20140519)
        data = Dataset(tuple(rng.gauss(0.6, 1.0) for _ in range(100)))
        mix = bayesbag_mc(MODEL, data, BagConfig(10_000, scheme, seed=3))
        evaluate, points = mixture_cdf_eval, []
        monkeypatch.setattr(bagging, "mixture_cdf_eval", lambda mix, u: points.append(u) or evaluate(mix, u))
        for p in (0.025, 0.5, 0.975):
            points.clear()
            q = mixture_quantile(mix, p)
            assert 1 <= len(points) <= 8
            assert abs(evaluate(mix, q) - p) <= 1e-12

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
            resample(cfg.scheme, MODEL, DATA_10, CenterPolicy.SAMPLE_MEAN, Seed(123, 0)),
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
        center = CenterPolicy.SAMPLE_MEAN
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
        for b in range(cfg.replicates):
            post = posterior(MODEL, resample(scheme, MODEL, data, policy, Seed(cfg.seed, b)))
            assert mix.means[b] == post.mean
            assert mix.sds[b] == post.sd

    def test_stream_construction_count_does_not_grow_with_B(self, monkeypatch):
        # a count, not a timing: the streams are seeded in batches, with no
        # SeedSequence or Generator built per replicate
        calls = collections.Counter()

        def counted(name):
            build = getattr(np.random, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return build(*args, **kwargs)

            monkeypatch.setattr(np.random, name, wrapper)

        counted("SeedSequence")
        counted("default_rng")

        def count(replicates):
            calls.clear()
            for scheme in (
                ResampleScheme.parametric(), ResampleScheme.nonparametric(), ResampleScheme.subsample()
            ):
                bayesbag_mc(MODEL, DATA_10, BagConfig(replicates, scheme, seed=5))
            return dict(calls)

        assert count(1000) == count(1)

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
            resample(cfg.scheme, MODEL, DATA_10, CenterPolicy.MAP, Seed(9, 0)),
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
        # below the floor, a level or tail that bisection cannot resolve
        mix = MixtureCdf([0.1, 0.5, 0.9], [0.2, 0.3, 0.2])
        for dist in (NormalDist(0.0, 1.0), mix):
            for level in (1e-12, 1e-16, 0.9999999999999999, math.nan):
                with pytest.raises(ValueError, match=r"each tail \(1 - level\)/2 at least 1.02e-09"):
                    credible_interval(dist, level)

    def test_type_dispatch(self):
        with pytest.raises(TypeError):
            credible_interval(3.0, 0.95)


class TestConfigAndTypes:
    def test_bag_config_validation(self):
        with pytest.raises(ValueError):
            BagConfig(replicates=0)
        with pytest.raises(ValueError):
            BagConfig(seed=-1)
        # only the parametric scheme draws around a center
        for scheme in (ResampleScheme.nonparametric(), ResampleScheme.subsample()):
            with pytest.raises(ValueError, match="only the parametric scheme takes the MAP center"):
                BagConfig(scheme=scheme, center_policy=CenterPolicy.MAP)

    def test_quantile_pair_ordering(self):
        with pytest.raises(ValueError):
            QuantilePair(1.0, 1.0)
        with pytest.raises(ValueError):
            QuantilePair(2.0, 1.0)
        assert QuantilePair(1.0, 2.0).width == 1.0

    def test_mixture_validation(self):
        with pytest.raises(TypeError):
            MixtureCdf([NormalDist(0.0, 1.0)], [1.0])
        with pytest.raises(TypeError):
            MixtureCdf([0.0, lambda u: 0.5], [1.0, 1.0])
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
                MixtureCdf(means, variances)

    def test_components_view_the_arrays(self):
        mix = MixtureCdf([0.5, -1.0, 3.0], [2.0, 1e-6, 0.25])
        components = (NormalDist(0.5, 2.0), NormalDist(-1.0, 1e-6), NormalDist(3.0, 0.25))
        assert len(mix) == 3
        assert mix.components == components
        assert mix.means.tolist() == [c.mean for c in components]
        assert mix.sds.tolist() == [c.sd for c in components]
        assert not (mix.means.flags.writeable or mix.sds.flags.writeable)

    def test_exact_equals_law_plus_posterior_variance(self):
        # independent derivation check: integral of the posterior CDF against
        # the replicate-mean density, by brute-force quadrature over r
        post = posterior(MODEL, DATA_10)
        law = bootstrap_mean_law(MODEL, DATA_10, CenterPolicy.SAMPLE_MEAN)
        bag = bayesbag_exact(MODEL, DATA_10)
        rs = np.linspace(law.mean - 10 * law.sd, law.mean + 10 * law.sd, 40001)
        density = np.exp(-0.5 * ((rs - law.mean) / law.sd) ** 2) / (law.sd * math.sqrt(2 * math.pi))
        us = np.array([0.0, 0.71, 1.5])
        for u, closed in zip(us, _normal_cdf(us, bag.mean, bag.sd)):
            brute = np.trapezoid(_normal_cdf(u, rs, post.sd) * density, rs)
            assert brute == pytest.approx(closed, abs=1e-8)


# The Monte Carlo bag of an index scheme has no closed form.  Its replicate
# posterior mean is close to normal, so the bag is close to
# N(law mean, posterior variance + law variance), and the interval ends sit
# within the Monte Carlo error of a B-component mixture quantile, plus the
# Cornish-Fisher skewness shift and a small allowance for higher moments.
# The law, the error and the bound are those of the benchmark's checks.
STD_NORMAL = statistics.NormalDist()
MC_SE_MULTIPLE = 5.0
MC_APPROX_REL = 5e-4
LAW_NODES = np.linspace(-9.0, 9.0, 3601)
LAW_WEIGHTS = np.array([STD_NORMAL.pdf(x) for x in LAW_NODES])
LAW_WEIGHTS /= LAW_WEIGHTS.sum()
B_INTERVAL = 4000


def replicate_law(data, scheme):
    """Size, normal law and Cornish-Fisher quantile shift of the replicate posterior mean.

    Nonparametric bootstrap: the replicate mean has variance m2 / n and
    third central moment m3 / n^2.  Subsample of m without replacement:
    variance (m2 / m)(n - m)/(n - 1) and third moment
    m3 (n - m)(n - 2m) / (m^2 (n - 1)(n - 2)).
    """
    x = np.array(data.observations)
    n = data.n
    m2, m3 = np.mean((x - data.mean) ** 2), np.mean((x - data.mean) ** 3)
    if scheme.kind is SchemeKind.NONPARAMETRIC_BOOTSTRAP:
        size, var, mu3 = n, m2 / n, m3 / n**2
    else:
        size = scheme.subsample_size_for(n)
        var = m2 / size * (n - size) / (n - 1)
        mu3 = m3 * (n - size) * (n - 2 * size) / (size**2 * (n - 1) * (n - 2))
    scale = size / (size + MODEL.sigma_sq / MODEL.tau_sq)
    law = statistics.NormalDist(scale * data.mean, scale * math.sqrt(var))
    z = STD_NORMAL.inv_cdf(0.975)
    return size, law, law.stdev * mu3 / var**1.5 * (z * z - 1.0) / 6.0


def mc_quantile_se(post_sd, law, p, replicates):
    """Standard error of the p-quantile of a mixture of N(r, post_sd^2), r drawn from ``law``.

    The mixture CDF at the exact quantile q is a mean of B values
    Phi((q - r) / post_sd); the delta method divides its standard error by
    the bag density at q.
    """
    bag = statistics.NormalDist(law.mean, math.sqrt(post_sd**2 + law.variance))
    q = bag.inv_cdf(p)
    values = np.array([STD_NORMAL.cdf((q - law.mean - law.stdev * x) / post_sd) for x in LAW_NODES])
    mean = float(LAW_WEIGHTS @ values)
    var = max(float(LAW_WEIGHTS @ (values - mean) ** 2), 0.0)
    return math.sqrt(var / replicates) / bag.pdf(q)


@pytest.fixture(scope="module")
def normal_samples():
    rng = random.Random(20140519)
    return {n: Dataset(tuple(rng.gauss(0.8, 1.0) for _ in range(n))) for n in (100, 1000)}


class TestIndexSchemeInterval:
    @pytest.mark.parametrize(
        "n, scheme, seed",
        [
            (100, ResampleScheme.nonparametric(), 31),
            (1000, ResampleScheme.nonparametric(), 32),
            (100, ResampleScheme.subsample(), 33),
            (1000, ResampleScheme.subsample(), 34),
            (100, ResampleScheme.subsample(7), 35),
        ],
        ids=["nonparametric-100", "nonparametric-1000", "subsample-100", "subsample-1000",
             "subsample-m7-100"],
    )
    def test_bagged_interval_within_monte_carlo_error_of_law(self, normal_samples, n, scheme, seed):
        data = normal_samples[n]
        size, law, shift = replicate_law(data, scheme)
        post_sd = posterior(MODEL, Dataset((0.0,) * size)).sd
        got = credible_interval(bayesbag_mc(MODEL, data, BagConfig(B_INTERVAL, scheme, seed)))
        bag = statistics.NormalDist(law.mean, math.sqrt(post_sd**2 + law.variance))
        want = (bag.inv_cdf(0.025), bag.inv_cdf(0.975))
        for end, p, want_end in ((got.lo, 0.025, want[0]), (got.hi, 0.975, want[1])):
            se = mc_quantile_se(post_sd, law, p, B_INTERVAL)
            tol = MC_SE_MULTIPLE * se + abs(shift) + MC_APPROX_REL * (want[1] - want[0])
            assert abs(end - want_end) <= tol


# The exact bag of an index scheme.  Its CDF is F(u) = E Phi((u - Y)/s), the
# CDF of Y + sZ, where Y is the replicate posterior mean k * (replicate mean),
# k = size / (size + sigma_sq / tau_sq), and s the replicate posterior sd.
# Gil-Pelaez (Biometrika 38, 1951) inverts its characteristic function
# psi(t) = phi_Y(t) exp(-s^2 t^2 / 2):
#     F(u) = 1/2 - (1/pi) int_0^inf Im[exp(-i t u) psi(t)] / t dt,
# which the Gaussian factor lets stop at t = 9.5 / s, where it is below 3e-20.
EXACT_NODES = 300
EXACT_SPAN = 9.5
# sds of the bag around its mean inside which quantiles are sought: the
# Gauss-Legendre rule resolves exp(-i t u) only for u near the bag
EXACT_REACH = 12.0


class ExactBag:
    """The exact bag of a nonparametric or subsample scheme: its CDF by Gil-Pelaez, its quantiles by bisection.

    Nonparametric bootstrap: phi_Y(t) = (mean_j z_j)^n with z_j = exp(i t k x_j / n).
    Subsample of m without replacement: phi_Y(t) = e_m(z) / C(n, m), with
    z_j = exp(i t k x_j / m), by the convex recurrence
    E_k <- ((j - k)/j) E_k + (k/j) z_j E_{k-1} over j = 1..n, in which no
    binomial coefficient is formed.
    """

    def __init__(self, data, scheme):
        n, x = data.n, np.array(data.observations)
        bootstrap = scheme.kind is SchemeKind.NONPARAMETRIC_BOOTSTRAP
        size = n if bootstrap else scheme.subsample_size_for(n)
        s = posterior(MODEL, Dataset((0.0,) * size)).sd
        k = size / (size + MODEL.sigma_sq / MODEL.tau_sq)
        nodes, weights = np.polynomial.legendre.leggauss(EXACT_NODES)
        half = EXACT_SPAN / s / 2.0
        self.t, weights = half * (nodes + 1.0), half * weights
        z = np.exp(1j * np.outer(k * x / size, self.t))
        if bootstrap:
            phi = z.mean(axis=0) ** n
        else:
            e = np.zeros((size + 1, self.t.size), dtype=complex)
            e[0] = 1.0
            order = np.arange(1, size + 1)[:, None]
            for j, z_j in enumerate(z, start=1):
                e[1:] = (j - order) / j * e[1:] + order / j * z_j * e[:-1]
            phi = e[size]
        self.terms = weights * phi * np.exp(-0.5 * (s * self.t) ** 2) / self.t
        # Y has mean k * mean(x) and a variance of at most k^2 var(x) / size
        mean, sd = k * data.mean, math.sqrt(s * s + k * k * x.var() / size)
        self.bracket = (mean - EXACT_REACH * sd, mean + EXACT_REACH * sd)

    def cdf(self, u):
        return 0.5 - np.imag(np.exp(-1j * np.multiply.outer(u, self.t)) @ self.terms) / math.pi

    def quantile(self, p):
        lo, hi = self.bracket
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if self.cdf(mid) < p else (lo, mid)
        return mid


class TestExactIndexSchemeBag:
    @pytest.mark.parametrize(
        "n, scheme",
        [(6, ResampleScheme.nonparametric()), (8, ResampleScheme.subsample(4))],
        ids=["nonparametric-6", "subsample-8-4"],
    )
    def test_matches_enumeration(self, n, scheme):
        # every equally likely replicate: the 6^6 index draws, or the 70 subsets of 4 of 8
        x = np.random.default_rng(12).normal(0.8, 1.0, n)
        data = Dataset(tuple(x.tolist()))
        if scheme.kind is SchemeKind.NONPARAMETRIC_BOOTSTRAP:
            replicates = np.array(list(itertools.product(x, repeat=n)))
        else:
            replicates = np.array(list(itertools.combinations(x, scheme.subsample_size_for(n))))
        size = replicates.shape[1]
        post = posterior(MODEL, Dataset((0.0,) * size))
        means = size / (size + MODEL.sigma_sq / MODEL.tau_sq) * replicates.mean(axis=1)
        u = np.linspace(x.min() - 1.5, x.max() + 1.5, 41)
        want = _normal_cdf(u[:, None], means, post.sd).mean(axis=1)
        assert np.abs(ExactBag(data, scheme).cdf(u) - want).max() <= 1e-11

    @pytest.mark.parametrize(
        "n, scheme, seed",
        [(1000, ResampleScheme.nonparametric(), 41), (100, ResampleScheme.subsample(), 42)],
        ids=["nonparametric-1000", "subsample-100"],
    )
    def test_monte_carlo_interval_within_its_error_of_exact(self, normal_samples, n, scheme, seed):
        # an endpoint's standard error is that of the mixture CDF at the exact
        # endpoint, sd(component CDFs) / sqrt(B), over the mixture density there
        data, replicates = normal_samples[n], 10_000
        exact = ExactBag(data, scheme)
        mix = bayesbag_mc(MODEL, data, BagConfig(replicates, scheme, seed))
        got = credible_interval(mix)
        for end, p in ((got.lo, 0.025), (got.hi, 0.975)):
            want = exact.quantile(p)
            assert abs(exact.cdf(want) - p) <= 1e-12
            values = _normal_cdf(want, mix.means, mix.sds)
            se = values.std() / math.sqrt(replicates) / _normal_pdf(want, mix.means, mix.sds).mean()
            assert abs(end - want) <= MC_SE_MULTIPLE * se
