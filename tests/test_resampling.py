"""Tests for seeded dataset perturbation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from bayesbag import resampling
from bayesbag import (
    CenterPolicy,
    Dataset,
    GaussianLocationModel,
    ResampleScheme,
    SchemeKind,
    Seed,
    bootstrap_mean_law,
    resample,
)
from bayesbag.model import _normal_cdf

MODEL = GaussianLocationModel(tau_sq=4.0, sigma_sq=1.0)
DATA_1 = Dataset((1.325,))
DATA_10 = Dataset((0.72775,) * 10)


def test_point_estimate_examples():
    mean = CenterPolicy.SAMPLE_MEAN
    assert resampling._center(mean, MODEL, DATA_1) == 1.325
    assert resampling._center(mean, MODEL, Dataset((0.0, 0.0, 0.0, 0.0))) == 0.0
    assert resampling._center(mean, MODEL, DATA_10) == pytest.approx(0.72775, abs=1e-15)


def test_map_point_estimate_examples():
    assert resampling._center(CenterPolicy.MAP, MODEL, DATA_1) == pytest.approx(1.06, abs=1e-12)
    assert resampling._center(CenterPolicy.MAP, MODEL, DATA_10) == pytest.approx(0.71, abs=1e-12)


def test_map_flat_prior_limit():
    flat = GaussianLocationModel(tau_sq=1e12, sigma_sq=1.0)
    estimate = resampling._center(CenterPolicy.MAP, flat, DATA_1)
    assert estimate == pytest.approx(1.325, rel=1e-9)


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
        center = CenterPolicy.SAMPLE_MEAN
        first = resample(scheme, MODEL, DATA_10, center, Seed(11, 2))
        second = resample(scheme, MODEL, DATA_10, center, Seed(11, 2))
        assert first == second

    def test_full_subsample_is_permutation(self):
        data = Dataset((1.0, 2.0, 3.0, 4.0, 5.0))
        out = resample(
            ResampleScheme.subsample(5), MODEL, data, CenterPolicy.SAMPLE_MEAN, Seed(0, 0)
        )
        assert sorted(out.observations) == sorted(data.observations)

    def test_default_subsample_size_is_half_rounded_up(self):
        data = Dataset((1.0, 2.0, 3.0, 4.0, 5.0))
        out = resample(
            ResampleScheme.subsample(), MODEL, data, CenterPolicy.SAMPLE_MEAN, Seed(0, 0)
        )
        assert out.n == 3
        assert set(out.observations) <= set(data.observations)

    def test_subsample_larger_than_data(self):
        with pytest.raises(ValueError, match="subsample larger than data"):
            resample(
                ResampleScheme.subsample(2), MODEL, DATA_1, CenterPolicy.SAMPLE_MEAN, Seed(0, 0)
            )

    def test_nonparametric_single_point_is_identity(self):
        for b in range(5):
            out = resample(
                ResampleScheme.nonparametric(), MODEL, DATA_1, CenterPolicy.SAMPLE_MEAN, Seed(3, b)
            )
            assert out == DATA_1

    def test_nonparametric_closure(self):
        data = Dataset((1.5, -2.0, 0.25, 9.0))
        atoms = set(data.observations)
        for b in range(20):
            out = resample(
                ResampleScheme.nonparametric(), MODEL, data, CenterPolicy.SAMPLE_MEAN, Seed(17, b)
            )
            assert out.n == data.n
            assert set(out.observations) <= atoms

    def test_parametric_grand_mean(self):
        # E[replicate sample mean] is the centering value, here the MAP 0.71
        center = CenterPolicy.MAP
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
                scheme, MODEL, data, CenterPolicy.SAMPLE_MEAN, 17, 30
            )
            assert size == expected_size
            for b in range(30):
                out = resample(scheme, MODEL, data, CenterPolicy.SAMPLE_MEAN, Seed(17, b))
                assert out.n == size
                assert means[b] == out.mean

    def test_replicate_sum_overflow_is_value_error(self):
        # the data's sum is 0, but a replicate drawing 1e308 twice overflows
        data = Dataset((1e308, -1e308))
        with pytest.raises(ValueError, match="overflows"):
            resampling.replicate_means(
                ResampleScheme.nonparametric(), MODEL, data, CenterPolicy.SAMPLE_MEAN, 1, 20
            )

    def test_non_finite_replicate_mean_is_value_error(self, monkeypatch):
        # only parametric draws can be infinite: an index replicate's sum of
        # finite observations is finite or raises as an overflow.  An
        # infinite center makes every parametric draw infinite.
        monkeypatch.setattr(resampling, "_center", lambda *args: math.inf)
        with pytest.raises(ValueError, match="non-finite"):
            resampling.replicate_means(
                ResampleScheme.parametric(), MODEL, DATA_10, CenterPolicy.SAMPLE_MEAN, 1, 3
            )


def _normal_data(n, seed=1):
    return Dataset(tuple(np.random.default_rng(seed).normal(0.8, 1.0, n).tolist()))


def _resample_means(scheme, data, master, replicates):
    center = CenterPolicy.SAMPLE_MEAN
    return [resample(scheme, MODEL, data, center, Seed(master, b)).mean for b in range(replicates)]


class TestBlockEngine:
    """The block engine's means equal resample's, across block and seeding-batch boundaries."""

    @pytest.mark.parametrize(
        "scheme, n",
        [pytest.param(ResampleScheme.nonparametric(), n, id=f"nonparametric-{n}") for n in (1, 2, 1000)]
        # (10001, 200) is choice's last Floyd case there, (10001, 201) its first tail shuffle
        + [
            pytest.param(ResampleScheme.subsample(m), n, id=f"subsample-{n}-{m}")
            for n, m in ((1, 1), (7, 7), (7, 1), (100, 50), (10001, 200), (10001, 201))
        ]
        + [pytest.param(ResampleScheme.parametric(), n, id=f"parametric-{n}") for n in (1, 10)],
    )
    def test_equal_resample_means(self, scheme, n):
        data = _normal_data(n)
        rows = max(1, resampling._KERNEL_BLOCK // n)
        replicates = max(rows, resampling._SEED_BATCH) + 3
        size, means = resampling.replicate_means(scheme, MODEL, data, CenterPolicy.SAMPLE_MEAN, 29, replicates)
        expected = _resample_means(scheme, data, 29, replicates)
        assert means.tolist() == expected
        assert [math.copysign(1.0, m) for m in means] == [math.copysign(1.0, m) for m in expected]

    def test_rejected_draw_is_flagged(self):
        # 0 * 1000 has low bits 0, below numpy's threshold (2**32 - 1000) % 1000 = 296
        words = np.ones((2, 1000), dtype=np.uint32)
        words[1, 999] = 0
        out, low = np.empty(words.shape, dtype=np.uint64), np.empty(words.shape, dtype=bool)
        assert resampling._lemire(words, np.uint64(1000), out, low).tolist() == [False, True]

    @pytest.mark.parametrize(
        "scheme, n",
        [(ResampleScheme.nonparametric(), 1000), (ResampleScheme.subsample(), 100)],
        ids=["nonparametric", "subsample"],
    )
    def test_flagged_replicates_are_drawn_again(self, scheme, n, monkeypatch):
        lemire = resampling._lemire

        def flag_every_row(*args):
            return np.ones_like(lemire(*args))

        monkeypatch.setattr(resampling, "_lemire", flag_every_row)
        data = _normal_data(n)
        _, means = resampling.replicate_means(scheme, MODEL, data, CenterPolicy.SAMPLE_MEAN, 8, 40)
        assert means.tolist() == _resample_means(scheme, data, 8, 40)

    @pytest.mark.parametrize(
        "scheme",
        [ResampleScheme.nonparametric(), ResampleScheme.subsample(), ResampleScheme.parametric()],
        ids=lambda scheme: scheme.kind.value,
    )
    def test_memory_stays_small(self, scheme):
        # one block of at most _KERNEL_BLOCK cells and one seeding batch;
        # 1,024-row blocks would peak far above this.  A parametric block
        # holds the same cells at 10 observations, where tracing the fsum
        # of each replicate's floats takes 0.3 s, not the 30 s of 1,000.
        n = 10 if scheme.kind is SchemeKind.PARAMETRIC_BOOTSTRAP else 1000
        data, center = _normal_data(n), CenterPolicy.SAMPLE_MEAN
        resampling.replicate_means(scheme, MODEL, data, center, 4, 20)
        tracemalloc.start()
        try:
            resampling.replicate_means(scheme, MODEL, data, center, 4, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


# bounds whose draws numpy rejects at rates from 0 to 1/4 (3 * 2**30 + 1)
LEMIRE_BOUNDS = (2, 3, 7, 1000, 3 * 2**30 + 1, 2**32 - 1)
# Floyd's (n, m) up to choice's cut-over, where n > 10_000 needs m <= n // 50
FLOYD_SIZES = ((2, 1), (5, 3), (8, 7), (100, 50), (100, 99), (1000, 500), (10_000, 9_999), (2**20, 100))


class TestNumpyDraws:
    """The block's draws are numpy's own: a numpy release that changes either algorithm fails here."""

    @staticmethod
    def _words(master, b, count):
        words = Seed(master, b).rng().bit_generator.random_raw(-(-count // 2))
        return words.view(np.uint32)[None, :count]

    @pytest.mark.parametrize("bound", LEMIRE_BOUNDS)
    def test_lemire_equals_integers(self, bound):
        draws, flagged = 9, 0
        out, low = np.empty((1, draws), dtype=np.uint64), np.empty((1, draws), dtype=bool)
        for b in range(300):
            rejected = resampling._lemire(self._words(41, b, draws), np.uint64(bound), out, low)[0]
            flagged += rejected
            if not rejected:
                assert out[0].tolist() == Seed(41, b).rng().integers(0, bound, size=draws).tolist()
        assert 0 < flagged < 300 if bound == 3 * 2**30 + 1 else flagged < 3

    @pytest.mark.parametrize("n, m", FLOYD_SIZES)
    def test_floyd_equals_choice(self, n, m):
        out, low = np.empty((1, m), dtype=np.uint64), np.empty((1, m), dtype=bool)
        bounds = np.arange(n - m + 1, n + 1, dtype=np.uint64)
        for b in range(60):
            if resampling._lemire(self._words(43, b, m), bounds, out, low)[0]:
                continue
            chosen = out.view(np.int64)
            resampling._floyd(chosen, n)
            assert sorted(chosen[0].tolist()) == sorted(Seed(43, b).rng().choice(n, m, replace=False).tolist())


# the masters at and around each 32-bit word boundary of SeedSequence's entropy
STREAM_MASTERS = (0, 5, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1)
STREAM_INDICES = (range(0, 300), range(2**32 - 3, 2**32 + 4))


class TestStreamStates:
    """The batch seeding reproduces numpy's SeedSequence and PCG64 seeding."""

    @pytest.mark.parametrize("master", STREAM_MASTERS)
    def test_states_equal_seed_sequence(self, master):
        for indices in STREAM_INDICES:
            states = list(resampling._stream_states(master, indices.start, indices.stop))
            assert len(states) == len(indices)
            for b, state in zip(indices, states):
                rng = np.random.default_rng(np.random.SeedSequence((master, b)))
                assert state == rng.bit_generator.state

    @pytest.mark.parametrize("master", STREAM_MASTERS)
    def test_reused_generator_draws_equal_fresh_streams(self, master):
        # the float32 draws come first and leave half a 64-bit word buffered,
        # which setting the next state must discard
        def draws(rng):
            return (
                rng.random(3, dtype=np.float32),
                rng.integers(0, 1000, size=7),
                rng.standard_normal(5),
                rng.choice(50, size=20, replace=False),
            )

        bit_generator = np.random.PCG64(0)
        reused = np.random.Generator(bit_generator)
        for indices in STREAM_INDICES:
            for b, state in zip(indices, resampling._stream_states(master, indices.start, indices.stop)):
                bit_generator.state = state
                for got, expected in zip(draws(reused), draws(Seed(master, b).rng())):
                    np.testing.assert_array_equal(got, expected)


magnitudes = st.floats(min_value=1e-300, max_value=1e300)
# spread over the whole range (mostly summed with fsum), or within a few
# decades of a common scale (mostly summed in limbs)
observations = st.one_of(
    st.lists(st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda x: -x)), min_size=1, max_size=12),
    st.tuples(
        st.integers(-980, 980),
        st.lists(st.one_of(st.just(0.0), st.floats(-1e4, 1e4)), min_size=1, max_size=12),
    ).map(lambda scaled: [math.ldexp(x, scaled[0]) for x in scaled[1]]),
)
NEAR_1E_300 = math.nextafter(1e-300, 0.0)


class TestLimbSums:
    """An index replicate's limb sum equals fsum of its draws, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(draws=observations.flatmap(
        lambda values: st.tuples(
            st.just(values),
            st.lists(st.integers(0, 40), min_size=len(values), max_size=len(values)),
        )
    ))
    @example(draws=([1.5], [3])).via("n = 1")
    @example(draws=([0.1, 0.1, -0.2, 0.0, 0.1], [2, 1, 1, 5, 0])).via("repeats, zero")
    @example(draws=([1e300, 1e-300], [1, 1])).via("wide exponent spread")
    @example(draws=([1e-300, -NEAR_1E_300], [1, 1])).via("subnormal sum")
    @example(draws=([1e300] * 3, [40, 0, 40])).via("near overflow")
    def test_limb_sum_equals_fsum(self, draws):
        values, counts = np.array(draws[0]), np.array(draws[1], dtype=np.int64)
        size = max(1, int(counts.sum()))
        table = resampling._limb_table(values, size)
        if table is None:
            event("fsum: data")
            return
        expected = math.fsum(np.repeat(values, counts).tolist())  # no overflow, per the table
        got = resampling._limb_sum(*table, counts)
        event("limbs" if got is not None else "fsum: sum")
        assert got is None or got == expected
        assert got is not None or expected == 0.0 or abs(expected) < 2.0**-1022

    @pytest.mark.parametrize(
        "values, counts",
        [
            ([1e300, 1e-300], [1, 1]),  # more than _MAX_LIMBS limbs
            ([1e308, -1e308], [1, 1]),  # fsum's partials may overflow
            ([2.0**-1074, 1.0], [1, 1]),  # a subnormal observation widens the spread too
        ],
    )
    def test_fsum_fallback_for_data(self, values, counts):
        assert resampling._limb_table(np.array(values), sum(counts)) is None

    @pytest.mark.parametrize(
        "values, counts",
        [
            ([1e-300, -NEAR_1E_300], [1, 1]),  # the sum is 2**-1049, subnormal
            ([0.25, -0.25, 3.0], [2, 2, 0]),  # the sum is 0
        ],
    )
    def test_fsum_fallback_for_sums(self, values, counts):
        table = resampling._limb_table(np.array(values), sum(counts))
        assert table is not None
        assert resampling._limb_sum(*table, np.array(counts)) is None

    @settings(max_examples=60, deadline=None)
    @given(
        values=observations,
        scheme=st.sampled_from([ResampleScheme.nonparametric(), ResampleScheme.subsample()]),
    )
    @example(values=[1e300, 1e-300, -1e300], scheme=ResampleScheme.nonparametric())
    @example(values=[1e-300, -NEAR_1E_300], scheme=ResampleScheme.nonparametric())
    @example(values=[1e308, -1e308], scheme=ResampleScheme.nonparametric())
    # fsum overflows on the way to a finite sum of 1e308
    @example(values=[1e308, -1e308, 1e308], scheme=ResampleScheme.nonparametric())
    def test_replicate_means_equal_resample_path(self, values, scheme):
        data = Dataset(tuple(values))
        center = CenterPolicy.SAMPLE_MEAN
        try:
            expected = [resample(scheme, MODEL, data, center, Seed(3, b)).mean for b in range(8)]
        except ValueError:  # a replicate's sum overflows
            with pytest.raises(ValueError, match="overflows"):
                resampling.replicate_means(scheme, MODEL, data, center, 3, 8)
            return
        _, means = resampling.replicate_means(scheme, MODEL, data, center, 3, 8)
        assert means.tolist() == expected
        assert [math.copysign(1.0, m) for m in means] == [math.copysign(1.0, m) for m in expected]


B_DIST = 10_000


@pytest.fixture(scope="module")
def replicate_means():
    center = CenterPolicy.SAMPLE_MEAN
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
        _, means = replicate_means
        n = DATA_10.n
        se_mean = math.sqrt(MODEL.sigma_sq / n / B_DIST)
        assert means.mean() == pytest.approx(DATA_10.mean, abs=3 * se_mean)
        target_var = MODEL.sigma_sq / n
        se_var = target_var * math.sqrt(2.0 / (B_DIST - 1))
        assert means.var(ddof=1) == pytest.approx(target_var, abs=3 * se_var)

    def test_posterior_means_match_bootstrap_mean_law(self, replicate_means):
        center, means = replicate_means
        law = bootstrap_mean_law(MODEL, DATA_10, center)
        shrink = DATA_10.n + MODEL.sigma_sq / MODEL.tau_sq
        post_means = np.sort(DATA_10.n * means / shrink)
        cdf = _normal_cdf(post_means, law.mean, law.sd)
        ranks = np.arange(1, B_DIST + 1)
        ks = max(
            np.max(np.abs(ranks / B_DIST - cdf)),
            np.max(np.abs((ranks - 1) / B_DIST - cdf)),
        )
        assert ks <= 1.36 / math.sqrt(B_DIST) + 0.01


# skewed, with distinct values, so a draw law that drops, repeats or
# reweights an observation moves the mean, variance or third moment
SKEWED = Dataset((0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0))
B_LAW = 10000


class TestIndexSchemeLaw:
    """Replicate means of the index schemes against their exact moments.

    With the data's central moments m2 and m3 (divisor n), the
    nonparametric replicate mean has mean xbar, variance m2 / n and third
    central moment m3 / n^2; a subsample of m without replacement has
    variance (m2 / m)(n - m)/(n - 1) and third moment
    m3 (n - m)(n - 2m) / (m^2 (n - 1)(n - 2)).  Each moment about the exact
    mean xbar is an average of B i.i.d. terms, checked within 4 standard
    errors estimated from those terms.
    """

    @pytest.mark.parametrize(
        "scheme, seed",
        [(ResampleScheme.nonparametric(), 11), (ResampleScheme.subsample(), 12),
         (ResampleScheme.subsample(3), 13), (ResampleScheme.subsample(8), 14)],
        ids=["nonparametric", "subsample-half", "subsample-3", "subsample-8"],
    )
    def test_moments(self, scheme, seed):
        x = np.array(SKEWED.observations)
        n, xbar = SKEWED.n, SKEWED.mean
        m2, m3 = np.mean((x - xbar) ** 2), np.mean((x - xbar) ** 3)
        if scheme.kind is SchemeKind.NONPARAMETRIC_BOOTSTRAP:
            m, variance, third = n, m2 / n, m3 / n**2
        else:
            m = scheme.subsample_size_for(n)
            variance = m2 / m * (n - m) / (n - 1)
            third = m3 * (n - m) * (n - 2 * m) / (m**2 * (n - 1) * (n - 2))
        center = CenterPolicy.SAMPLE_MEAN
        size, means = resampling.replicate_means(scheme, MODEL, SKEWED, center, seed, B_LAW)
        assert size == m
        deviation = means - xbar
        for terms, exact in ((deviation, 0.0), (deviation**2, variance), (deviation**3, third)):
            se = terms.std() / math.sqrt(B_LAW)
            assert abs(terms.mean() - exact) <= 4.0 * se


class TestBootstrapMeanLaw:
    def test_single_observation(self):
        law = bootstrap_mean_law(MODEL, DATA_1, CenterPolicy.SAMPLE_MEAN)
        assert law.mean == pytest.approx(1.06, abs=1e-12)
        assert law.variance == pytest.approx(0.64, abs=1e-12)

    def test_ten_observations(self):
        law = bootstrap_mean_law(MODEL, DATA_10, CenterPolicy.SAMPLE_MEAN)
        assert law.mean == pytest.approx(0.71, abs=1e-12)
        assert law.variance == pytest.approx(10.0 / 10.25**2, abs=1e-15)

    def test_noiseless_limit_concentrates(self):
        quiet = GaussianLocationModel(tau_sq=4.0, sigma_sq=1e-12)
        law = bootstrap_mean_law(quiet, DATA_10, CenterPolicy.SAMPLE_MEAN)
        assert law.variance < 1e-12


def test_scheme_validation():
    with pytest.raises(ValueError):
        ResampleScheme.subsample(0)
    with pytest.raises(ValueError, match="only the subsample scheme"):
        ResampleScheme(SchemeKind.NONPARAMETRIC_BOOTSTRAP, 5)
    assert ResampleScheme.subsample().subsample_size is None
