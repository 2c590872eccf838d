"""Seeded generation of perturbed datasets: bootstrap and subsample schemes.

Reproducibility contract: the random stream for replicate ``b`` is a pure
function of the pair ``(master, b)`` — each replicate owns its generator, so
replicates can be produced in any order, or concurrently, with identical
results.  Streams are numpy PCG64 generators seeded through
``SeedSequence((master, b))``; Gaussian variates use numpy's ziggurat
``standard_normal``.  Both choices are pinned for a release so that seeded
outputs stay stable.

Replicate ``b``'s posterior depends on its ``(master, b)`` stream only through
the replicate's size and its ``math.fsum`` mean.  :func:`replicate_means`
returns exactly those, from the same draws as :func:`resample`, without
building a :class:`Dataset` per replicate; the Monte Carlo bag is computed
from them.  It builds no generator per replicate either: it computes the
streams' PCG64 states a batch of indices at a time, by numpy's
``SeedSequence`` hash vectorised over ``b``, and loads each into one
reused generator, which makes one call per replicate into a block of
rows; the rest of the work runs once per block.  For the index schemes
(nonparametric and subsample) that call takes the stream's raw 64-bit
words, and the block redoes numpy's draws from them: the bounded 32-bit
integers of ``Generator.integers`` by Lemire's method, and the Floyd
sample of ``Generator.choice(n, m, replace=False)``.  It sums each
replicate exactly in integers, from the observations' integer limbs, and
rounds once, which is ``fsum``'s result.  A replicate whose draws numpy
would reject and redraw, or whose sum the limbs cannot round, is drawn
again on its own; sizes and data where numpy draws otherwise, or which the
limbs cannot hold, take that per-replicate path throughout.
:meth:`Seed.rng` and :func:`resample` stay the reference path that this
reproduces bit for bit.  The parametric bootstrap draws around the center
a :class:`CenterPolicy` names, which :func:`_center` alone computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import _KERNEL_BLOCK, Dataset, GaussianLocationModel, NormalDist, _count, np, posterior

__all__ = [
    "SchemeKind",
    "ResampleScheme",
    "CenterPolicy",
    "Seed",
    "resample",
    "bootstrap_mean_law",
]


class SchemeKind(Enum):
    # in the order the CLI lists its --scheme choices
    PARAMETRIC_BOOTSTRAP = "parametric"
    NONPARAMETRIC_BOOTSTRAP = "nonparametric"
    SUBSAMPLE = "subsample"


@dataclass(frozen=True)
class ResampleScheme:
    """Dataset perturbation policy.

    ``subsample_size`` is for the subsample scheme only (others refuse it);
    ``None`` means the default ceil(n/2) resolved against the data.
    """

    kind: SchemeKind
    subsample_size: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, SchemeKind):
            raise TypeError(f"expected a SchemeKind, got {type(self.kind).__name__}")
        if self.subsample_size is not None:
            if self.kind is not SchemeKind.SUBSAMPLE:
                raise ValueError("only the subsample scheme takes a subsample size")
            size = _count(self.subsample_size)
            if size < 1:
                raise ValueError("subsample_size must be at least 1")
            object.__setattr__(self, "subsample_size", size)

    @classmethod
    def nonparametric(cls) -> "ResampleScheme":
        """Resample the observed data with replacement to the original size."""
        return cls(SchemeKind.NONPARAMETRIC_BOOTSTRAP)

    @classmethod
    def parametric(cls) -> "ResampleScheme":
        """Draw fresh i.i.d. normal data centered at a point estimate."""
        return cls(SchemeKind.PARAMETRIC_BOOTSTRAP)

    @classmethod
    def subsample(cls, size: int | None = None) -> "ResampleScheme":
        """Draw ``size`` observations without replacement (default ceil(n/2))."""
        return cls(SchemeKind.SUBSAMPLE, size)

    def subsample_size_for(self, n: int) -> int:
        """Subsample size against ``n`` observations (default ceil(n/2)).

        Raises ``ValueError`` when the requested size exceeds ``n``.
        """
        m = self.subsample_size if self.subsample_size is not None else (n + 1) // 2
        if m > n:
            raise ValueError("subsample larger than data")
        return m


class CenterPolicy(Enum):
    """Which point estimate centers the parametric bootstrap."""

    SAMPLE_MEAN = "mean"
    MAP = "map"


def _center(policy: CenterPolicy, model: GaussianLocationModel, data: Dataset) -> float:
    """The center ``policy`` names: the sample mean, or the posterior mode (its mean here)."""
    if not isinstance(policy, CenterPolicy):
        raise TypeError(f"expected a CenterPolicy, got {type(policy).__name__}")
    if policy is CenterPolicy.MAP:
        return posterior(model, data).mean
    return data.mean


@dataclass(frozen=True)
class Seed:
    """Master seed plus replicate index; identifies one random stream."""

    master: int
    replicate_index: int = 0

    def __post_init__(self):
        master, index = _count(self.master), _count(self.replicate_index)
        if not 0 <= master < 2**64:
            raise ValueError("master seed must be a 64-bit unsigned integer")
        if index < 0:
            raise ValueError("replicate_index must be non-negative")
        object.__setattr__(self, "master", master)
        object.__setattr__(self, "replicate_index", index)

    def rng(self) -> np.random.Generator:
        """PCG64 generator derived purely from (master, replicate_index)."""
        return np.random.default_rng(
            np.random.SeedSequence((self.master, self.replicate_index))
        )


def _positions(scheme: ResampleScheme, n: int, rng: np.random.Generator) -> np.ndarray:
    """Positions of the observations an index scheme draws from ``rng``."""
    if scheme.kind is SchemeKind.NONPARAMETRIC_BOOTSTRAP:
        return rng.integers(0, n, size=n)
    if scheme.kind is SchemeKind.SUBSAMPLE:
        return rng.choice(n, size=scheme.subsample_size_for(n), replace=False)
    raise ValueError(f"unknown index scheme: {scheme.kind}")  # pragma: no cover


def _draws(
    scheme: ResampleScheme,
    model: GaussianLocationModel,
    values: np.ndarray,
    center: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One replicate's observations, drawn from ``rng`` (see :func:`resample`)."""
    n = values.shape[0]
    if scheme.kind is SchemeKind.PARAMETRIC_BOOTSTRAP:
        return center + math.sqrt(model.sigma_sq) * rng.standard_normal(n)
    return values[_positions(scheme, n, rng)]


def resample(
    scheme: ResampleScheme,
    model: GaussianLocationModel,
    data: Dataset,
    center_policy: CenterPolicy,
    seed: Seed,
) -> Dataset:
    """Generate one perturbed dataset.

    Nonparametric bootstrap: n draws with replacement from the observations.
    Parametric bootstrap: n i.i.d. normal draws with the mean that
    ``center_policy`` names and variance ``model.sigma_sq``.  Subsample: m
    distinct observations drawn without replacement.  Deterministic given
    ``seed``.
    """
    values = np.asarray(data.observations)
    center = _center(center_policy, model, data)
    return Dataset(tuple(_draws(scheme, model, values, center, seed.rng()).tolist()))


# numpy's SeedSequence, with its default pool of four 32-bit words, and the
# PCG64 seeding that default_rng gives it (numpy/random/bit_generator.pyx,
# numpy/random/src/pcg64/pcg64.h).  Every hash constant is fixed, so the
# hash runs on whole arrays of replicate indices: 32-bit products are formed
# in uint64 and masked (each constant is an int below 2**32, which keeps a
# uint64 array uint64).  An entropy of at most four words never reaches the
# pool's extra-entropy loop.
_MASK32 = 0xFFFFFFFF
_SHIFT = 16
_WORD = 32


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    constants = [init]
    while len(constants) < count:
        constants.append(constants[-1] * mult & _MASK32)
    return constants


# the pool's 4 + 12 hashmix calls, and generate_state's 4 uint64 = 8 words
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# replicates seeded per batch, so the hash's arrays stay small whatever B
_SEED_BATCH = 1024


def _hashmix(value: np.ndarray, call: int) -> np.ndarray:
    value = (value ^ _HASH_A[call]) * _HASH_A[call + 1] & _MASK32
    return value ^ value >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # uint64 arrays wrap silently; the low 32 bits are the uint32 result
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> _SHIFT


def _words(value: int) -> list[int]:
    """32-bit words of ``value``, least significant first, as SeedSequence splits it."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _stream_seeds(master: int, start: int, stop: int) -> list[list[int]]:
    """The four 64-bit words of PCG64's seed for ``start <= b < stop``, one list per word."""
    indices = np.arange(start, stop, dtype=np.uint64)
    # an index's high word of 0, which SeedSequence drops, hashes as its absent pool word
    entropy = [np.full_like(indices, word) for word in _words(master)]
    entropy += [indices & _MASK32, indices >> _WORD]
    entropy += [np.zeros_like(indices)] * (4 - len(entropy))
    pool = [_hashmix(word, call) for call, word in enumerate(entropy)]
    call = len(pool)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], call))
                call += 1
    words = []
    for i in range(8):
        word = (pool[i % 4] ^ _HASH_B[i]) * _HASH_B[i + 1] & _MASK32
        words.append(word ^ word >> _SHIFT)
    return [(words[2 * j] | words[2 * j + 1] << _WORD).tolist() for j in range(4)]


def _stream_states(master: int, start: int, stop: int):
    """``bit_generator.state`` of ``Seed(master, b).rng()`` for ``start <= b < stop``.

    Yields one dict per replicate, in order, equal to that of
    ``np.random.default_rng(np.random.SeedSequence((master, b)))``; ``master``
    is below 2**64.  Only the seeds stay alive between the yields.
    """
    # pcg64_set_seed: two LCG steps from state 0, adding the seed in between
    for state_hi, state_lo, inc_hi, inc_lo in zip(*_stream_seeds(master, start, stop)):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULTIPLIER + inc) & _MASK128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


# an observation's integer is split into signed limbs of 31 bits, so a
# replicate's limb sums, at most 2**32 - 1 counts of limbs below 2**31 in
# magnitude, stay below 2**63; the limb table holds at most 4 int64 per
# observation (a spread of about 70 binary orders), and data spread wider
# are summed with fsum
_LIMB_BITS = 31
_MAX_LIMBS = 4


def _limb_table(values: np.ndarray, size: int) -> tuple[np.ndarray, int] | None:
    """Observations as exact integer limbs for sums of ``size`` draws, or None.

    Returns ``(limbs, exponent)``: observation ``i`` equals
    ``sum_k limbs[k, i] * 2**(31 k)`` times ``2**exponent``, where
    ``exponent`` is the lowest set bit over the data.  None when the sum of
    ``size`` observations could reach 2**1022, where fsum's partials may
    overflow (so fsum reports it), when ``size`` counts could overflow a
    limb sum, or when the data's exponent spread needs more than
    ``_MAX_LIMBS`` limbs.
    """
    if size >= 2**32 or size * float(np.max(np.abs(values))) >= 2.0**1022:
        return None
    ratios = [x.as_integer_ratio() for x in values.tolist()]
    exponent = min(
        ((num & -num).bit_length() - den.bit_length() for num, den in ratios if num), default=0
    )
    width = int(np.frexp(values)[1].max()) - exponent
    count = max(1, -(-width // _LIMB_BITS))
    if count > _MAX_LIMBS:
        return None
    mask = (1 << _LIMB_BITS) - 1
    ints = [int(math.ldexp(x, -exponent)) for x in values.tolist()]
    limbs = [
        [(abs(i) >> shift & mask) * (-1 if i < 0 else 1) for i in ints]
        for shift in range(0, count * _LIMB_BITS, _LIMB_BITS)
    ]
    return np.array(limbs, dtype=np.int64), exponent


def _limb_sum(limbs: np.ndarray, exponent: int, counts: np.ndarray) -> float | None:
    """``fsum`` of observation ``i`` taken ``counts[i]`` times, from its limbs (see :func:`_limb_round`)."""
    return _limb_round((limbs @ counts).tolist(), exponent)


def _limb_round(parts, exponent: int) -> float | None:
    """``fsum`` of a replicate whose limb ``k`` sums to ``parts[k]``.

    The exact integer sum is rounded once, as ``fsum`` rounds.  None when
    the sum is 0, whose sign is ``fsum``'s to give, or below 2**-1022,
    where scaling a rounded float would round twice.
    """
    total = 0
    for k, part in enumerate(parts):
        total += part << _LIMB_BITS * k
    if total and total.bit_length() + exponent > -1022:
        return math.ldexp(float(total), exponent)
    return None


def _index_total(scheme: ResampleScheme, values: np.ndarray, table, rng: np.random.Generator) -> float:
    """``fsum`` of one index replicate drawn from ``rng``: from the limbs, or of its draws."""
    positions = _positions(scheme, values.shape[0], rng)
    total = None if table is None else _limb_sum(*table, np.bincount(positions, minlength=values.shape[0]))
    return math.fsum(values[positions].tolist()) if total is None else total


def _lemire(words: np.ndarray, bounds: np.ndarray, out: np.ndarray, low: np.ndarray) -> np.ndarray:
    """numpy's bounded draws below ``bounds`` from 32-bit ``words``, and the rows that reject one.

    ``words`` holds one replicate's 32-bit stream per row, and ``bounds``
    (uint64, each in [2, 2**32)) one bound, or one per column.  Draw ``i``
    is ``(words[i] * bound) >> 32``, written into ``out`` (uint64, of
    ``words``' shape; ``low`` is bool scratch of that shape).  As numpy's
    ``buffered_bounded_lemire_uint32`` does, the draw is rejected when the
    product's low 32 bits are below ``(2**32 - bound) % bound``; numpy then
    takes the next word, which moves every later draw of the row, so the
    row's flag is set.  Returns the flags, one per row.
    """
    np.multiply(words, bounds, out=out, dtype=np.uint64)
    # little-endian: a product's low 32 bits come first
    np.less(out.view(np.uint32)[:, ::2], (2**32 - bounds) % bounds, out=low)
    np.right_shift(out, 32, out=out)
    return low.any(axis=1)


def _floyd(drawn: np.ndarray, n: int) -> None:
    """Turn rows of Floyd draws into the sample they choose from ``n``, in place.

    ``drawn[:, k]`` is draw ``k`` of ``m`` below ``j + 1``, with
    ``j = n - m + k``.  Step ``k`` of Floyd's algorithm, as
    ``Generator.choice(n, m, replace=False)`` runs it, chooses the draw, or
    ``j`` when the draw is chosen already.  A draw is chosen already when an
    earlier draw equals it, or when it equals the ``j`` of an earlier step
    ``i = draw - (n - m)`` that chose its ``j``.  Each step thus points at
    most at one earlier step, and the chains of pointers are followed by
    pointer doubling over the whole block at once.
    """
    rows, m = drawn.shape
    steps = np.arange(m)
    rows_at = np.arange(0, rows * m, m)[:, None]  # flat index of each row's step 0
    # an earlier equal draw: order each row by (draw, step)
    shift = m.bit_length()
    keys = drawn << shift | steps
    keys.sort(axis=1)
    taken = np.zeros(rows * m, dtype=bool)
    taken[(keys[:, 1:] & (1 << shift) - 1) + rows_at] = (keys[:, 1:] ^ keys[:, :-1]) >> shift == 0
    # offset = draw - j <= 0: a draw of an earlier step's j points at that step, others at their own
    offset = np.subtract(drawn, steps + (n - m), out=keys)
    pointer = offset * (offset >= -steps)
    pointer += steps
    pointer += rows_at
    pointer = pointer.reshape(-1)
    while True:
        taken |= taken[pointer]
        hops = pointer[pointer]
        if np.array_equal(hops, pointer):
            break
        pointer = hops
    drawn -= offset * taken.reshape(drawn.shape)


def _block_draws(subsample: bool, n: int, size: int, table) -> bool:
    """Whether a block can redo numpy's draws of an index replicate and sum them in limbs.

    numpy draws a nonparametric replicate with Lemire's method when
    ``2 <= n <= 2**32 - 1`` (it draws nothing for ``n = 1``), and a
    subsample with Floyd's algorithm when ``n <= 10_000`` or
    ``size <= n // 50``, where every step draws when ``size < n``; beyond
    that ``choice`` shuffles.  The 32-bit words are read little-endian.
    """
    if table is None or not np.little_endian or not 1 < n < 2**32:
        return False
    return not subsample or size < n and (n <= 10_000 or size <= n // 50)


def replicate_means(
    scheme: ResampleScheme,
    model: GaussianLocationModel,
    data: Dataset,
    center_policy: CenterPolicy,
    master: int,
    replicates: int,
) -> tuple[int, np.ndarray]:
    """Size and ``fsum`` mean of replicates ``0 .. replicates-1`` of ``master``.

    Element ``b`` equals ``resample(scheme, model, data, center_policy,
    Seed(master, b)).mean`` bit for bit, and every replicate has the same
    size.  Raises ``ValueError`` when a replicate's sum overflows or its
    mean is not finite.

    One generator's state is set to each stream's in turn
    (:func:`_stream_states`, taken lazily), and each replicate makes one
    generator call, into its row of a block of ``_KERNEL_BLOCK // n`` rows
    (at least one) for ``n`` observations; the rest runs once per block.
    The parametric scheme calls ``standard_normal``; its block is scaled
    and shifted at once, and each row summed with ``fsum``.  The index
    schemes call ``random_raw`` for 64-bit words, the 32-bit stream
    that numpy's bounded draws read, each word's low half first.  A block
    redoes numpy's draws from them (:func:`_lemire`, then :func:`_floyd`
    for a subsample) and sums each replicate exactly in integers: its
    drawn observations' limbs (:func:`_limb_table`), rounded once, which
    is ``fsum``'s result (:func:`_limb_round`).  A replicate whose draws
    numpy rejected, or whose limb sum cannot be rounded, is drawn again
    from ``Seed(master, b).rng()`` and summed by :func:`_index_total`.
    Where a block cannot redo numpy's draws (:func:`_block_draws`), every
    replicate takes that path, on the reused generator.
    """
    master = Seed(master).master
    center = _center(center_policy, model, data)
    values = np.asarray(data.observations)
    n = values.shape[0]
    size = scheme.subsample_size_for(n) if scheme.kind is SchemeKind.SUBSAMPLE else n
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    states = (
        state
        for start in range(0, replicates, _SEED_BATCH)
        for state in _stream_states(master, start, min(start + _SEED_BATCH, replicates))
    )
    rows = max(1, min(replicates, _KERNEL_BLOCK // n))
    table = None
    if scheme.kind is not SchemeKind.PARAMETRIC_BOOTSTRAP:
        table = _limb_table(values, size)
    subsample = scheme.kind is SchemeKind.SUBSAMPLE
    means = np.empty(replicates)
    try:
        if scheme.kind is SchemeKind.PARAMETRIC_BOOTSTRAP:
            draws = np.empty((rows, n))
            for start in range(0, replicates, rows):
                block = draws[:min(rows, replicates - start)]
                for row, state in zip(block, states):
                    bit_generator.state = state
                    rng.standard_normal(out=row)
                np.multiply(block, math.sqrt(model.sigma_sq), out=block)
                np.add(block, center, out=block)
                for b, row in enumerate(block, start):
                    means[b] = math.fsum(row.tolist()) / size
        elif not _block_draws(subsample, n, size, table):
            for b, state in enumerate(states):
                bit_generator.state = state
                means[b] = _index_total(scheme, values, table, rng) / size
        else:
            words = np.empty((rows, -(-size // 2)), dtype=np.uint64)
            drawn = np.empty((rows, size), dtype=np.uint64)
            low = np.empty((rows, size), dtype=bool)
            gathered = np.empty((rows, size), dtype=np.int64)
            bounds = np.arange(n - size + 1, n + 1, dtype=np.uint64) if subsample else np.uint64(n)
            limbs, exponent = table
            for start in range(0, replicates, rows):
                block = words[:min(rows, replicates - start)]
                for row, state in zip(block, states):
                    bit_generator.state = state
                    row[:] = bit_generator.random_raw(row.size)
                count = block.shape[0]
                rejected = _lemire(block.view(np.uint32)[:, :size], bounds, drawn[:count], low[:count])
                positions = drawn[:count].view(np.int64)
                if subsample:
                    _floyd(positions, n)
                sums = [
                    np.take(limb, positions, out=gathered[:count], mode="clip").sum(axis=1).tolist()
                    for limb in limbs
                ]
                for b, flag, parts in zip(range(start, start + count), rejected.tolist(), zip(*sums)):
                    total = None if flag else _limb_round(parts, exponent)
                    if total is None:
                        total = _index_total(scheme, values, table, Seed(master, b).rng())
                    means[b] = total / size
    except OverflowError:
        raise ValueError("sum of replicate observations overflows") from None
    if not np.isfinite(means).all():
        raise ValueError("non-finite replicate mean")
    return size, means


def _bootstrap_mean_moments(model: GaussianLocationModel, n: int, center: float):
    """``(mean, variance)`` of :func:`bootstrap_mean_law` for ``n`` observations.

    The variance underflows to 0 when ``n + sigma_sq / tau_sq`` is huge;
    the bagged variance adds the positive posterior variance, so it never does.
    Raises ``ValueError`` when ``n * sigma_sq`` overflows, as it can where
    the variance itself would not.
    """
    shrink = n + model.sigma_sq / model.tau_sq
    spread = n * model.sigma_sq
    if math.isinf(spread):
        raise ValueError(
            f"n * sigma_sq ({n} * {model.sigma_sq:.3g}) overflows, "
            "so the parametric bootstrap's closed form cannot be computed"
        )
    return n * center / shrink, spread / (shrink * shrink)


def bootstrap_mean_law(
    model: GaussianLocationModel,
    data: Dataset,
    center_policy: CenterPolicy = CenterPolicy.SAMPLE_MEAN,
) -> NormalDist:
    """Law of the replicate-posterior mean under the parametric bootstrap.

    With replicate data drawn i.i.d. N(center, sigma_sq) around the center
    ``center_policy`` names, the replicate sample mean is N(center, sigma_sq / n)
    and the posterior mean computed from it is normal with

        mean     = n * center / (n + sigma_sq / tau_sq)
        variance = n * sigma_sq / (n + sigma_sq / tau_sq)^2

    Raises ``ValueError`` when that variance underflows to 0.
    """
    return NormalDist(*_bootstrap_mean_moments(model, data.n, _center(center_policy, model, data)))
