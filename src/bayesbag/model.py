"""Conjugate Gaussian location model and the normal-distribution kernels.

The model places a zero-centered normal prior with variance ``tau_sq`` on an
unknown location and observes i.i.d. normal data with known noise variance
``sigma_sq``.  After ``n`` observations with sample mean ``xbar`` the
posterior is again normal:

    mean     = n * xbar / (n + sigma_sq / tau_sq)
    variance = 1 / (1 / tau_sq + n / sigma_sq)

Everything downstream (resampling, bagging, diagnostics) is expressed in
terms of the :class:`NormalDist` value type, the array kernels
:func:`_normal_cdf` and :func:`_normal_pdf`, and the quantile helpers defined
here.  Every normal CDF the package computes is an array (a grid, or the
components of a mixture) and goes through one numpy-only kernel, and every
normal quantile through the standard library's:

* :func:`_ndtr`, the standard normal CDF ``Phi(a) = erfc(-a / sqrt(2)) / 2``,
  with the rational approximations of the Cephes library's ``ndtr.c``
  (after W. J. Cody, Math. Comp. 23, 1969): an ``erf`` rational for
  ``|x| < 1``, a P/Q ``erfc`` rational for ``1 <= |x| < 8`` and an R/S one
  beyond, where ``x = a / sqrt(2)``; ``exp(-x^2)`` is split so that the
  rounding of ``x^2`` does not enter.  Its relative error is below 2e-13
  wherever ``Phi(a)`` is a normal float (``a`` above about -37.5), set by
  the rounding of ``x``; it is within 16 ulps of ``scipy.special.ndtr``
  for ``|a| <= 5``.
* ``statistics.NormalDist().inv_cdf``, its inverse for one probability in
  (0, 1): Wichura's algorithm AS241 (Appl. Statist. 37, 1988).

One set of branch functions (:func:`_erf`, :func:`_half_erfc` and the
:func:`_horner` and :func:`_exp_neg_square` they call) works on an array in
fresh buffers of its own.  So :func:`_ndtr` is strictly elementwise: output
``i`` depends only on input ``i``, whatever the array's shape or the
element's position in it, and a scalar evaluation equals the same point of
a grid evaluation bit for bit.
"""

from __future__ import annotations

import importlib.util
import math
import numbers
import operator
import statistics
import sys
from dataclasses import dataclass
from functools import cached_property


def _lazy_numpy():
    """numpy, run at its first attribute access (the closed form and the value types use none).

    Until then ``sys.modules["numpy"]`` holds the stub and ``"numpy._core"`` is absent.
    """
    if "numpy" not in sys.modules:
        spec = importlib.util.find_spec("numpy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules["numpy"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["numpy"])
    return sys.modules["numpy"]


np = _lazy_numpy()

__all__ = [
    "GaussianLocationModel",
    "Dataset",
    "NormalDist",
    "posterior",
    "normal_quantile",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

# elements of the flattened input that _ndtr evaluates at once, and cells of
# the points-by-components block that diagnostics holds: the branch
# functions' few temporaries of 2**14 float64 (128 KiB each) stay in a
# core's L2 cache
_KERNEL_BLOCK = 2**14

# Cephes ndtr.c, highest degree first (U, Q and S lead with 1):
#   erf(x)  = x T(x^2) / U(x^2)          for |x| < 1
#   erfc(z) = exp(-z^2) P(z) / Q(z)      for 1 <= z < 8
#   erfc(z) = exp(-z^2) R(z) / S(z)      for z >= 8
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# past this z, exp(-z^2) and so erfc(z) underflow to 0
_ERFC_ZERO_Z = 28.0
# past this z, exp(-z^2 / 2) and so the normal density underflow to 0
_PDF_ZERO_Z = 40.0

# standard normal quantile of one probability in (0, 1); StatisticsError
# outside it, which every caller rejects first
_std_normal_inv_cdf = statistics.NormalDist().inv_cdf


def _horner(x, coefs):
    """``coefs[0] x^k + ... + coefs[k]`` for an array ``x``, rounding as Cephes does."""
    acc = x * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def _exp_neg_square(z):
    """``exp(-z^2)`` as ``exp(-m^2) exp(-f(2m + f))``, ``m`` the nearest multiple of 1/128.

    ``m^2`` is exact and ``f = z - m`` is small, so the result carries the
    rounding of two exponentials, not the rounding of ``z^2``, an error in
    the exponent that grows as ``z^2``.
    """
    m = z * 128.0
    m += 0.5
    m = np.floor(m)
    m *= 1.0 / 128.0
    g = m - z  # -f, exact: m is within 1/256 of z
    y = m * 2.0
    y -= g
    y *= g
    m *= -m
    y = np.exp(y)
    y *= np.exp(m)
    return y


def _erf(x):
    """``erf(x)`` for ``|x| < 1``."""
    xx = x * x
    return x * _horner(xx, _ERF_T) / _horner(xx, _ERF_U)


def _half_erfc(z, num, den):
    """``erfc(z) / 2`` with the ``num``/``den`` rational of ``z``'s range."""
    y = _exp_neg_square(z)
    y *= _horner(z, num)
    y /= _horner(z, den)
    y *= 0.5
    return y


def _ndtr(a):
    """Standard normal CDF of ``a``, elementwise; see the module docstring.

    ``-inf`` and ``inf`` map to 0 and 1 and NaN to NaN, with no warning.
    The result is an array of ``a``'s shape (0-d for a scalar), evaluated
    in blocks of ``_KERNEL_BLOCK`` elements of its flattened form: the P/Q
    branch runs over the whole block on ``|x|`` clipped into its range, and
    the cells of the other two branches are then overwritten.
    """
    a = np.asarray(a, dtype=float)
    flat = a.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _KERNEL_BLOCK):
        x = flat[start:start + _KERNEL_BLOCK] * _SQRT_HALF
        z = np.abs(x)
        small = np.flatnonzero(z < 1.0)
        tail = np.flatnonzero(x <= -8.0)
        y = _half_erfc(np.clip(z, 1.0, 8.0, out=z), _ERFC_P, _ERFC_Q)
        np.subtract(1.0, y, out=y, where=x > 0.0)
        if small.size:
            y[small] = 0.5 + 0.5 * _erf(x[small])
        if tail.size:
            y[tail] = _half_erfc(np.minimum(-x[tail], _ERFC_ZERO_Z), _ERFC_R, _ERFC_S)
        out[start:start + y.size] = y
    return out.reshape(a.shape)


def _normal_cdf(u, mean, sd):
    """Normal CDF at ``u`` for broadcastable ``u``, ``mean`` and positive ``sd``.

    ``_ndtr((u - mean) / sd)``: full relative precision in the lower tail
    (the upper tail rounds to 1 past ``a`` of about 8.3), elementwise.
    """
    return _ndtr((u - mean) / sd)


def _normal_pdf(u, mean, sd):
    """Normal density at ``u`` for broadcastable ``u``, ``mean`` and positive ``sd``, elementwise.

    ``|z|`` is clipped at ``_PDF_ZERO_Z``, past which ``exp(-z^2 / 2)``
    is 0 either way, so ``z^2`` cannot overflow.
    """
    z = np.minimum(np.abs((u - mean) / sd), _PDF_ZERO_Z)
    return np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)


def _normal_quantile(p, mean, sd):
    """Normal quantile ``mean + sd * z(p)`` for one ``p`` in (0, 1) and broadcastable ``mean`` and ``sd``.

    ``z`` is the standard normal quantile, so quantile ratios between
    distributions reduce to their sd ratios without extra rounding.
    """
    return mean + sd * _std_normal_inv_cdf(p)


def _reals(*values) -> tuple[float, ...]:
    """``values`` as floats; ``TypeError`` for a str, bytes, bool or anything not a real number."""
    for kind in set(map(type, values)):
        if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
            raise TypeError(f"expected a real number, got {kind.__name__}")
    return tuple(map(float, values))


def _count(value) -> int:
    """``value`` as an int; ``TypeError`` unless it is an integer and not a bool."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got bool")
    return operator.index(value)


@dataclass(frozen=True)
class GaussianLocationModel:
    """Normal prior (variance ``tau_sq``) with known noise variance ``sigma_sq``."""

    tau_sq: float
    sigma_sq: float

    def __post_init__(self):
        for name, value in zip(("tau_sq", "sigma_sq"), _reals(self.tau_sq, self.sigma_sq)):
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite")
            if math.isinf(1.0 / value):
                # the posterior precision 1/tau_sq + n/sigma_sq would be infinite
                raise ValueError(f"{name} is too small: its reciprocal overflows")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Dataset:
    """Immutable sequence of scalar observations with cached size and mean."""

    observations: tuple[float, ...]

    def __post_init__(self):
        obs = _reals(*self.observations)
        if len(obs) == 0:
            raise ValueError("empty dataset")
        if not all(math.isfinite(x) for x in obs):
            raise ValueError("non-finite input")
        object.__setattr__(self, "observations", obs)
        try:
            self.mean  # cache it now, so an overflowing sum is rejected as input
        except OverflowError:
            raise ValueError("sum of observations overflows") from None

    @property
    def n(self) -> int:
        return len(self.observations)

    @cached_property
    def mean(self) -> float:
        # fsum keeps the cached mean within one rounding of the exact value
        return math.fsum(self.observations) / len(self.observations)


@dataclass(frozen=True)
class NormalDist:
    """Normal distribution as a (mean, variance) pair with positive variance.

    There are no point masses: a zero variance, which only arises from a
    computation that underflows, is rejected, so the CDF, density and
    quantile are defined for every instance.
    """

    mean: float
    variance: float

    def __post_init__(self):
        mean, variance = _reals(self.mean, self.variance)
        if not math.isfinite(mean):
            raise ValueError("mean must be finite")
        if not math.isfinite(variance) or variance <= 0.0:
            raise ValueError("variance must be finite and positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


def _posterior_moments(model: GaussianLocationModel, n: int, xbar):
    """Posterior ``(mean, variance)`` after ``n`` observations with mean ``xbar``.

    mean = n * xbar / (n + sigma_sq / tau_sq),
    variance = 1 / (1 / tau_sq + n / sigma_sq).

    ``xbar`` may be an array of sample means of equal size ``n``; each
    element is computed with the same operations as the scalar form, so an
    element equals the scalar result bit for bit.
    """
    shrink = n + model.sigma_sq / model.tau_sq
    mean = n * xbar / shrink
    variance = 1.0 / (1.0 / model.tau_sq + n / model.sigma_sq)
    return mean, variance


def posterior(model: GaussianLocationModel, data: Dataset) -> NormalDist:
    """Posterior of the location given ``data`` (see :func:`_posterior_moments`).

    Raises ``ValueError`` when the precision ``1/tau_sq + n/sigma_sq``
    overflows, so the variance would underflow to 0.
    """
    mean, variance = _posterior_moments(model, data.n, data.mean)
    if variance == 0.0:
        raise ValueError("posterior variance underflows: 1/tau_sq + n/sigma_sq overflows")
    return NormalDist(mean, variance)


def normal_quantile(p: float, dist: NormalDist) -> float:
    """Quantile (inverse CDF) of ``dist`` at probability ``p`` in (0, 1).

    Returns ``mean + sd * z(p)`` (see :func:`_normal_quantile`).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("probability out of range")
    return float(_normal_quantile(p, dist.mean, dist.sd))
