"""Conjugate-family posterior updates and Bayes point estimators.

Four concrete models: Beta prior with binomial counts, Gamma prior with
Poisson counts over exposures, a normal mean with known variance, and the
normal-inverse-gamma family for a normal with both parameters unknown.
Data enter through SummaryStats (n, mean, sum of squared deviations), which
is all the normal-family updates depend on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from .distributions import Beta, Distribution, Gamma, Normal
from .distributions import mean as dist_mean
from .distributions import mode as dist_mode
from .errors import ImproperPosteriorError, NumericalError
from .hpd import GridDensity
from .special import _elementwise, log_gamma

__all__ = [
    "SummaryStats",
    "BetaBinomialModel",
    "GammaPoissonModel",
    "NormalKnownVarModel",
    "NormalInvGammaModel",
    "MapEstimate",
    "update_beta_binomial",
    "update_gamma_poisson",
    "update_normal_known_var",
    "update_normal_inverse_gamma",
    "posterior_mean",
    "map_estimate",
    "jeffreys_normal_posterior",
    "nig_log_density",
    "sample_joint_posterior",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _check_finite(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_nonneg(name: str, value: float) -> None:
    _check_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")


def _check_count(name: str, value: int) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


@dataclass(frozen=True)
class SummaryStats:
    """Sufficient statistics for normal-family updates: n, x-bar, s_x^2.

    sum_sq_dev is the sum of squared deviations about the sample mean,
    not the variance.
    """

    n: int
    mean: float
    sum_sq_dev: float

    def __post_init__(self) -> None:
        _check_count("n", self.n)
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n!r}")
        _check_finite("mean", self.mean)
        _check_nonneg("sum_sq_dev", self.sum_sq_dev)

    @classmethod
    def from_data(cls, data: Sequence[float]) -> "SummaryStats":
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("data must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("data must be finite")
        m = float(arr.mean())
        return cls(n=int(arr.size), mean=m, sum_sq_dev=float(np.sum((arr - m) ** 2)))

    def merge(self, other: "SummaryStats") -> "SummaryStats":
        """Pool two batches; exact, so sequential updating matches batch."""
        n = self.n + other.n
        m = (self.n * self.mean + other.n * other.mean) / n
        delta = self.mean - other.mean
        ssd = self.sum_sq_dev + other.sum_sq_dev + self.n * other.n * delta * delta / n
        return SummaryStats(n=n, mean=m, sum_sq_dev=ssd)


@dataclass(frozen=True)
class BetaBinomialModel:
    """Beta prior on a success probability; defaults to the uniform Beta(1,1)."""

    prior_a: float = 1.0
    prior_b: float = 1.0

    def __post_init__(self) -> None:
        for name, v in (("prior_a", self.prior_a), ("prior_b", self.prior_b)):
            _check_finite(name, v)
            if v <= 0:
                raise ValueError(f"{name} must be positive, got {v!r}")


@dataclass(frozen=True)
class GammaPoissonModel:
    """Gamma(shape, rate) prior on a Poisson rate per unit exposure."""

    prior_shape: float
    prior_rate: float

    def __post_init__(self) -> None:
        for name, v in (("prior_shape", self.prior_shape), ("prior_rate", self.prior_rate)):
            _check_finite(name, v)
            if v <= 0:
                raise ValueError(f"{name} must be positive, got {v!r}")


@dataclass(frozen=True)
class NormalKnownVarModel:
    """Normal-mean prior in natural form: precision lam, mean lam^-1 xi.

    lam = 0 encodes the flat prior, proper only after data arrive.
    """

    xi: float = 0.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        _check_finite("xi", self.xi)
        _check_nonneg("lam", self.lam)


@dataclass(frozen=True)
class NormalInvGammaModel:
    """Normal-inverse-gamma hyperparameters (xi, lam_mu, lam_sigma, alpha).

    mu | sigma^2 ~ Normal(xi, sigma^2 / lam_mu) and sigma^2 follows an
    inverse gamma with shape lam_sigma and scale alpha/2. The all-zero
    setting encodes the noninformative prior.
    """

    xi: float = 0.0
    lam_mu: float = 0.0
    lam_sigma: float = 0.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        _check_finite("xi", self.xi)
        _check_nonneg("lam_mu", self.lam_mu)
        _check_nonneg("lam_sigma", self.lam_sigma)
        _check_nonneg("alpha", self.alpha)

    def is_proper(self) -> bool:
        return self.lam_mu > 0 and self.lam_sigma > 0 and self.alpha > 0

    @cached_property
    def _log_gamma_lam_sigma(self) -> float:
        # computed once per model for nig_log_density; not a dataclass field
        return log_gamma(self.lam_sigma)


class MapEstimate(NamedTuple):
    """MAP value plus a flag set when the optimum sits on a boundary."""

    value: float
    at_boundary: bool


def update_beta_binomial(m: BetaBinomialModel, successes: int, trials: int) -> Beta:
    """Posterior after observing `successes` out of `trials`."""
    _check_count("successes", successes)
    _check_count("trials", trials)
    if successes > trials:
        raise ValueError(f"successes ({successes}) cannot exceed trials ({trials})")
    return Beta(m.prior_a + successes, m.prior_b + (trials - successes))


def update_gamma_poisson(
    m: GammaPoissonModel,
    counts: Sequence[int],
    exposures: Sequence[float],
) -> Gamma:
    """Posterior rate after Poisson counts observed over known exposures."""
    if len(counts) != len(exposures):
        raise ValueError(
            f"counts and exposures must have equal length, got {len(counts)} and {len(exposures)}")
    if len(counts) == 0:
        raise ValueError("counts and exposures must be nonempty")
    for c in counts:
        _check_count("each count", c)
    total_exposure = 0.0
    for e in exposures:
        e = float(e)
        if not (math.isfinite(e) and e > 0):
            raise ValueError(f"exposures must be positive, got {e!r}")
        total_exposure += e
    return Gamma(m.prior_shape + float(sum(int(c) for c in counts)),
                 m.prior_rate + total_exposure)


def update_normal_known_var(
    m: NormalKnownVarModel,
    stats: SummaryStats,
    known_variance: float = 1.0,
) -> Normal:
    """Posterior for a normal mean with the sampling variance known.

    Posterior precision is n/known_variance + lam; the posterior mean is
    the precision-weighted average of x-bar and the prior mean.
    """
    if not (math.isfinite(known_variance) and known_variance > 0):
        raise ValueError(f"known_variance must be positive, got {known_variance!r}")
    precision = stats.n / known_variance + m.lam
    if precision <= 0:
        raise ImproperPosteriorError("flat prior with no data gives an improper posterior")
    post_mean = (stats.n * stats.mean / known_variance + m.lam * m.xi) / precision
    return Normal(post_mean, 1.0 / precision)


def update_normal_inverse_gamma(m: NormalInvGammaModel, stats: SummaryStats) -> NormalInvGammaModel:
    """Closed-form normal-inverse-gamma update from summary statistics.

    Raises NumericalError when the posterior alpha overflows float range.
    """
    n = stats.n
    xbar = stats.mean
    lam_mu = m.lam_mu + n
    xi = (m.lam_mu * m.xi + n * xbar) / lam_mu
    lam_sigma = m.lam_sigma + n / 2.0
    alpha = m.alpha + stats.sum_sq_dev
    if m.lam_mu != 0:
        # the prior-data disagreement term; a flat mean prior gives it weight 0
        try:
            alpha += (n * m.lam_mu / lam_mu) * (xbar - m.xi) ** 2
        except OverflowError:
            alpha = math.inf
    if not math.isfinite(alpha):
        raise NumericalError(
            "the posterior alpha (prior alpha + ssd + prior-data term) overflows float range")
    if lam_sigma <= 0 or alpha <= 0:
        raise ImproperPosteriorError(
            f"posterior is improper: lam_sigma={lam_sigma!r}, alpha={alpha!r}")
    return NormalInvGammaModel(xi=xi, lam_mu=lam_mu, lam_sigma=lam_sigma, alpha=alpha)


def posterior_mean(posterior: Distribution) -> float:
    """Expected value of the posterior; the Bayes estimator under squared loss."""
    return dist_mean(posterior)


def map_estimate(posterior: Union[Distribution, GridDensity]) -> MapEstimate:
    """Posterior mode, closed form for distribution kinds.

    For a GridDensity the argmax cell is refined by fitting a parabola to
    the log-density through the three surrounding points, which is exact
    for locally Gaussian peaks. An argmax on the first or last grid point
    is reported as a boundary hit and left unrefined.
    """
    if isinstance(posterior, GridDensity):
        lv = posterior.log_vals
        xs = posterior.xs
        i = int(np.argmax(lv))
        if i == 0 or i == lv.size - 1:
            return MapEstimate(float(xs[i]), True)
        x0, x1, x2 = float(xs[i - 1]), float(xs[i]), float(xs[i + 1])
        y0, y1, y2 = float(lv[i - 1]), float(lv[i]), float(lv[i + 1])
        if not (math.isfinite(y0) and math.isfinite(y2)):
            return MapEstimate(x1, False)
        num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
        den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
        if den == 0.0:
            return MapEstimate(x1, False)
        return MapEstimate(x1 - 0.5 * num / den, False)
    value, at_boundary = dist_mode(posterior)
    return MapEstimate(value, at_boundary)


def jeffreys_normal_posterior(stats: SummaryStats) -> NormalInvGammaModel:
    """Posterior under the noninformative all-zero hyperparameter setting.

    Needs n >= 2 (and a positive spread) to be proper.
    """
    if stats.n < 2:
        raise ImproperPosteriorError(
            f"the noninformative posterior needs n >= 2, got n={stats.n}")
    return update_normal_inverse_gamma(NormalInvGammaModel(), stats)


def _nig_log_density_array(m: NormalInvGammaModel, mu: np.ndarray,
                           sigma_sq: np.ndarray) -> np.ndarray:
    # the scalar formula element by element: logs and the square through math
    # and pow, the arithmetic in numpy in the scalar order
    out = np.full(mu.shape, -math.inf)
    ok = ~(sigma_sq <= 0.0)
    mu, sigma_sq = mu[ok], sigma_sq[ok]
    log_s = _elementwise(math.log, sigma_sq)
    sq_dev = _elementwise(pow, mu - m.xi, itertools.repeat(2))
    half_alpha = 0.5 * m.alpha
    out[ok] = (0.5 * (math.log(m.lam_mu) - _LOG_2PI - log_s)
               - m.lam_mu * sq_dev / (2.0 * sigma_sq)
               + m.lam_sigma * math.log(half_alpha) - m._log_gamma_lam_sigma
               - (m.lam_sigma + 1.0) * log_s - half_alpha / sigma_sq)
    return out


def nig_log_density(m: NormalInvGammaModel, mu: float, sigma_sq: float):
    """Normalized joint log density of (mu, sigma^2) under the model.

    The model must be proper. Returns -inf when sigma_sq <= 0. Numpy arrays
    mu and sigma_sq (broadcast together) give an array whose elements equal
    the scalar results, so a whole posterior sample is one call.
    """
    if not m.is_proper():
        raise ImproperPosteriorError("joint density requires a proper model")
    if isinstance(mu, np.ndarray) or isinstance(sigma_sq, np.ndarray):
        mu, sigma_sq = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                           np.asarray(sigma_sq, dtype=float))
        with np.errstate(all="ignore"):  # float arithmetic overflows silently, as in Python
            return _nig_log_density_array(m, mu.ravel(), sigma_sq.ravel()).reshape(mu.shape)
    if sigma_sq <= 0.0:
        return -math.inf
    half_alpha = 0.5 * m.alpha
    return (0.5 * (math.log(m.lam_mu) - _LOG_2PI - math.log(sigma_sq))
            - m.lam_mu * (mu - m.xi) ** 2 / (2.0 * sigma_sq)
            + m.lam_sigma * math.log(half_alpha) - m._log_gamma_lam_sigma
            - (m.lam_sigma + 1.0) * math.log(sigma_sq) - half_alpha / sigma_sq)


def sample_joint_posterior(m: NormalInvGammaModel, count: int, seed: int) -> np.ndarray:
    """Draw (mu, sigma^2) pairs; returns an array of shape (count, 2).

    sigma^2 comes from its inverse-gamma marginal, then mu from its
    conditional normal, both off one seeded generator.
    """
    if not m.is_proper():
        raise ImproperPosteriorError("cannot sample from an improper posterior")
    _check_count("count", count)
    rng = np.random.default_rng(seed)
    n = int(count)
    sigma_sq = (0.5 * m.alpha) / rng.gamma(m.lam_sigma, 1.0, n)
    mu = m.xi + rng.normal(0.0, 1.0, n) * np.sqrt(sigma_sq / m.lam_mu)
    return np.column_stack([mu, sigma_sq])
