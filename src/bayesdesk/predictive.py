"""Posterior predictive for the normal model and leave-one-out outlier checks.

Under the normal-inverse-gamma posterior the next observation follows a
Student t whose scale comes from matching the exact predictive kernel
[alpha' + (lam_mu'/(lam_mu'+1)) (x - xi')^2]^-(df+1)/2, verified by
normalization quadrature in the tests. Outlier detection evaluates each
observation against the predictive built from the other n-1 points under
the noninformative prior and flags the extreme tails at a
Bonferroni-corrected level.

The leave-one-out scan is O(n): the mean and sum of squared deviations (ssd)
of the whole sample are computed once and downdated for each held-out x_i,
mean_i = xbar + (xbar - x_i)/(n-1) and ssd_i = ssd - n/(n-1) (x_i - xbar)^2
(Chan, Golub & LeVeque 1983). Where leaving x_i out removes more than half
of the spread, the subtraction would cancel, so ssd_i and mean_i are
recomputed from the rest; that happens for at most three rows. Every
held-out predictive has df = n-1, so the standardized points go through one
array call of the Student t CDF. All of it runs on the data divided by a
power of two near the largest |x|: that keeps every sum and square in float
range, and changes no bits except where a value underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conjugate import NormalInvGammaModel
from .distributions import StudentT, cdf as dist_cdf, log_density as dist_log_density
from .errors import ImproperPosteriorError, NumericalError

__all__ = [
    "PredictiveT",
    "OutlierRow",
    "OutlierReport",
    "predictive_from_posterior",
    "loo_predictive_cdf",
    "bonferroni_bound",
    "detect_outliers",
]


@dataclass(frozen=True)
class PredictiveT:
    """Student-t predictive law: location, scale, degrees of freedom."""

    location: float
    scale: float
    df: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.location)):
            raise ValueError(f"location must be finite, got {self.location!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale!r}")
        if not (math.isfinite(self.df) and self.df > 0):
            raise ValueError(f"df must be positive, got {self.df!r}")

    def to_distribution(self) -> StudentT:
        return StudentT(df=self.df, location=self.location, scale=self.scale)

    def log_density(self, x: float) -> float:
        return dist_log_density(self.to_distribution(), x)

    def cdf(self, x: float) -> float:
        return dist_cdf(self.to_distribution(), x)


def predictive_from_posterior(m: NormalInvGammaModel) -> PredictiveT:
    """Student-t predictive for the next draw given a proper posterior.

    df = 2 lam_sigma and scale^2 = alpha (lam_mu + 1) / (lam_mu * df); this
    is the unique Student t whose kernel matches the posterior predictive
    integrand, e.g. the noninformative case reduces to location x-bar,
    df n, scale^2 = (n+1)/n^2 * ssd.
    """
    if not m.is_proper():
        raise ImproperPosteriorError("predictive requires a proper posterior")
    df = 2.0 * m.lam_sigma
    scale = math.sqrt(m.alpha * (m.lam_mu + 1.0) / (m.lam_mu * df))
    return PredictiveT(location=m.xi, scale=scale, df=df)


def _check_data(data: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The data as a float array, and divided by the power of two at or below max |x|."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise ValueError("data must be a 1-D sequence")
    if arr.size < 3:
        raise ValueError(f"leave-one-out prediction needs at least 3 points, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must be finite")
    # Checked once for the whole sample: no leave-one-out subsample has a larger
    # sum of squared deviations. Scaling by the largest |x| keeps the check
    # itself from overflowing.
    scale = float(np.max(np.abs(arr)))
    unit = arr / scale if scale else arr
    if float(np.sum((unit - unit.mean()) ** 2)) * scale * scale == math.inf:
        raise NumericalError(f"the sum of squared deviations of the data passes float range "
                             f"(largest |x| = {scale:g})")
    return arr, arr / math.ldexp(1.0, math.frexp(scale)[1] - 1)


def _loo_cdfs(unit: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Held-out predictive CDF and degenerate flag of each observation in `rows`.

    A row is degenerate when the rest of the sample has no spread; its
    predictive collapses to a point, and the CDF is 0, 1/2 or 1 by side.
    """
    n1 = unit.size - 1.0
    lo, hi = unit.min(), unit.max()
    at_lo, at_hi = unit == lo, unit == hi
    n_lo, n_hi = int(np.count_nonzero(at_lo)), int(np.count_nonzero(at_hi))
    # the rest is all one value when the data are, or when they hold two values
    # and x_i is the only copy of one of them
    two_valued = n_lo + n_hi == unit.size
    equal = (lo == hi) | two_valued & (at_lo & (n_lo == 1) | at_hi & (n_hi == 1))
    u, equal = unit[rows], equal[rows]
    mean = unit.mean()
    ssd = float(np.sum((unit - mean) ** 2))
    loo_mean = mean + (mean - u) / n1
    loo_ssd = ssd - unit.size / n1 * (u - mean) ** 2
    for j in np.flatnonzero(~equal & (loo_ssd < 0.5 * ssd)):
        rest = np.delete(unit, rows[j])
        loo_mean[j] = rest.mean()
        loo_ssd[j] = np.sum((rest - loo_mean[j]) ** 2)
    # an all-equal rest has its value as mean and no spread, whatever its sum rounds to
    loo_mean[equal] = np.where(u[equal] == lo, hi, lo)
    loo_ssd[equal] = 0.0
    # location and scale as predictive_from_posterior builds them from the
    # Jeffreys posterior of the rest: xi = (n-1) mean / (n-1), alpha = ssd
    scale = np.sqrt(loo_ssd * (n1 + 1.0) / (n1 * n1))
    degenerate = ~(scale > 0.0)  # no spread, or one that underflows
    cdf = np.where(u == loo_mean, 0.5, np.where(u > loo_mean, 1.0, 0.0))
    live = ~degenerate
    cdf[live] = dist_cdf(StudentT(n1), (u[live] - n1 * loo_mean[live] / n1) / scale[live])
    return cdf, degenerate


def loo_predictive_cdf(data: Sequence[float], i: int) -> float:
    """Predictive CDF of observation i under the model fit without it.

    The held-out posterior uses the noninformative prior, so the data must
    have at least 3 points. Values near 0 or 1 mark observations the rest
    of the sample finds surprising. The value is the one detect_outliers
    reports for row i, bit for bit.
    """
    _, unit = _check_data(data)
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool) or not 0 <= i < unit.size:
        raise ValueError(f"index {i!r} out of range for {unit.size} observations")
    cdf, _ = _loo_cdfs(unit, np.array([int(i)]))
    return float(cdf[0])


def bonferroni_bound(n: int, alpha: float) -> float:
    """Per-observation tail bound a solving 1 - (1-a)^n = 1 - alpha.

    Exactly a = 1 - alpha^(1/n), so that n independent uniform checks at
    bound a jointly stay below level 1 - alpha.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    return -math.expm1(math.log(alpha) / n)


@dataclass(frozen=True)
class OutlierRow:
    index: int
    value: float
    loo_cdf: float
    flagged: bool
    degenerate: bool


@dataclass(frozen=True)
class OutlierReport:
    """Per-observation LOO results plus the bound that produced the flags."""

    alpha: float
    bound_a: float
    n: int
    rows: tuple[OutlierRow, ...]

    def flagged_indices(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.rows if r.flagged)


def detect_outliers(data: Sequence[float], alpha: float) -> OutlierReport:
    """Flag observations whose LOO predictive CDF lands in an extreme tail.

    bound_a = 1 - alpha^(1/n) is split across the two tails: observation i
    is flagged when F_i < bound_a/2 or F_i > 1 - bound_a/2. Splitting keeps
    the familywise false-flag rate at 1 - alpha; applying the full bound
    per tail would double it.
    """
    arr, unit = _check_data(data)
    n = int(arr.size)
    a = bonferroni_bound(n, alpha)
    half = 0.5 * a
    cdf, degenerate = _loo_cdfs(unit, np.arange(n))
    flagged = (cdf < half) | (cdf > 1.0 - half)
    rows = tuple(OutlierRow(index=i, value=x, loo_cdf=f, flagged=fl, degenerate=dg)
                 for i, (x, f, fl, dg) in enumerate(zip(arr.tolist(), cdf.tolist(),
                                                        flagged.tolist(), degenerate.tolist())))
    return OutlierReport(alpha=float(alpha), bound_a=a, n=n, rows=rows)
