"""Posterior predictive for the normal model and leave-one-out outlier checks.

Under the normal-inverse-gamma posterior the next observation follows a
Student t whose scale comes from matching the exact predictive kernel
[alpha' + (lam_mu'/(lam_mu'+1)) (x - xi')^2]^-(df+1)/2, verified by
normalization quadrature in the tests. Outlier detection evaluates each
observation against the predictive built from the other n-1 points under
the noninformative prior and flags the extreme tails at a
Bonferroni-corrected level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conjugate import SummaryStats, jeffreys_normal_posterior, NormalInvGammaModel
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


def _loo_cdf(arr: np.ndarray, i: int) -> tuple[float, bool]:
    x = float(arr[i])
    rest = np.delete(arr, i)
    stats = SummaryStats.from_data(rest)
    if stats.sum_sq_dev == 0.0:
        # all remaining points identical: predictive collapses to a point
        if x == stats.mean:
            return 0.5, True
        return (1.0 if x > stats.mean else 0.0), True
    pred = predictive_from_posterior(jeffreys_normal_posterior(stats))
    return pred.cdf(x), False


def _check_data(data: Sequence[float]) -> np.ndarray:
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
    return arr


def loo_predictive_cdf(data: Sequence[float], i: int) -> float:
    """Predictive CDF of observation i under the model fit without it.

    The held-out posterior uses the noninformative prior, so the data must
    have at least 3 points. Values near 0 or 1 mark observations the rest
    of the sample finds surprising.
    """
    arr = _check_data(data)
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool) or not 0 <= i < arr.size:
        raise ValueError(f"index {i!r} out of range for {arr.size} observations")
    value, _ = _loo_cdf(arr, int(i))
    return value


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
    arr = _check_data(data)
    n = int(arr.size)
    a = bonferroni_bound(n, alpha)
    half = 0.5 * a
    rows = []
    for i in range(n):
        f, degenerate = _loo_cdf(arr, i)
        flagged = f < half or f > 1.0 - half
        rows.append(OutlierRow(index=i, value=float(arr[i]), loo_cdf=f,
                               flagged=flagged, degenerate=degenerate))
    return OutlierReport(alpha=float(alpha), bound_a=a, n=n, rows=tuple(rows))
