"""Univariate distribution kinds with exact densities, CDFs, quantiles, sampling.

Eight small frozen dataclasses stand in for the distribution families the
engine needs. All scalar math routes through the hand-rolled special
functions in :mod:`bayesdesk.special`; sampling uses numpy's seeded PCG64
generator so streams are bit-reproducible.

Gamma, InverseGamma, Beta and StudentT keep the parameter-only term of their
log density in ``_log_norm``, a lazy cached property that is not a dataclass
field: it is left out of equality, hashing, repr and payloads, and a grid or
integrand that evaluates one distribution many times computes it once.
``log_density`` adds it where the inline term stood, so the bits are the same.

``log_density`` of a continuous kind, and ``cdf`` of a Student t, also take a
numpy array of points, so that a grid or a leave-one-out scan is one call.
Each logarithm is still ``math.log`` or ``math.log1p`` (numpy's vector
versions differ in the last bit at some points), mapped over the array, and
the arithmetic runs in numpy in the scalar order, so every element has the
bits of the scalar call. Points on or past a support end take the scalar
rule.

Continuous quantiles invert the CDF with Brent's method (Brent 1973,
*Algorithms for Minimization without Derivatives*, ch. 4), in a line-for-line
port of scipy's ``brentq.c``: the same bracket bookkeeping, step test and
minimum step, so on IEEE doubles it takes the same iterates as
``scipy.optimize.brentq`` and returns the same root, without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import NumericalError
from .special import (
    _elementwise,
    log_beta,
    log_gamma,
    reg_inc_beta,
    reg_inc_gamma_lower,
    reg_inc_gamma_upper,
    std_normal_cdf,
)

__all__ = [
    "Normal",
    "Gamma",
    "InverseGamma",
    "Beta",
    "Binomial",
    "Poisson",
    "StudentT",
    "Cauchy",
    "Distribution",
    "log_density",
    "density",
    "cdf",
    "quantile",
    "sample",
    "mean",
    "variance",
    "mode",
    "support",
    "is_discrete",
]

_LOG_2PI = math.log(2.0 * math.pi)
_NEG_INF = float("-inf")
_INF = float("inf")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class Normal:
    """Normal distribution parameterized by mean and variance."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        _require(_finite(self.mean), f"mean must be finite, got {self.mean!r}")
        _require(_finite(self.variance) and self.variance > 0, f"variance must be positive, got {self.variance!r}")


@dataclass(frozen=True)
class Gamma:
    """Gamma distribution with shape a and rate b (mean a/b)."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        _require(_finite(self.shape) and self.shape > 0, f"shape must be positive, got {self.shape!r}")
        _require(_finite(self.rate) and self.rate > 0, f"rate must be positive, got {self.rate!r}")

    @cached_property
    def _log_norm(self) -> float:
        return self.shape * math.log(self.rate) - log_gamma(self.shape)


@dataclass(frozen=True)
class InverseGamma:
    """Inverse gamma with shape a and scale s (mean s/(a-1) for a > 1)."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        _require(_finite(self.shape) and self.shape > 0, f"shape must be positive, got {self.shape!r}")
        _require(_finite(self.scale) and self.scale > 0, f"scale must be positive, got {self.scale!r}")

    @cached_property
    def _log_norm(self) -> float:
        return self.shape * math.log(self.scale) - log_gamma(self.shape)


@dataclass(frozen=True)
class Beta:
    a: float
    b: float

    def __post_init__(self) -> None:
        _require(_finite(self.a) and self.a > 0, f"a must be positive, got {self.a!r}")
        _require(_finite(self.b) and self.b > 0, f"b must be positive, got {self.b!r}")

    @cached_property
    def _log_norm(self) -> float:
        return -log_beta(self.a, self.b)


@dataclass(frozen=True)
class Binomial:
    n: int
    p: float

    def __post_init__(self) -> None:
        _require(isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool) and self.n >= 0,
                 f"n must be a nonnegative integer, got {self.n!r}")
        _require(_finite(self.p) and 0.0 <= self.p <= 1.0, f"p must lie in [0, 1], got {self.p!r}")


@dataclass(frozen=True)
class Poisson:
    rate: float

    def __post_init__(self) -> None:
        _require(_finite(self.rate) and self.rate > 0, f"rate must be positive, got {self.rate!r}")


@dataclass(frozen=True)
class StudentT:
    """Student t with df degrees of freedom, shifted and scaled."""

    df: float
    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        _require(_finite(self.df) and self.df > 0, f"df must be positive, got {self.df!r}")
        _require(_finite(self.location), f"location must be finite, got {self.location!r}")
        _require(_finite(self.scale) and self.scale > 0, f"scale must be positive, got {self.scale!r}")

    @cached_property
    def _log_norm(self) -> float:
        return (log_gamma(0.5 * (self.df + 1.0)) - log_gamma(0.5 * self.df)
                - 0.5 * math.log(self.df * math.pi) - math.log(self.scale))


@dataclass(frozen=True)
class Cauchy:
    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        _require(_finite(self.location), f"location must be finite, got {self.location!r}")
        _require(_finite(self.scale) and self.scale > 0, f"scale must be positive, got {self.scale!r}")


Distribution = Union[Normal, Gamma, InverseGamma, Beta, Binomial, Poisson, StudentT, Cauchy]

_DISCRETE = (Binomial, Poisson)


def is_discrete(d: Distribution) -> bool:
    return isinstance(d, _DISCRETE)


def support(d: Distribution) -> tuple[float, float]:
    """Closure of the support as a (lo, hi) pair."""
    if isinstance(d, (Normal, StudentT, Cauchy)):
        return (_NEG_INF, _INF)
    if isinstance(d, (Gamma, InverseGamma, Poisson)):
        return (0.0, _INF)
    if isinstance(d, Beta):
        return (0.0, 1.0)
    if isinstance(d, Binomial):
        return (0.0, float(d.n))
    raise TypeError(f"not a distribution: {d!r}")


def _is_integer_value(x: float) -> bool:
    return math.isfinite(x) and float(x) == math.floor(x)


def _log_density_array(d: Distribution, x: np.ndarray) -> np.ndarray:
    # the scalar formulas on a 1-D float array, element for element
    if isinstance(d, Normal):
        z = x - d.mean
        return -0.5 * (_LOG_2PI + math.log(d.variance)) - z * z / (2.0 * d.variance)
    if isinstance(d, StudentT):
        t = (x - d.location) / d.scale
        return d._log_norm - 0.5 * (d.df + 1.0) * _elementwise(math.log1p, t * t / d.df)
    if isinstance(d, Cauchy):
        t = (x - d.location) / d.scale
        return -math.log(math.pi * d.scale) - _elementwise(math.log1p, t * t)
    if not isinstance(d, (Gamma, InverseGamma, Beta)):
        raise TypeError(f"log_density takes an array only for a continuous kind, got {d!r}")
    # zero density past the support; its ends take the scalar rule
    out = np.full_like(x, _NEG_INF)
    top = 1.0 if isinstance(d, Beta) else _INF
    for j in np.flatnonzero((x == 0.0) | (x == top)):
        out[j] = log_density(d, float(x[j]))
    inner = (x > 0.0) & (x < top)
    xi = x[inner]
    if isinstance(d, Gamma):
        out[inner] = d._log_norm + (d.shape - 1.0) * _elementwise(math.log, xi) - d.rate * xi
    elif isinstance(d, InverseGamma):
        out[inner] = d._log_norm - (d.shape + 1.0) * _elementwise(math.log, xi) - d.scale / xi
    else:
        out[inner] = ((d.a - 1.0) * _elementwise(math.log, xi)
                      + (d.b - 1.0) * _elementwise(math.log1p, -xi) + d._log_norm)
    return out


def log_density(d: Distribution, x: float):
    """Natural log of the density (or mass) of d at x.

    Returns -inf outside the support rather than raising. Boundary points
    of continuous kinds follow the limiting density, so e.g. Beta(0.5, 2)
    at 0 gives +inf. A numpy array x gives an array of the same shape, each
    element equal to the scalar result; discrete kinds take no array.
    """
    if isinstance(x, np.ndarray):
        flat = np.asarray(x, dtype=float).ravel()
        if np.isnan(flat).any():
            raise ValueError("x must not be NaN")
        with np.errstate(all="ignore"):  # float arithmetic overflows silently, as in Python
            return _log_density_array(d, flat).reshape(np.shape(x))
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if isinstance(d, Normal):
        z = x - d.mean
        return -0.5 * (_LOG_2PI + math.log(d.variance)) - z * z / (2.0 * d.variance)
    if isinstance(d, Gamma):
        a, b = d.shape, d.rate
        if x < 0.0:
            return _NEG_INF
        if x == 0.0:
            # limiting value at the support edge depends on the shape
            if a > 1.0:
                return _NEG_INF
            return math.log(b) if a == 1.0 else _INF
        return d._log_norm + (a - 1.0) * math.log(x) - b * x
    if isinstance(d, InverseGamma):
        if x <= 0.0:
            return _NEG_INF
        return d._log_norm - (d.shape + 1.0) * math.log(x) - d.scale / x
    if isinstance(d, Beta):
        a, b = d.a, d.b
        if x < 0.0 or x > 1.0:
            return _NEG_INF
        if x == 0.0:
            if a > 1.0:
                return _NEG_INF
            return d._log_norm if a == 1.0 else _INF
        if x == 1.0:
            if b > 1.0:
                return _NEG_INF
            return d._log_norm if b == 1.0 else _INF
        return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) + d._log_norm
    if isinstance(d, Binomial):
        if not _is_integer_value(x):
            return _NEG_INF
        k = int(x)
        if k < 0 or k > d.n:
            return _NEG_INF
        p = d.p
        out = log_gamma(d.n + 1.0) - log_gamma(k + 1.0) - log_gamma(d.n - k + 1.0)
        if k > 0:
            if p == 0.0:
                return _NEG_INF
            out += k * math.log(p)
        if d.n - k > 0:
            if p == 1.0:
                return _NEG_INF
            out += (d.n - k) * math.log1p(-p)
        return out
    if isinstance(d, Poisson):
        if not _is_integer_value(x) or x < 0.0:
            return _NEG_INF
        k = int(x)
        return k * math.log(d.rate) - d.rate - log_gamma(k + 1.0)
    if isinstance(d, StudentT):
        t = (x - d.location) / d.scale
        return d._log_norm - 0.5 * (d.df + 1.0) * math.log1p(t * t / d.df)
    if isinstance(d, Cauchy):
        t = (x - d.location) / d.scale
        return -math.log(math.pi * d.scale) - math.log1p(t * t)
    raise TypeError(f"not a distribution: {d!r}")


def density(d: Distribution, x: float) -> float:
    return math.exp(log_density(d, x))


def _student_t_cdf_array(d: StudentT, x: np.ndarray) -> np.ndarray:
    # the scalar Student t branch below, split by the same t^2 < df test
    t = (x - d.location) / d.scale
    t2 = t * t
    out = np.empty_like(t)
    near = t2 < d.df
    if near.any():
        tn, tn2 = t[near], t2[near]
        half = 0.5 * reg_inc_beta(0.5, 0.5 * d.df, tn2 / (d.df + tn2))
        out[near] = np.where(tn > 0.0, 0.5 + half, 0.5 - half)
    far = ~near
    if far.any():
        tf, tf2 = t[far], t2[far]
        half = 0.5 * reg_inc_beta(0.5 * d.df, 0.5, d.df / (d.df + tf2))
        out[far] = np.where(tf > 0.0, 1.0 - half, half)
    return out


def cdf(d: Distribution, x: float):
    """P(X <= x), exact through the incomplete gamma/beta kernels.

    A Student t also takes a numpy array x, giving an array of the same
    shape whose elements equal the scalar results.
    """
    if isinstance(x, np.ndarray):
        if not isinstance(d, StudentT):
            raise TypeError(f"cdf takes an array only for a Student t, got {d!r}")
        flat = np.asarray(x, dtype=float).ravel()
        if np.isnan(flat).any():
            raise ValueError("x must not be NaN")
        with np.errstate(all="ignore"):
            return _student_t_cdf_array(d, flat).reshape(np.shape(x))
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if isinstance(d, Normal):
        return std_normal_cdf((x - d.mean) / math.sqrt(d.variance))
    if isinstance(d, Gamma):
        if x <= 0.0:
            return 0.0
        if math.isinf(x):
            return 1.0
        return reg_inc_gamma_lower(d.shape, d.rate * x)
    if isinstance(d, InverseGamma):
        if x <= 0.0:
            return 0.0
        if math.isinf(x):
            return 1.0
        return reg_inc_gamma_upper(d.shape, d.scale / x)
    if isinstance(d, Beta):
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return reg_inc_beta(d.a, d.b, x)
    if isinstance(d, Binomial):
        k = math.floor(x)
        if k < 0:
            return 0.0
        if k >= d.n:
            return 1.0
        # partial binomial sum via the incomplete beta identity
        return reg_inc_beta(d.n - k, k + 1.0, 1.0 - d.p)
    if isinstance(d, Poisson):
        k = math.floor(x)
        if k < 0:
            return 0.0
        if math.isinf(x):
            return 1.0
        return reg_inc_gamma_upper(k + 1.0, d.rate)
    if isinstance(d, StudentT):
        t = (x - d.location) / d.scale
        t2 = t * t
        if t2 < d.df:
            # near the centre 1 - df/(df+t^2) cancels; P(|T| <= |t|) = I_w(1/2, df/2)
            # with w = t^2/(df+t^2) keeps full precision there
            half = 0.5 * reg_inc_beta(0.5, 0.5 * d.df, t2 / (d.df + t2))
            return 0.5 + half if t > 0.0 else 0.5 - half
        half = 0.5 * reg_inc_beta(0.5 * d.df, 0.5, d.df / (d.df + t2))
        return 1.0 - half if t > 0.0 else half
    if isinstance(d, Cauchy):
        return 0.5 + math.atan((x - d.location) / d.scale) / math.pi
    raise TypeError(f"not a distribution: {d!r}")


# scipy.optimize.brentq's xtol, rtol (4*eps) and maxiter, as quantile calls it
_XTOL = 1e-12
_RTOL = 4.0 * 2.0 ** -52
_MAXITER = 200


def _brentq(f, xa: float, xb: float) -> float:
    """Root of f in [xa, xb] by Brent's method, as scipy's brentq.c computes it.

    xblk is the bracket end opposite xcur, spre and scur the previous and
    current steps. An inverse quadratic (or secant) step is taken only when it
    is less than half the step before last and stays inside the bracket;
    otherwise the step bisects, and it is never shorter than delta.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalError(f"root-finder: function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError(f"root-finder: no sign change on [{xa!r}, {xb!r}]")
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan  # C gets inf or NaN here; either fails the test below
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise NumericalError(f"root-finder did not converge in {_MAXITER} iterations near x={xcur!r}")


def _discrete_quantile(d: Distribution, p: float) -> float:
    # smallest integer k with cdf(k) >= p
    if isinstance(d, Binomial):
        hi = d.n
        if cdf(d, 0.0) >= p:
            return 0.0
    else:
        hi = max(1, math.ceil(d.rate))
        while cdf(d, float(hi)) < p:
            hi *= 2
        if cdf(d, 0.0) >= p:
            return 0.0
    lo = 0  # invariant: cdf(lo) < p <= cdf(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cdf(d, float(mid)) >= p:
            hi = mid
        else:
            lo = mid
    return float(hi)


def quantile(d: Distribution, p: float) -> float:
    """Inverse CDF at p in (0, 1), by bracketed root-finding.

    Discrete kinds return the smallest support point whose CDF reaches p;
    the Cauchy inverse is closed form. A bracket search, root-finder or CDF
    kernel that fails raises NumericalError.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    if isinstance(d, Cauchy):
        return d.location + d.scale * math.tan(math.pi * (p - 0.5))
    if is_discrete(d):
        return _discrete_quantile(d, p)
    lo, hi = support(d)
    if isinstance(d, Beta):
        a, b = 0.0, 1.0
    elif lo == 0.0:
        a = 1.0
        for _ in range(2000):
            if cdf(d, a) < p:
                break
            a *= 0.5
        else:
            raise NumericalError("quantile bracket search failed near 0")
        b = max(1.0, 2.0 * a)
        for _ in range(2000):
            if cdf(d, b) > p:
                break
            b *= 2.0
        else:
            raise NumericalError("quantile bracket search failed in upper tail")
    else:
        center = d.mean if isinstance(d, Normal) else d.location
        width = math.sqrt(d.variance) if isinstance(d, Normal) else d.scale
        a, b = center - width, center + width
        for _ in range(2000):
            if cdf(d, a) < p:
                break
            a = center - 2.0 * (center - a)
        else:
            raise NumericalError("quantile bracket search failed in lower tail")
        for _ in range(2000):
            if cdf(d, b) > p:
                break
            b = center + 2.0 * (b - center)
        else:
            raise NumericalError("quantile bracket search failed in upper tail")
    return _brentq(lambda t: cdf(d, t) - p, a, b)


def sample(d: Distribution, count: int, seed: int) -> np.ndarray:
    """Draw count values of d, deterministically for a fixed seed.

    The stream comes from numpy's default PCG64 bit generator seeded with
    the given integer, so results are reproducible across platforms.
    """
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 0:
        raise ValueError(f"count must be a nonnegative integer, got {count!r}")
    rng = np.random.default_rng(seed)
    n = int(count)
    if isinstance(d, Normal):
        out = rng.normal(d.mean, math.sqrt(d.variance), n)
    elif isinstance(d, Gamma):
        out = rng.gamma(d.shape, 1.0 / d.rate, n)
    elif isinstance(d, InverseGamma):
        out = d.scale / rng.gamma(d.shape, 1.0, n)
    elif isinstance(d, Beta):
        out = rng.beta(d.a, d.b, n)
    elif isinstance(d, Binomial):
        out = rng.binomial(d.n, d.p, n)
    elif isinstance(d, Poisson):
        out = rng.poisson(d.rate, n)
    elif isinstance(d, StudentT):
        out = d.location + d.scale * rng.standard_t(d.df, n)
    elif isinstance(d, Cauchy):
        out = d.location + d.scale * rng.standard_cauchy(n)
    else:
        raise TypeError(f"not a distribution: {d!r}")
    return np.asarray(out, dtype=float)


def mean(d: Distribution) -> float:
    """Exact mean; raises ValueError for kinds whose mean does not exist."""
    if isinstance(d, Normal):
        return d.mean
    if isinstance(d, Gamma):
        return d.shape / d.rate
    if isinstance(d, InverseGamma):
        if d.shape <= 1.0:
            raise ValueError(f"inverse gamma mean requires shape > 1, got {d.shape!r}")
        return d.scale / (d.shape - 1.0)
    if isinstance(d, Beta):
        return d.a / (d.a + d.b)
    if isinstance(d, Binomial):
        return d.n * d.p
    if isinstance(d, Poisson):
        return d.rate
    if isinstance(d, StudentT):
        if d.df <= 1.0:
            raise ValueError(f"Student t mean requires df > 1, got {d.df!r}")
        return d.location
    if isinstance(d, Cauchy):
        raise ValueError("the Cauchy distribution has no mean")
    raise TypeError(f"not a distribution: {d!r}")


def variance(d: Distribution) -> float:
    if isinstance(d, Normal):
        return d.variance
    if isinstance(d, Gamma):
        return d.shape / (d.rate * d.rate)
    if isinstance(d, InverseGamma):
        if d.shape <= 2.0:
            raise ValueError(f"inverse gamma variance requires shape > 2, got {d.shape!r}")
        return d.scale ** 2 / ((d.shape - 1.0) ** 2 * (d.shape - 2.0))
    if isinstance(d, Beta):
        s = d.a + d.b
        return d.a * d.b / (s * s * (s + 1.0))
    if isinstance(d, Binomial):
        return d.n * d.p * (1.0 - d.p)
    if isinstance(d, Poisson):
        return d.rate
    if isinstance(d, StudentT):
        if d.df <= 2.0:
            raise ValueError(f"Student t variance requires df > 2, got {d.df!r}")
        return d.scale ** 2 * d.df / (d.df - 2.0)
    if isinstance(d, Cauchy):
        raise ValueError("the Cauchy distribution has no variance")
    raise TypeError(f"not a distribution: {d!r}")


def mode(d: Distribution) -> tuple[float, bool]:
    """Mode as (value, at_boundary).

    at_boundary is True when the density's supremum sits on the edge of the
    support (e.g. Gamma with shape <= 1 piles up at 0). When both Beta
    shapes are below 1 the density diverges at both endpoints and the left
    one is reported. A flat Beta(1, 1) reports its midpoint.
    """
    if isinstance(d, Normal):
        return (d.mean, False)
    if isinstance(d, Gamma):
        if d.shape > 1.0:
            return ((d.shape - 1.0) / d.rate, False)
        return (0.0, True)
    if isinstance(d, InverseGamma):
        return (d.scale / (d.shape + 1.0), False)
    if isinstance(d, Beta):
        a, b = d.a, d.b
        if a > 1.0 and b > 1.0:
            return ((a - 1.0) / (a + b - 2.0), False)
        if a == 1.0 and b == 1.0:
            return (0.5, False)
        if a <= 1.0 and b <= 1.0:
            return (0.0, True) if a <= b else (1.0, True)
        return (0.0, True) if a <= 1.0 else (1.0, True)
    if isinstance(d, Binomial):
        if d.p == 0.0:
            return (0.0, True)
        if d.p == 1.0:
            return (float(d.n), True)
        k = min(math.floor((d.n + 1) * d.p), d.n)
        return (float(k), False)
    if isinstance(d, Poisson):
        return (float(math.floor(d.rate)), False)
    if isinstance(d, StudentT):
        return (d.location, False)
    if isinstance(d, Cauchy):
        return (d.location, False)
    raise TypeError(f"not a distribution: {d!r}")
