"""Scalar special functions underlying every density and CDF in the package.

Implemented from scratch: Lanczos log-gamma (with reflection below 1/2),
series/continued-fraction regularized incomplete gamma, a modified-Lentz
continued fraction for the regularized incomplete beta, and the error
function pair built on the incomplete gamma. Downstream CDFs (Gamma, Beta,
Binomial, Poisson, Student t, the normal CDF) reduce to these three kernels.
All functions take and return Python floats. A continued fraction or series
that does not converge raises NumericalError.
"""

from __future__ import annotations

import math

from .errors import NumericalError

__all__ = [
    "log_gamma",
    "log_beta",
    "reg_inc_gamma_lower",
    "reg_inc_gamma_upper",
    "reg_inc_beta",
    "erf",
    "erfc",
    "std_normal_cdf",
]

# Lanczos approximation, g=7 with 9 coefficients; combined with the
# reflection formula this holds relative error near 1e-14 on (0, inf).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 2000
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function on the positive axis.

    Parameters
    ----------
    x : float
        Argument, strictly positive.

    Returns
    -------
    float
        log Gamma(x).
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # reflection keeps the Lanczos series in its accurate range
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    w = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, 9):
        acc += _LANCZOS_COEF[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (w + 0.5) * math.log(t) - t + math.log(acc)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b)."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _gamma_series(a: float, x: float) -> float:
    # lower-tail series, reliable for x < a + 1
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - log_gamma(a))
    raise NumericalError(f"incomplete gamma series failed to converge for a={a}, x={x}")


def _gamma_cont_fraction(a: float, x: float) -> float:
    # modified Lentz for the upper tail, reliable for x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - log_gamma(a))
    raise NumericalError(f"incomplete gamma fraction failed to converge for a={a}, x={x}")


def reg_inc_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x).

    Parameters
    ----------
    a : float
        Shape, strictly positive.
    x : float
        Evaluation point, nonnegative.
    """
    if not a > 0.0:
        raise ValueError(f"shape must be positive, got {a!r}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(_gamma_series(a, x), 1.0)
    return max(1.0 - _gamma_cont_fraction(a, x), 0.0)


def reg_inc_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Computed directly from the continued fraction when x is in the upper
    tail, so relative accuracy survives where 1 - P would cancel.
    """
    if not a > 0.0:
        raise ValueError(f"shape must be positive, got {a!r}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return max(1.0 - _gamma_series(a, x), 0.0)
    return min(_gamma_cont_fraction(a, x), 1.0)


def _beta_cont_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2.0 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NumericalError(f"incomplete beta fraction failed to converge for a={a}, b={b}, x={x}")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    Parameters
    ----------
    a, b : float
        Shapes, strictly positive.
    x : float
        Point in [0, 1].
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shapes must be positive, got a={a!r}, b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    # the fraction converges quickly only on one side of the mean; use
    # the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side
    if x < (a + 1.0) / (a + b + 2.0):
        val = front * _beta_cont_fraction(a, b, x) / a
    else:
        val = 1.0 - front * _beta_cont_fraction(b, a, 1.0 - x) / b
    return min(max(val, 0.0), 1.0)


def erf(x: float) -> float:
    """Error function via P(1/2, x^2)."""
    if x == 0.0:
        return 0.0
    v = reg_inc_gamma_lower(0.5, x * x)
    return v if x > 0.0 else -v


def erfc(x: float) -> float:
    """Complementary error function, relatively accurate in the upper tail."""
    if x < 0.0:
        return 1.0 + reg_inc_gamma_lower(0.5, x * x)
    if x == 0.0:
        return 1.0
    return reg_inc_gamma_upper(0.5, x * x)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x) = erfc(-x / sqrt(2)) / 2."""
    return 0.5 * erfc(-x * _INV_SQRT2)
