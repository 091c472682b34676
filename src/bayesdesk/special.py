"""Scalar special functions underlying every density and CDF in the package.

Implemented from scratch: Lanczos log-gamma (with reflection below 1/2),
series/continued-fraction regularized incomplete gamma, a modified-Lentz
continued fraction for the regularized incomplete beta, and the error
function pair built on the incomplete gamma. Downstream CDFs (Gamma, Beta,
Binomial, Poisson, Student t, the normal CDF) reduce to these three kernels.
All functions take and return Python floats, except that ``reg_inc_beta``
also takes a numpy array of points with scalar shapes, for the Student t CDF
of a whole leave-one-out scan. That path runs the same modified-Lentz
fraction (Thompson & Barnett 1986) on every element not yet converged, under
a per-element convergence mask, and keeps each element's operations in the
scalar order, so each result has the bits of the scalar call; it is a
separate loop, not a wrapper, because on one element it costs about twenty
scalar calls. A continued fraction or series that does not converge raises
NumericalError.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable

from .errors import NumericalError

if TYPE_CHECKING:
    import numpy as np

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


def _is_numpy(v, kind: str) -> bool:
    """isinstance(v, numpy.<kind>), answered without importing numpy.

    No numpy value can exist before numpy is imported, so while it is not in
    sys.modules the answer is False. Callers test the builtin type first, as
    in `isinstance(v, int) or _is_numpy(v, "integer")`, so a Python scalar
    costs one isinstance.
    """
    np = sys.modules.get("numpy")
    return np is not None and isinstance(v, getattr(np, kind))


def _check_real(obj, name: str, rule: str = "be finite", ok: Callable | None = None) -> None:
    """Check that field `name` of the frozen dataclass `obj` is a finite real for
    which `ok` holds, and store it as a builtin int or float.

    numpy integer and floating scalars are accepted; a bool is kept as it is.
    Otherwise raises ValueError("<name> must <rule>, got <value!r>").
    """
    value = real = getattr(obj, name)
    if type(value) not in (float, int, bool):
        real = (int(value) if isinstance(value, int) or _is_numpy(value, "integer")
                else float(value) if isinstance(value, float) or _is_numpy(value, "floating")
                else math.nan)
    if not (math.isfinite(real) and (ok is None or ok(real))):
        raise ValueError(f"{name} must {rule}, got {value!r}")
    if real is not value:
        object.__setattr__(obj, name, real)


def _elementwise(f, x: np.ndarray, *args) -> np.ndarray:
    """f mapped over the elements of a 1-D float array (and of `args`), as floats."""
    import numpy as np
    return np.fromiter(map(f, x.tolist(), *args), float, x.size)


def _beta_cont_fraction_array(a: float, b: float, x: np.ndarray) -> np.ndarray:
    # _beta_cont_fraction on every element, dropping each once it converges
    import numpy as np
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    live = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < _FPMIN, _FPMIN, d)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2.0 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _FPMIN, _FPMIN, c)
        d = 1.0 / d
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _FPMIN, _FPMIN, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            out[live[done]] = h[done]
            going = ~done
            if not going.any():
                return out
            live, x, c, d, h = live[going], x[going], c[going], d[going], h[going]
    raise NumericalError(f"incomplete beta fraction failed to converge for a={a}, b={b}, "
                         f"x={float(x[0])}")


def _reg_inc_beta_array(a: float, b: float, x: np.ndarray) -> np.ndarray:
    # reg_inc_beta element by element: logs and exps through math, as the scalar does
    import numpy as np
    outside = ~((x >= 0.0) & (x <= 1.0))
    if outside.any():
        raise ValueError(f"x must lie in [0, 1], got {float(x[outside][0])!r}")
    out = np.where(x == 1.0, 1.0, 0.0)
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    xi = x[inner]
    exponent = a * _elementwise(math.log, xi) + b * _elementwise(math.log1p, -xi) - log_beta(a, b)
    front = _elementwise(math.exp, exponent)
    lower = xi < (a + 1.0) / (a + b + 2.0)
    val = np.empty_like(xi)
    if lower.any():
        val[lower] = front[lower] * _beta_cont_fraction_array(a, b, xi[lower]) / a
    upper = ~lower
    if upper.any():
        val[upper] = 1.0 - front[upper] * _beta_cont_fraction_array(b, a, 1.0 - xi[upper]) / b
    out[inner] = np.minimum(np.maximum(val, 0.0), 1.0)
    return out


def reg_inc_beta(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b).

    Parameters
    ----------
    a, b : float
        Shapes, strictly positive.
    x : float or numpy.ndarray
        Point in [0, 1], or an array of such points; an array gives an
        array of the same shape, each element equal to the scalar result.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shapes must be positive, got a={a!r}, b={b!r}")
    if not isinstance(x, float) and _is_numpy(x, "ndarray"):
        import numpy as np
        flat = np.asarray(x, dtype=float).ravel()
        with np.errstate(all="ignore"):  # float arithmetic overflows silently, as in Python
            return _reg_inc_beta_array(a, b, flat).reshape(np.shape(x))
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
