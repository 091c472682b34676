"""Highest-posterior-density regions from gridded or sampled posteriors.

A 1-D posterior tabulated on a grid is normalized by trapezoid quadrature
and thresholded: the HPD region at level 1-alpha is {x : density(x) >= k}
with k chosen by bisection so the trapezoid mass above the threshold hits
the target coverage. Interval endpoints are placed by linear interpolation
between bracketing grid points. A sample-based variant keeps the highest
log-density fraction of a posterior sample.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CoverageError

__all__ = [
    "GridDensity",
    "HPDRegion",
    "cauchy_normal_log_posterior",
    "normalize",
    "hpd_from_grid",
    "hpd_from_sample",
]

DEFAULT_GRID_POINTS = 4001


@dataclass(frozen=True, eq=False)
class GridDensity:
    """A log-density tabulated on a strictly increasing grid.

    log_vals may be unnormalized; call :func:`normalize` to rescale so the
    trapezoid integral of exp(log_vals) is one. log_norm_const records the
    log of that integral once set (NaN beforehand).
    """

    xs: np.ndarray
    log_vals: np.ndarray
    normalized: bool = False
    log_norm_const: float = field(default=math.nan)

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        lv = np.asarray(self.log_vals, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "log_vals", lv)
        if xs.ndim != 1 or lv.ndim != 1 or xs.shape != lv.shape:
            raise ValueError("xs and log_vals must be 1-D sequences of equal length")
        if xs.size < 3:
            raise ValueError(f"grid needs at least 3 points, got {xs.size}")
        if not np.all(np.isfinite(xs)):
            raise ValueError("grid points must be finite")
        if not np.all(np.diff(xs) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        # -inf marks zero density and is fine; NaN or +inf is not
        if np.any(np.isnan(lv)) or np.any(lv == np.inf):
            raise ValueError("log_vals must not contain NaN or +inf")

    def densities(self) -> np.ndarray:
        """exp(log_vals); on the normalized scale after normalize()."""
        return np.exp(self.log_vals)

    def to_csv(self, path: str) -> None:
        """Write the grid as two-column CSV (x, density)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "density"])
            for x, d in zip(self.xs, self.densities()):
                writer.writerow([format(x, ".17g"), format(d, ".17g")])


@dataclass(frozen=True)
class HPDRegion:
    """Union of disjoint intervals plus the density threshold that cut them."""

    intervals: tuple[tuple[float, float], ...]
    k_alpha: float
    coverage: float

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)


def cauchy_normal_log_posterior(
    data: Sequence[float],
    prior_variance: float,
    grid: Sequence[float] | None = None,
    points: int = DEFAULT_GRID_POINTS,
) -> GridDensity:
    """Unnormalized log posterior for a normal-mean prior with Cauchy data.

    The model is x_i ~ Cauchy(mu, 1) with mu ~ Normal(0, prior_variance);
    the returned grid holds -mu^2/(2 v) - sum_i log(1 + (x_i - mu)^2).
    When grid is omitted it spans [min(data) - 10 s, max(data) + 10 s] with
    s = sqrt(prior_variance), at `points` equally spaced values; data too
    spread for that span to be a float raise ValueError.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("data must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must be finite")
    if not prior_variance > 0:
        raise ValueError(f"prior_variance must be positive, got {prior_variance!r}")
    if grid is None:
        scale = math.sqrt(prior_variance)
        lo, hi = float(arr.min()) - 10.0 * scale, float(arr.max()) + 10.0 * scale
        if not math.isfinite(hi - lo):
            raise ValueError(f"default grid [{lo:g}, {hi:g}] for data in [{arr.min():g}, "
                             f"{arr.max():g}] spans more than a float; give an explicit grid")
        xs = np.linspace(lo, hi, points)
    else:
        xs = np.asarray(grid, dtype=float)
    dev = arr[np.newaxis, :] - xs[:, np.newaxis]
    log_vals = -xs * xs / (2.0 * prior_variance) - np.sum(np.log1p(dev * dev), axis=1)
    return GridDensity(xs, log_vals)


def _trapezoid(vals: np.ndarray, xs: np.ndarray) -> float:
    return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(xs)))


def normalize(g: GridDensity) -> GridDensity:
    """Rescale so the trapezoid integral of the density is one.

    Works in log space with a max shift so unnormalized values far from
    zero do not overflow. Raises ValueError when every value is -inf.
    """
    m = float(np.max(g.log_vals))
    if m == -math.inf:
        raise ValueError("cannot normalize a grid that is zero everywhere")
    shifted = np.exp(g.log_vals - m)
    integral = _trapezoid(shifted, g.xs)
    if not (integral > 0.0 and math.isfinite(integral)):
        raise ValueError(f"trapezoid integral is not positive and finite: {integral!r}")
    log_c = m + math.log(integral)
    return GridDensity(g.xs, g.log_vals - log_c, normalized=True, log_norm_const=log_c)


def _coverage_above(dens: np.ndarray, xs: np.ndarray, k: float) -> float:
    """Trapezoid mass of {x : linear-interpolated density >= k}."""
    f0 = dens[:-1]
    f1 = dens[1:]
    dx = np.diff(xs)
    a0 = f0 >= k
    a1 = f1 >= k
    mass = np.zeros_like(dx)
    both = a0 & a1
    mass[both] = 0.5 * (f0[both] + f1[both]) * dx[both]
    falling = a0 & ~a1
    if np.any(falling):
        frac = (k - f0[falling]) / (f1[falling] - f0[falling])
        mass[falling] = 0.5 * (f0[falling] + k) * frac * dx[falling]
    rising = ~a0 & a1
    if np.any(rising):
        frac = (k - f0[rising]) / (f1[rising] - f0[rising])
        mass[rising] = 0.5 * (k + f1[rising]) * (1.0 - frac) * dx[rising]
    return float(np.sum(mass))


def _intervals_at(dens: np.ndarray, xs: np.ndarray, k: float) -> tuple[tuple[float, float], ...]:
    above = dens >= k
    if not np.any(above):
        return ()
    out: list[tuple[float, float]] = []
    n = dens.size
    i = 0
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        if i == 0:
            lo = float(xs[0])
        else:
            frac = (k - dens[i - 1]) / (dens[i] - dens[i - 1])
            lo = float(xs[i - 1] + frac * (xs[i] - xs[i - 1]))
        if j == n - 1:
            hi = float(xs[-1])
        else:
            frac = (k - dens[j]) / (dens[j + 1] - dens[j])
            hi = float(xs[j] + frac * (xs[j + 1] - xs[j]))
        out.append((lo, hi))
        i = j + 1
    return tuple(out)


def hpd_from_grid(g: GridDensity, alpha: float) -> HPDRegion:
    """HPD region at level 1-alpha from a normalized grid.

    Coverage is monotone nonincreasing in the threshold k, so k is found
    by bisection over (0, max density]; the loop stops when the achieved
    coverage is within 1e-6 of the target or the k bracket is thinner than
    1e-12.
    """
    if not g.normalized:
        raise ValueError("hpd_from_grid requires a normalized GridDensity")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    dens = g.densities()
    xs = g.xs
    target = 1.0 - alpha
    lo, hi = 0.0, float(np.max(dens))
    k = hi
    cov = _coverage_above(dens, xs, k)
    for _ in range(200):
        k = 0.5 * (lo + hi)
        cov = _coverage_above(dens, xs, k)
        if abs(cov - target) <= 1e-6:
            break
        if cov > target:
            lo = k
        else:
            hi = k
        if hi - lo < 1e-12:
            k = 0.5 * (lo + hi)
            cov = _coverage_above(dens, xs, k)
            break
    if abs(cov - target) > 1e-2:
        raise CoverageError(
            f"coverage {cov:.6f} cannot reach target {target:.6f} on this grid")
    return HPDRegion(intervals=_intervals_at(dens, xs, k), k_alpha=k, coverage=cov)


def hpd_from_sample(
    points: Sequence,
    log_post: Callable[[object], float],
    alpha: float,
) -> np.ndarray:
    """Pointwise HPD approximation: the highest-density share of a sample.

    Evaluates log_post at every point and keeps the ceil((1-alpha)*count)
    best, retaining every point tied with the value at the cut. The result
    preserves the input order.
    """
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        raise ValueError("points must be a nonempty sample")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    count = arr.shape[0]
    vals = np.array([float(log_post(p)) for p in arr])
    if np.any(np.isnan(vals)):
        raise ValueError("log_post returned NaN")
    keep = math.ceil((1.0 - alpha) * count)
    cut = np.sort(vals)[::-1][keep - 1]
    return arr[vals >= cut]
