"""Highest-posterior-density regions from gridded or sampled posteriors.

A 1-D posterior tabulated on a grid is normalized by trapezoid quadrature
and thresholded: the HPD region at level 1-alpha is {x : density(x) >= k},
with k solved in closed form so that the trapezoid mass of the linearly
interpolated density above k is the target coverage (Hyndman 1996).
Interval endpoints are placed by linear interpolation between bracketing
grid points. A sample-based variant keeps the highest log-density fraction
of a posterior sample: the ceil((1-alpha)*count) best points, and every
point tied with the value at the cut, by one rule for a per-point callable
(``hpd_from_sample``) and for a whole array of log densities at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import CoverageError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GridDensity",
    "HPDRegion",
    "cauchy_normal_log_posterior",
    "normalize",
    "hpd_from_grid",
    "hpd_from_sample",
]

DEFAULT_GRID_POINTS = 4001
_SQRT_MAX = math.sqrt(sys.float_info.max)  # the largest |mu| whose square is finite


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
        import numpy as np
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
        import numpy as np
        return np.exp(self.log_vals)

    def to_csv(self, path: str) -> None:
        """Write the grid as two-column CSV (x, density)."""
        _write_csv_rows(path, "x,density", "%.17g,%.17g\n",
                       zip(self.xs.tolist(), self.densities().tolist()))


def _write_csv_rows(path: str, header: str, template: str, rows) -> None:
    """Write a header line, then `template % row` per row, one row at a time.

    For numeric rows this gives csv.writer's bytes, which never quotes a
    number; writing from the iterator keeps no copy of the whole file.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(template % row for row in rows)


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
    spread for those points to lie within s of each other raise ValueError.
    """
    import numpy as np
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("data must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must be finite")
    if not 0.0 < prior_variance < math.inf:
        raise ValueError(f"prior_variance must lie in (0, inf), got {prior_variance!r}")
    if grid is None:
        scale = math.sqrt(prior_variance)
        lo, hi = float(arr.min()) - 10.0 * scale, float(arr.max()) + 10.0 * scale
        if not hi - lo <= (points - 1) * scale:  # also when the span overflows
            raise ValueError(f"default grid [{lo:g}, {hi:g}] for data in [{arr.min():g}, "
                             f"{arr.max():g}] spaces points over the prior sd {scale:g} apart")
        if max(-lo, hi) > _SQRT_MAX:
            raise ValueError(f"default grid [{lo:g}, {hi:g}] for prior_variance "
                             f"{prior_variance:g} reaches past |mu| = {_SQRT_MAX:.3g}, where "
                             "mu^2 leaves float range; give the grid explicitly")
        xs = np.linspace(lo, hi, points)
    else:
        xs = np.asarray(grid, dtype=float)
    # log1p(d^2) is 2 log|d| to double precision long before d^2 overflows
    dev = np.abs(arr[np.newaxis, :] - xs[:, np.newaxis])
    log1p_sq = np.where(dev > 1e150, 2.0 * np.log(np.maximum(dev, 1e150)),
                       np.log1p(np.square(np.minimum(dev, 1e150))))
    # an explicit grid past 1e154 has prior density 0; halving before the division
    # keeps 2 * prior_variance from overflowing, with the same bits otherwise
    with np.errstate(over="ignore"):
        log_vals = (-xs * xs / 2.0) / prior_variance - np.sum(log1p_sq, axis=1)
    return GridDensity(xs, log_vals)


def _trapezoid(vals: np.ndarray, xs: np.ndarray) -> float:
    import numpy as np
    return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(xs)))


def normalize(g: GridDensity) -> GridDensity:
    """Rescale so the trapezoid integral of the density is one.

    Works in log space with a max shift so unnormalized values far from
    zero do not overflow. Raises ValueError when every value is -inf.
    """
    import numpy as np
    m = float(np.max(g.log_vals))
    if m == -math.inf:
        raise ValueError("cannot normalize a grid that is zero everywhere")
    shifted = np.exp(g.log_vals - m)
    integral = _trapezoid(shifted, g.xs)
    if not (integral > 0.0 and math.isfinite(integral)):
        raise ValueError(f"trapezoid integral is not positive and finite: {integral!r}")
    log_c = m + math.log(integral)
    return GridDensity(g.xs, g.log_vals - log_c, normalized=True, log_norm_const=log_c)


def _intervals_at(dens: np.ndarray, xs: np.ndarray, k: float) -> tuple[tuple[float, float], ...]:
    """Runs of grid points with density >= k, ended where density crosses k."""
    import numpy as np
    steps = np.diff(np.concatenate(([0], (dens >= k).astype(np.int8), [0])))
    first, last = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1) - 1
    lo, hi = xs[first], xs[last]
    inner_lo, inner_hi = first > 0, last < xs.size - 1

    def crossing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return xs[a] + (k - dens[a]) / (dens[b] - dens[a]) * (xs[b] - xs[a])

    lo[inner_lo] = crossing(first[inner_lo] - 1, first[inner_lo])
    hi[inner_hi] = crossing(last[inner_hi], last[inner_hi] + 1)
    return tuple(zip(lo.tolist(), hi.tolist()))


def hpd_from_grid(g: GridDensity, alpha: float) -> HPDRegion:
    """HPD region at level 1-alpha from a normalized grid, with k exact.

    Hyndman's (1996) sort-based construction on the linearly interpolated
    density: a segment of width dx with end densities lo < hi adds its whole
    trapezoid to the mass above k once k <= lo, and 0.5*dx*(hi^2 - k^2)/(hi - lo)
    when lo < k < hi. Cumulative sums over the grid densities, sorted once,
    give the coverage at each; the first to reach 1-alpha brackets k, and one
    square root gives it. Where a plateau makes the coverage jump past
    1-alpha, k takes the nearer side; CoverageError if that is over 1e-2 off.
    """
    if not g.normalized:
        raise ValueError("hpd_from_grid requires a normalized GridDensity")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    import numpy as np
    dens, target = g.densities(), 1.0 - alpha
    neg_levels, rank = np.unique(-dens, return_inverse=True)  # rank 0: highest density
    levels, count = -neg_levels, neg_levels.size
    hi, lo = np.maximum(dens[:-1], dens[1:]), np.minimum(dens[:-1], dens[1:])
    rank_hi, rank_lo = np.minimum(rank[:-1], rank[1:]), np.maximum(rank[:-1], rank[1:])
    half_dx = 0.5 * np.diff(g.xs)
    whole = half_dx * (lo + hi)
    with np.errstate(over="ignore"):  # a gap too small to give a finite c is flat
        c = np.nan_to_num(half_dx / np.where(hi > lo, hi - lo, np.inf), posinf=0.0)
    # coverage at each level; a segment is partial only at levels strictly inside
    # it, so a near-flat one (huge c) never enters the running sums to round them
    inside = rank_lo - rank_hi > 1
    at = np.concatenate((rank_hi[inside] + 1, rank_lo[inside]))
    signed_c = np.concatenate((c[inside], -c[inside]))
    cov = (np.cumsum(np.bincount(rank_lo, whole, count)
                     + np.bincount(at, signed_c * np.tile(hi[inside] ** 2, 2), count))
           - np.cumsum(np.bincount(at, signed_c, count)) * levels * levels)
    j = min(int(np.searchsorted(cov, target)), count - 1)
    k, coverage = float(levels[j]), float(cov[j])
    spans = (rank_hi < j) & (rank_lo >= j)  # the segments crossing (levels[j], levels[j-1])
    mass, c_sum = float(np.sum(whole[rank_lo < j])), float(np.sum(c[spans]))
    if c_sum > 0.0:  # k solves the quadratic there; else level j is the top or a plateau's foot
        hi_sq = float(np.dot(c[spans], hi[spans] ** 2)) / c_sum
        k_sq = hi_sq - (target - mass) / c_sum
        k_above = math.sqrt(k_sq) if k_sq > k * k else math.nextafter(k, math.inf)
        cov_above = mass + c_sum * (hi_sq - k_above * k_above)
        if abs(cov_above - target) <= abs(coverage - target):
            k, coverage = k_above, cov_above
    if abs(coverage - target) > 1e-2:
        raise CoverageError(
            f"coverage {coverage:.6f} cannot reach target {target:.6f} on this grid")
    return HPDRegion(intervals=_intervals_at(dens, g.xs, k), k_alpha=k, coverage=coverage)


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
    import numpy as np
    arr = np.asarray(points, dtype=float)
    return arr[_sample_keep_mask(np.array([float(log_post(p)) for p in arr]), alpha)]


def _sample_keep_mask(log_vals: np.ndarray, alpha: float) -> np.ndarray:
    """Which of a sample's log densities the level-(1-alpha) HPD keeps.

    True for the ceil((1-alpha)*count) largest values and every value tied
    with the one at the cut.
    """
    import numpy as np
    if log_vals.size == 0:
        raise ValueError("points must be a nonempty sample")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    if np.any(np.isnan(log_vals)):
        raise ValueError("log_post returned NaN")
    rank = log_vals.size - math.ceil((1.0 - alpha) * log_vals.size)
    return log_vals >= np.partition(log_vals, rank)[rank]
