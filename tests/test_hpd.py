"""Grid densities and highest-density credible regions."""

import csv
import io
import math
import warnings

import numpy as np
import pytest
import scipy.stats as st

from bayesdesk.errors import CoverageError
from bayesdesk.hpd import (
    DEFAULT_GRID_POINTS,
    GridDensity,
    HPDRegion,
    cauchy_normal_log_posterior,
    hpd_from_grid,
    hpd_from_sample,
    normalize,
)
from bayesdesk.hpd import _sample_keep_mask


def _normal_grid(mean=0.0, sd=1.0, lo=-8.0, hi=8.0, points=2001):
    xs = np.linspace(lo, hi, points)
    return GridDensity(xs, st.norm.logpdf(xs, mean, sd))


def _trapezoid_mass(xs, dens):
    return float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs)))


def _mass_above(xs, dens, k):
    """Trapezoid mass of the linearly interpolated density where it is >= k."""
    pieces = []
    for x0, x1, f0, f1 in zip(xs[:-1], xs[1:], dens[:-1], dens[1:]):
        lo, hi = min(f0, f1), max(f0, f1)
        if k <= lo:
            pieces.append(0.5 * (f0 + f1) * (x1 - x0))
        elif k < hi:  # the part of the segment above k is a trapezoid of width t * dx
            pieces.append(0.5 * (hi + k) * (hi - k) / (hi - lo) * (x1 - x0))
    return math.fsum(pieces)


def _log_of(dens):
    with np.errstate(divide="ignore"):
        return np.log(dens)


# symmetric grids on integer ticks, so the two flanks tie exactly
_TICKS = np.arange(-100, 101) / 100.0

EXACT_COVERAGE_GRIDS = {
    "normal": lambda: _normal_grid(points=8001),
    "bimodal": lambda: GridDensity(np.linspace(-12, 12, 6001), _log_of(
        0.5 * st.norm.pdf(np.linspace(-12, 12, 6001), -5, 0.8)
        + 0.5 * st.norm.pdf(np.linspace(-12, 12, 6001), 5, 0.8))),
    "scaled-normal": lambda: GridDensity(np.linspace(-8, 8, 4001) * 17.5,
                                         st.norm.logpdf(np.linspace(-8, 8, 4001)) - math.log(17.5)),
    "cauchy-normal": lambda: cauchy_normal_log_posterior([-4.3, 3.2], 10.0),
    "beta-40001": lambda: GridDensity(np.linspace(0, 1, 40001),
                                      st.beta.logpdf(np.linspace(0, 1, 40001), 4, 6)),
    "triangle": lambda: GridDensity(_TICKS, _log_of(1.0 - np.abs(_TICKS))),
    "flat-top": lambda: GridDensity(_TICKS, _log_of(np.minimum(1.0, 2.0 * (1.0 - np.abs(_TICKS))))),
}


class TestGridDensity:
    def test_construction_and_densities(self):
        g = _normal_grid()
        assert g.xs.size == 2001
        assert not g.normalized
        assert np.allclose(g.densities(), st.norm.pdf(g.xs))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridDensity(np.array([0.0, 1.0]), np.array([0.0, 0.0]))  # too short
        with pytest.raises(ValueError):
            GridDensity(np.array([0.0, 1.0, 0.5]), np.zeros(3))  # not increasing
        with pytest.raises(ValueError):
            GridDensity(np.array([0.0, 1.0, 2.0]), np.array([0.0, np.nan, 0.0]))
        with pytest.raises(ValueError):
            GridDensity(np.array([0.0, 1.0, 2.0]), np.array([0.0, np.inf, 0.0]))

    def test_minus_inf_log_values_allowed(self):
        xs = np.linspace(0.0, 1.0, 11)
        lv = np.full(11, -math.inf)
        lv[5] = 0.0
        g = GridDensity(xs, lv)
        assert g.densities()[0] == 0.0

    def test_csv_round_trip(self, tmp_path):
        g = normalize(_normal_grid(points=101))
        path = tmp_path / "grid.csv"
        g.to_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (101, 2)
        assert np.allclose(rows[:, 0], g.xs)
        assert np.allclose(rows[:, 1], g.densities())
        assert b"\r" not in path.read_bytes()

    def test_csv_bytes_equal_csv_writer(self, tmp_path):
        xs = np.concatenate(([-1e300, -1.0, 0.0, 5e-324, 1e-5], np.linspace(1.0, 9.0, 97)))
        log_vals = np.concatenate(([-math.inf, -1e10, 0.0, 700.0], np.linspace(-50, 2, 98)))
        g = GridDensity(xs, log_vals)
        g.to_csv(tmp_path / "grid.csv")
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["x", "density"])
        for x, d in zip(g.xs, g.densities()):
            writer.writerow([format(x, ".17g"), format(d, ".17g")])
        assert (tmp_path / "grid.csv").read_text() == want.getvalue()


class TestNormalize:
    def test_unit_mass_after_normalization(self):
        raw = GridDensity(np.linspace(-6, 6, 1001),
                          st.norm.logpdf(np.linspace(-6, 6, 1001)) + 3.7)
        g = normalize(raw)
        assert g.normalized
        assert _trapezoid_mass(g.xs, g.densities()) == pytest.approx(1.0, abs=1e-12)
        assert g.log_norm_const == pytest.approx(3.7, abs=1e-6)

    def test_all_minus_inf_rejected(self):
        xs = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            normalize(GridDensity(xs, np.full(5, -math.inf)))


class TestCauchyNormalPosterior:
    def test_default_grid_span(self):
        g = cauchy_normal_log_posterior([-4.3, 3.2], 10.0)
        spread = 10.0 * math.sqrt(10.0)
        assert g.xs.size == DEFAULT_GRID_POINTS
        assert g.xs[0] == pytest.approx(-4.3 - spread)
        assert g.xs[-1] == pytest.approx(3.2 + spread)

    def test_log_posterior_formula(self):
        data = [-1.0, 2.0]
        g = cauchy_normal_log_posterior(data, 4.0, np.linspace(-3, 3, 7))
        for x, lv in zip(g.xs, g.log_vals):
            expected = -x * x / 8.0 - sum(math.log1p((d - x) ** 2) for d in data)
            assert lv == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            cauchy_normal_log_posterior([], 1.0)
        with pytest.raises(ValueError):
            cauchy_normal_log_posterior([1.0], 0.0)

    def test_prior_term_halves_before_dividing_with_the_same_bits(self):
        # (-x*x/2)/v and -x*x/(2v) each round once unless x*x/2 is subnormal or
        # 2v overflows, so they agree bit for bit on every other input
        rng = np.random.default_rng(24)
        xs = rng.standard_normal(20000) * 10.0 ** rng.uniform(-150, 145, 20000)
        v = 10.0 ** rng.uniform(-8, 308.2, 20000)
        with np.errstate(over="ignore"):
            twice_v = 2.0 * v
        ok = (xs * xs / 2.0 >= np.finfo(float).tiny) & (twice_v < np.inf)
        assert ok.sum() > 15000
        assert np.array_equal((-xs * xs / 2.0)[ok] / v[ok], (-xs * xs)[ok] / twice_v[ok])

    def test_prior_variance_near_max_float_warns_nowhere(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"mu\^2 leaves float range"):
                cauchy_normal_log_posterior([-3.0, 1e-320], 1e308)
            g = cauchy_normal_log_posterior([1.0, 2.0], 1e308, np.linspace(-1e155, 1e155, 5))
        assert g.log_vals[0] == -math.inf and math.isfinite(g.log_vals[2])


class TestHpdFromGrid:
    def test_normal_interval_matches_closed_form(self):
        g = normalize(_normal_grid(points=8001))
        region = hpd_from_grid(g, 0.05)
        assert len(region.intervals) == 1
        lo, hi = region.intervals[0]
        assert lo == pytest.approx(-1.959964, abs=2e-4)
        assert hi == pytest.approx(1.959964, abs=2e-4)
        assert region.coverage == pytest.approx(0.95, abs=1e-5)
        # threshold equals the density at the interval edge
        assert region.k_alpha == pytest.approx(st.norm.pdf(1.959964), rel=1e-3)

    def test_requires_normalized_grid(self):
        with pytest.raises(ValueError):
            hpd_from_grid(_normal_grid(), 0.05)

    def test_alpha_validation(self):
        g = normalize(_normal_grid())
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                hpd_from_grid(g, bad)

    def test_bimodal_mixture_gives_two_intervals(self):
        xs = np.linspace(-12, 12, 6001)
        pdf = 0.5 * st.norm.pdf(xs, -5, 0.8) + 0.5 * st.norm.pdf(xs, 5, 0.8)
        g = normalize(GridDensity(xs, np.log(pdf)))
        region = hpd_from_grid(g, 0.1)
        assert len(region.intervals) == 2
        assert region.coverage == pytest.approx(0.9, abs=1e-5)
        (lo1, hi1), (lo2, hi2) = region.intervals
        assert lo1 < -5 < hi1 < lo2 < 5 < hi2
        # symmetric mixture: intervals mirror each other
        assert lo1 == pytest.approx(-hi2, abs=1e-6)

    def test_contains_and_total_length(self):
        region = HPDRegion(intervals=((0.0, 1.0), (2.0, 3.0)), k_alpha=0.1, coverage=0.9)
        assert region.contains(0.5) and region.contains(2.0)
        assert not region.contains(1.5)
        assert region.total_length() == pytest.approx(2.0)

    def test_scale_invariance(self):
        # scaling the axis by c scales intervals by c and the threshold by 1/c
        g = normalize(_normal_grid(points=4001))
        base = hpd_from_grid(g, 0.05)
        for c in (0.25, 3.0, 17.5):
            scaled = GridDensity(g.xs * c, g.log_vals - math.log(c),
                                 normalized=True, log_norm_const=g.log_norm_const)
            region = hpd_from_grid(scaled, 0.05)
            assert region.k_alpha == pytest.approx(base.k_alpha / c, rel=1e-9)
            for (lo, hi), (blo, bhi) in zip(region.intervals, base.intervals):
                assert lo == pytest.approx(blo * c, rel=1e-9, abs=1e-9)
                assert hi == pytest.approx(bhi * c, rel=1e-9, abs=1e-9)

    def test_minimality_against_brute_force(self):
        # for a unimodal density the HPD interval is the shortest one with
        # the target mass; scan all grid endpoints as the reference
        for mean, sd, alpha in ((0.0, 1.0, 0.05), (2.0, 0.5, 0.2), (-1.0, 3.0, 0.1)):
            g = normalize(_normal_grid(mean, sd, mean - 9 * sd, mean + 9 * sd, 2001))
            region = hpd_from_grid(g, alpha)
            dens = g.densities()
            dx = float(g.xs[1] - g.xs[0])
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * dx)])
            best = math.inf
            for i in range(g.xs.size):
                j = np.searchsorted(cum, cum[i] + (1.0 - alpha))
                if j < cum.size:
                    best = min(best, g.xs[j] - g.xs[i])
            assert region.total_length() <= best + dx  # within one grid cell


    @pytest.mark.parametrize("alpha", [0.05, 0.3])
    @pytest.mark.parametrize("grid", list(EXACT_COVERAGE_GRIDS.values()),
                             ids=list(EXACT_COVERAGE_GRIDS))
    def test_coverage_is_exact(self, grid, alpha):
        g = normalize(grid())
        region = hpd_from_grid(g, alpha)
        assert abs(region.coverage - (1.0 - alpha)) <= 1e-10
        assert region.coverage == pytest.approx(
            _mass_above(g.xs, g.densities(), region.k_alpha), abs=1e-13)
        dens_at_ends = np.interp([e for iv in region.intervals for e in iv], g.xs, g.densities())
        assert dens_at_ends == pytest.approx(region.k_alpha, rel=1e-9)

    def test_triangle_threshold_in_closed_form(self):
        # density 1 - |x| is linear between ticks, so the grid answer is exact:
        # the mass above k is 1 - k^2, so k = sqrt(alpha) and the ends are +-(1 - k)
        g = normalize(EXACT_COVERAGE_GRIDS["triangle"]())
        for alpha in (0.05, 0.5):
            region = hpd_from_grid(g, alpha)
            k = math.sqrt(alpha)
            assert region.k_alpha == pytest.approx(k, rel=1e-13)
            assert region.intervals == (pytest.approx((k - 1.0, 1.0 - k), rel=1e-13),)


class TestHpdFromSample:
    def test_retains_top_density_fraction(self):
        rng = np.random.default_rng(41)
        draws = rng.normal(size=(1000, 1))
        log_post = lambda p: float(st.norm.logpdf(p[0]))
        kept = hpd_from_sample(draws, log_post, 0.25)
        assert kept.shape[0] == math.ceil(0.75 * 1000)
        # retained points are exactly those with the highest density
        vals = np.abs(draws[:, 0])
        cutoff = np.sort(vals)[kept.shape[0] - 1]
        assert np.all(np.abs(kept[:, 0]) <= cutoff + 1e-12)

    def test_preserves_input_order(self):
        draws = np.array([[0.0], [3.0], [0.1], [2.5], [0.2]])
        kept = hpd_from_sample(draws, lambda p: float(st.norm.logpdf(p[0])), 0.4)
        assert np.array_equal(kept, np.array([[0.0], [0.1], [0.2]]))

    def test_validation(self):
        draws = np.zeros((5, 2))
        with pytest.raises(ValueError):
            hpd_from_sample(np.empty((0, 2)), lambda p: 0.0, 0.1)
        with pytest.raises(ValueError):
            hpd_from_sample(draws, lambda p: 0.0, 1.0)
        with pytest.raises(ValueError):
            hpd_from_sample(draws, lambda p: float("nan"), 0.1)


class TestSampleKeepMask:
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9, 0.999])
    def test_same_points_as_the_per_point_route(self, alpha):
        rng = np.random.default_rng(2504)
        draws = rng.normal(size=(3001, 2))
        vals = -np.sum(draws * draws, axis=1)
        vals[::50] = vals[7]  # ties with whatever value lands at the cut
        vals[::301] = -math.inf
        kept = _sample_keep_mask(vals, alpha)
        row_val = dict(zip(map(tuple, draws.tolist()), vals.tolist()))
        assert np.array_equal(draws[kept], hpd_from_sample(draws, lambda p: row_val[tuple(p)],
                                                           alpha))
        cut = np.sort(vals)[::-1][math.ceil((1.0 - alpha) * vals.size) - 1]
        assert np.array_equal(kept, vals >= cut)

    def test_validation(self):
        for vals, alpha in ((np.empty(0), 0.1), (np.zeros(5), 1.0), (np.zeros(5), 0.0),
                            (np.array([0.0, math.nan]), 0.1)):
            with pytest.raises(ValueError):
                _sample_keep_mask(vals, alpha)


class TestCoverageFailure:
    def test_unreachable_coverage_raises(self):
        # a two-point spike cannot support fine coverage targets: the
        # interpolated coverage jumps well past 1e-2 resolution near k=0
        xs = np.array([0.0, 0.5, 1.0])
        g = normalize(GridDensity(xs, np.array([-math.inf, 0.0, -math.inf])))
        try:
            region = hpd_from_grid(g, 0.05)
        except CoverageError:
            return
        assert abs(region.coverage - 0.95) <= 1e-2

    def test_uniform_grid_raises(self):
        # every threshold up to the plateau height keeps the whole grid
        g = normalize(GridDensity(np.linspace(0.0, 1.0, 11), np.zeros(11)))
        with pytest.raises(CoverageError):
            hpd_from_grid(g, 0.05)
