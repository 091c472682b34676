"""Posterior predictive distribution and leave-one-out outlier screening."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate as si
import scipy.stats as st

from bayesdesk.conjugate import (
    NormalInvGammaModel,
    SummaryStats,
    jeffreys_normal_posterior,
    update_normal_inverse_gamma,
)
from bayesdesk.errors import ImproperPosteriorError, NumericalError
from bayesdesk.predictive import (
    OutlierReport,
    PredictiveT,
    bonferroni_bound,
    detect_outliers,
    loo_predictive_cdf,
    predictive_from_posterior,
)


class TestPredictiveFromPosterior:
    def test_noninformative_reference_case(self):
        post = NormalInvGammaModel(xi=0.0, lam_mu=10.0, lam_sigma=5.0, alpha=1.0)
        pred = predictive_from_posterior(post)
        assert pred.df == 10.0
        assert pred.location == 0.0
        assert pred.scale == pytest.approx(math.sqrt(11.0 / 100.0), rel=1e-14)

    def test_improper_posterior_refused(self):
        with pytest.raises(ImproperPosteriorError):
            predictive_from_posterior(NormalInvGammaModel())

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            post = NormalInvGammaModel(
                xi=float(rng.normal(0, 3)),
                lam_mu=float(np.exp(rng.uniform(-1, 3))),
                lam_sigma=float(np.exp(rng.uniform(-0.5, 2.5))),
                alpha=float(np.exp(rng.uniform(-1, 2))))
            pred = predictive_from_posterior(post)
            width = 60.0 * pred.scale * max(1.0, math.sqrt(pred.df / max(pred.df - 2.0, 0.1)))
            total, _ = si.quad(lambda x: math.exp(pred.log_density(x)),
                               pred.location - width, pred.location + width,
                               epsabs=1e-12, limit=300,
                               points=[pred.location])
            tail = 2.0 * st.t.sf(width / pred.scale, pred.df)
            assert total + tail == pytest.approx(1.0, abs=1e-8)

    def test_noninformative_kernel_shape(self):
        # predictive density tracks [ssd + (n/(n+1)) (x - xbar)^2]^(-(n+1)/2)
        rng = np.random.default_rng(62)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            xbar = float(rng.normal(0, 2))
            ssd = float(np.exp(rng.uniform(-2, 3)))
            stats = SummaryStats(n=n, mean=xbar, sum_sq_dev=ssd)
            pred = predictive_from_posterior(
                update_normal_inverse_gamma(NormalInvGammaModel(), stats))
            c = n / (n + 1.0)
            log_z = (-0.5 * n * math.log(ssd) + 0.5 * math.log(math.pi / c)
                     + math.lgamma(0.5 * n) - math.lgamma(0.5 * (n + 1)))
            for x in xbar + np.linspace(-6, 6, 41) * math.sqrt(ssd / n):
                log_kernel = -0.5 * (n + 1) * math.log(ssd + c * (x - xbar) ** 2)
                assert pred.log_density(float(x)) == pytest.approx(
                    log_kernel - log_z, abs=1e-10)

    def test_cdf_matches_scipy(self):
        pred = PredictiveT(location=1.0, scale=0.5, df=7.0)
        for x in np.linspace(-3, 5, 33):
            assert pred.cdf(float(x)) == pytest.approx(
                float(st.t.cdf(x, 7.0, loc=1.0, scale=0.5)), abs=1e-12)

    def test_to_distribution(self):
        pred = PredictiveT(location=2.0, scale=1.5, df=4.0)
        d = pred.to_distribution()
        assert d.df == 4.0 and d.location == 2.0 and d.scale == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictiveT(location=0.0, scale=0.0, df=3.0)
        with pytest.raises(ValueError):
            PredictiveT(location=0.0, scale=1.0, df=-1.0)


class TestLooCdf:
    def test_interior_point_has_middling_cdf(self):
        data = np.array([0.1, -0.4, 0.3, 0.9, -0.6, 0.0])
        f = loo_predictive_cdf(data, 2)
        assert 0.2 < f < 0.8

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(63)
        data = rng.normal(size=12)
        for i in (0, 5, 11):
            rest = np.delete(data, i)
            n = rest.size
            xbar = rest.mean()
            ssd = float(np.sum((rest - xbar) ** 2))
            scale = math.sqrt(ssd * (n + 1.0) / (n * n))
            expected = float(st.t.cdf(data[i], n, loc=xbar, scale=scale))
            assert loo_predictive_cdf(data, i) == pytest.approx(expected, abs=1e-12)

    def test_extreme_point_in_far_tail(self):
        data = np.append(np.random.default_rng(64).normal(size=20), 50.0)
        assert loo_predictive_cdf(data, 20) > 0.999999

    def test_degenerate_rest_uses_side_convention(self):
        data = np.array([1.0, 1.0, 1.0, 5.0])
        assert loo_predictive_cdf(data, 3) == 1.0
        assert loo_predictive_cdf(np.array([1.0, 1.0, 1.0, -5.0]), 3) == 0.0
        assert loo_predictive_cdf(np.array([1.0, 1.0, 1.0, 1.0]), 3) == 0.5

    def test_index_validation(self):
        data = np.zeros(5) + np.arange(5)
        with pytest.raises(ValueError):
            loo_predictive_cdf(data, 5)
        with pytest.raises(ValueError):
            loo_predictive_cdf(data, -1)


class TestBonferroniBound:
    def test_exact_identity(self):
        for n in (1, 10, 100, 1000):
            a = bonferroni_bound(n, 0.95)
            assert abs((1.0 - a) ** n - 0.95) < 1e-12

    def test_reference_value(self):
        assert bonferroni_bound(100, 0.95) == pytest.approx(5.128014162622926e-4, rel=1e-12)

    def test_single_observation(self):
        assert bonferroni_bound(1, 0.95) == pytest.approx(0.05, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            bonferroni_bound(0, 0.95)
        with pytest.raises(ValueError):
            bonferroni_bound(10, 1.0)
        with pytest.raises(ValueError):
            bonferroni_bound(10, 0.0)


class TestDetectOutliers:
    def test_planted_extreme_point_flagged_alone(self):
        rng = np.random.default_rng(1234)
        data = np.append(rng.standard_normal(29), 8.0)
        report = detect_outliers(data, 0.95)
        assert report.flagged_indices() == (29,)
        assert report.n == 30
        assert report.bound_a == pytest.approx(bonferroni_bound(30, 0.95), rel=1e-15)

    def test_two_sided_split_flag_rule(self):
        # flags exactly when the loo cdf falls outside [a/2, 1 - a/2]
        rng = np.random.default_rng(65)
        data = np.append(rng.standard_normal(25), [9.0, -9.0])
        report = detect_outliers(data, 0.95)
        half = report.bound_a / 2.0
        for row in report.rows:
            assert row.flagged == (row.loo_cdf < half or row.loo_cdf > 1.0 - half)
        flagged = set(report.flagged_indices())
        assert {25, 26} <= flagged

    def test_null_data_rarely_flags(self):
        hits = 0
        for seed in range(100):
            data = np.random.default_rng(seed).standard_normal(100)
            if detect_outliers(data, 0.95).flagged_indices():
                hits += 1
        assert hits <= 5

    def test_report_rows_align_with_loo_cdf(self):
        data = np.random.default_rng(66).normal(2.0, 3.0, size=15)
        report = detect_outliers(data, 0.95)
        assert len(report.rows) == 15
        for i, row in enumerate(report.rows):
            assert row.index == i
            assert row.value == data[i]
            assert row.loo_cdf == pytest.approx(loo_predictive_cdf(data, i), rel=1e-15)
            assert not row.degenerate

    def test_degenerate_rows_marked(self):
        data = np.array([2.0, 2.0, 2.0, 7.0])
        report = detect_outliers(data, 0.95)
        assert report.rows[3].degenerate
        assert report.rows[3].flagged

    def test_alpha_validation(self):
        data = np.arange(5.0)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                detect_outliers(data, bad)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            detect_outliers(np.array([1.0, 2.0]), 0.95)

    def test_spread_past_float_range_is_a_numerical_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="sum of squared deviations"):
                detect_outliers([10.0, 1e308, 1.0], 0.95)
            # the check scales by the largest |x|, so large equal values still pass
            report = detect_outliers([6e307, 6e307, 6e307], 0.95)
        assert all(row.degenerate for row in report.rows)


def _refit_loo(data: np.ndarray, i: int) -> tuple[float, bool]:
    """The held-out CDF by refitting the rest from scratch, as the O(n^2) scan did."""
    x, stats = float(data[i]), SummaryStats.from_data(np.delete(data, i))
    if stats.sum_sq_dev == 0.0:
        return (0.5 if x == stats.mean else 1.0 if x > stats.mean else 0.0), True
    return predictive_from_posterior(jeffreys_normal_posterior(stats)).cdf(x), False


def _scan_samples() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(2505)
    return {
        "normal": rng.normal(0.0, 1.0, 400),
        "offset": rng.normal(3.0, 2.0, 50),
        "dominant outlier": np.append(rng.normal(0.0, 1.0, 60), 1e6),  # ssd_i << ssd
        "two outliers": np.append(rng.normal(0.0, 1.0, 40), [-5e4, 5e4]),
        "two-valued": np.array([2.0] * 9 + [7.0]),  # row 9 is degenerate
        "two-valued low": np.array([-3.0] + [0.25] * 6),  # row 0 is degenerate
        "two-valued even": np.array([1.0] * 4 + [2.0] * 3),
        "three points": np.array([0.0, 1.0, 5.0]),
    }


class TestLooDowndate:
    @pytest.mark.parametrize("name", list(_scan_samples()))
    def test_single_row_equals_the_scan_bit_for_bit(self, name):
        data = _scan_samples()[name]
        report = detect_outliers(data, 0.95)
        for i, row in enumerate(report.rows):
            assert loo_predictive_cdf(data, i) == row.loo_cdf, (name, i)

    @pytest.mark.parametrize("name", list(_scan_samples()))
    def test_within_1e13_of_refitting_with_the_same_flags(self, name):
        data = _scan_samples()[name]
        report = detect_outliers(data, 0.95)
        half = 0.5 * report.bound_a
        for i, row in enumerate(report.rows):
            want, degenerate = _refit_loo(data, i)
            assert abs(row.loo_cdf - want) <= 1e-13, (name, i, row.loo_cdf, want)
            assert row.degenerate == degenerate
            assert row.flagged == (want < half or want > 1.0 - half)
        if name.startswith("two-valued"):
            assert [r.degenerate for r in report.rows].count(True) == (name != "two-valued even")

    def test_refits_only_the_rows_that_carry_the_spread(self, monkeypatch):
        deletes = []
        real_delete = np.delete
        monkeypatch.setattr(np, "delete", lambda *a, **k: deletes.append(a[1]) or real_delete(*a, **k))
        samples = _scan_samples()
        detect_outliers(samples["normal"], 0.95)
        assert deletes == []
        detect_outliers(samples["dominant outlier"], 0.95)
        assert deletes == [60]
        deletes.clear()
        detect_outliers(samples["two outliers"], 0.95)
        assert deletes == [40, 41]  # each outlier holds just over half the spread
        deletes.clear()
        detect_outliers(samples["three points"], 0.95)
        assert len(deletes) <= 3

    def test_equal_values_near_the_float_maximum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = detect_outliers([1e308, 1e308, 1e308], 0.95)
            assert loo_predictive_cdf([1e308, 1e308, 1e308], 1) == 0.5
        assert [(r.loo_cdf, r.degenerate, r.flagged) for r in report.rows] == [(0.5, True, False)] * 3

    def test_equal_values_are_degenerate_whatever_their_mean_rounds_to(self):
        # the mean of four 0.1s is not 0.1 in floating point; the rest is still one value
        report = detect_outliers([0.1, 0.1, 0.1, 0.1], 0.95)
        assert [(r.loo_cdf, r.degenerate) for r in report.rows] == [(0.5, True)] * 4
