"""g-prior regression: marginal likelihoods, nullity Bayes factors, reports."""

import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.stats as st

from bayesdesk.errors import RankDeficiencyError
from bayesdesk.regression import (
    RegressionData,
    bf_coefficient_nullity,
    drop_column,
    log_marginal_gprior,
    regression_report,
)
from bayesdesk.testing import evidence_label


def _make_data(seed, n=20, p=3, intercept=True, beta_sd=1.5):
    rng = np.random.default_rng(seed)
    k = p - 1 if intercept else p
    X = rng.standard_normal((n, k))
    beta = rng.normal(0.0, beta_sd, size=k)
    y = X @ beta + rng.normal(0.0, 1.0, size=n)
    names = [f"x{i + 1}" for i in range(k)]
    if intercept:
        X = np.column_stack([np.ones(n), X])
        names = ["const"] + names
        y = y + 0.7
    return RegressionData(X=X, y=y, column_names=tuple(names))


def _oracle_log_marginal(data, g):
    # integrate N(y; 0, v(I + gP)) against dv/v via the substitution t=log v
    n = data.n
    X, y = data.X, data.y
    P = X @ np.linalg.solve(X.T @ X, X.T)
    C = np.eye(n) + g * P
    Q = float(y @ np.linalg.solve(C, y))
    t0 = math.log(Q / n)

    def log_f(t):
        return float(st.multivariate_normal.logpdf(y, np.zeros(n), math.exp(t) * C))

    ts = np.linspace(t0 - 30.0, t0 + 30.0, 121)
    vals = np.array([log_f(t) for t in ts])
    shift = float(vals.max())
    center = float(ts[int(vals.argmax())])

    def f(t):
        return math.exp(max(log_f(t) - shift, -745.0))

    # integrand is zero to machine precision outside t0 +/- 30
    left, _ = si.quad(f, t0 - 30.0, center, epsabs=1e-13, limit=200)
    right, _ = si.quad(f, center, t0 + 30.0, epsabs=1e-13, limit=200)
    return shift + math.log(left + right)


class TestRegressionData:
    def test_accepts_full_rank(self):
        data = _make_data(0)
        assert data.n == 20 and data.p == 3

    def test_rejects_rank_deficiency(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), 2.0 * np.arange(10.0)])
        with pytest.raises(RankDeficiencyError):
            RegressionData(X=X, y=np.ones(10), column_names=("a", "b", "c"))

    def test_rejects_more_columns_than_rows(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 4))
        with pytest.raises(ValueError):
            RegressionData(X=X, y=np.zeros(3), column_names=("a", "b", "c", "d"))

    def test_rejects_bad_names(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 2))
        with pytest.raises(ValueError):
            RegressionData(X=X, y=np.zeros(6), column_names=("a",))
        with pytest.raises(ValueError):
            RegressionData(X=X, y=np.zeros(6), column_names=("a", "a"))

    def test_rejects_nonfinite(self):
        X = np.ones((5, 1))
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        with pytest.raises(ValueError):
            RegressionData(X=X, y=y, column_names=("a",))

    def test_drop_column(self):
        data = _make_data(3)
        smaller = drop_column(data, 1)
        assert smaller.p == 2
        assert smaller.column_names == ("const", "x2")
        assert np.array_equal(smaller.X, data.X[:, [0, 2]])

    def test_drop_last_column_refused(self):
        X = np.ones((5, 1))
        data = RegressionData(X=X, y=np.arange(5.0), column_names=("const",))
        with pytest.raises(ValueError):
            drop_column(data, 0)


class TestLogMarginal:
    def test_matches_integration_oracle(self):
        for seed in range(10):
            data = _make_data(seed)
            g = float(data.n)
            closed = log_marginal_gprior(data, g)
            oracle = _oracle_log_marginal(data, g)
            assert abs(closed - oracle) / abs(oracle) < 1e-6

    def test_other_g_values(self):
        data = _make_data(11)
        for g in (1.0, 5.0, 100.0):
            closed = log_marginal_gprior(data, g)
            oracle = _oracle_log_marginal(data, g)
            assert closed == pytest.approx(oracle, rel=1e-8)

    def test_rejects_bad_g(self):
        data = _make_data(12)
        for bad in (0.0, -2.0, math.inf):
            with pytest.raises(ValueError):
                log_marginal_gprior(data, bad)


class TestCoefficientBayesFactors:
    def test_reciprocal_identity(self):
        # BF10 * BF01 = 1 by construction of the marginal ratio; the weak-effect
        # 400x12 design checks the drop-one identity against explicit refits
        designs = [_make_data(seed) for seed in range(10)]
        designs.append(_make_data(40, n=400, p=12, beta_sd=0.08))
        for data in designs:
            for j in range(data.p):
                bf10, log10_bf10 = bf_coefficient_nullity(data, j)
                lm_full = log_marginal_gprior(data, float(data.n))
                lm_drop = log_marginal_gprior(drop_column(data, j), float(data.n))
                bf01 = math.exp(lm_drop - lm_full)
                assert abs(bf10 * bf01 - 1.0) < 1e-12
                assert log10_bf10 == pytest.approx(math.log10(bf10), rel=1e-12)

    def test_response_scale_invariance(self):
        # rescaling y leaves every nullity Bayes factor unchanged
        data = _make_data(20)
        for c in (0.1, 3.7, 250.0):
            scaled = RegressionData(X=data.X, y=c * data.y,
                                    column_names=data.column_names)
            for j in range(data.p):
                bf_base, _ = bf_coefficient_nullity(data, j)
                bf_scaled, _ = bf_coefficient_nullity(scaled, j)
                assert abs(bf_scaled - bf_base) / bf_base < 1e-9

    def test_predictor_scale_invariance(self):
        # rescaling one predictor column leaves Bayes factors unchanged
        data = _make_data(21)
        X2 = data.X.copy()
        X2[:, 1] *= 40.0
        scaled = RegressionData(X=X2, y=data.y, column_names=data.column_names)
        for j in range(data.p):
            bf_base, _ = bf_coefficient_nullity(data, j)
            bf_scaled, _ = bf_coefficient_nullity(scaled, j)
            assert abs(bf_scaled - bf_base) / bf_base < 1e-9

    def test_single_column_refused(self):
        data = RegressionData(X=np.ones((6, 1)), y=np.arange(6.0),
                              column_names=("const",))
        with pytest.raises(ValueError):
            bf_coefficient_nullity(data, 0)

    def test_index_validation(self):
        data = _make_data(22)
        with pytest.raises(ValueError):
            bf_coefficient_nullity(data, 3)
        with pytest.raises(ValueError):
            bf_coefficient_nullity(data, -1)


class TestRegressionReport:
    def test_shrunk_least_squares_estimates(self):
        data = _make_data(30)
        summary = regression_report(data)
        beta_hat, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
        shrink = summary.g / (summary.g + 1.0)
        assert summary.g == float(data.n)
        assert np.allclose(summary.beta_hat, beta_hat, rtol=1e-10)
        assert np.allclose(summary.beta_post_mean, shrink * beta_hat, rtol=1e-10)

    def test_rows_consistent_with_bf_function(self):
        data = _make_data(31)
        summary = regression_report(data)
        for j, row in enumerate(summary.rows):
            bf10, log10_bf10 = bf_coefficient_nullity(data, j)
            assert row.name == data.column_names[j]
            assert row.bf10 == pytest.approx(bf10, rel=1e-12)
            assert row.log10_bf10 == pytest.approx(log10_bf10, rel=1e-12)
            assert row.label == evidence_label(log10_bf10)

    def test_strong_signal_gets_stars_null_does_not(self):
        rng = np.random.default_rng(32)
        n = 40
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        y = 3.0 * x1 + 0.05 * rng.standard_normal(n)
        data = RegressionData(X=np.column_stack([np.ones(n), x1, x2]), y=y,
                              column_names=("const", "signal", "noise"))
        rows = {r.name: r for r in regression_report(data).rows}
        assert rows["signal"].label == "****"
        assert rows["noise"].label == ""

    def test_decisive_evidence_gives_infinite_bf(self):
        rng = np.random.default_rng(34)
        n = 400
        x1 = rng.standard_normal(n)
        y = 3.0 * x1 + 0.05 * rng.standard_normal(n)
        data = RegressionData(X=np.column_stack([np.ones(n), x1]), y=y,
                              column_names=("const", "signal"))
        row = regression_report(data).rows[1]
        assert row.bf10 == math.inf
        assert math.isfinite(row.log10_bf10) and row.log10_bf10 > 308
        assert row.label == "****"
        assert bf_coefficient_nullity(data, 1) == (row.bf10, row.log10_bf10)

    def test_intercept_only_design_has_no_bf(self):
        data = RegressionData(X=np.ones((8, 1)), y=np.arange(8.0),
                              column_names=("const",))
        summary = regression_report(data)
        assert len(summary.rows) == 1
        row = summary.rows[0]
        assert row.bf10 is None and row.log10_bf10 is None and row.label == ""

    def test_custom_g(self):
        data = _make_data(33)
        summary = regression_report(data, g=5.0)
        assert summary.g == 5.0
        bf10, _ = bf_coefficient_nullity(data, 0, g=5.0)
        assert summary.rows[0].bf10 == pytest.approx(bf10, rel=1e-12)
