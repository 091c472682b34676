"""Distribution kinds: densities, cdfs, quantiles, sampling, moments."""

import math
import warnings

import numpy as np
import pytest
import scipy.optimize as so
import scipy.stats as st

from bayesdesk.distributions import (
    Beta,
    Binomial,
    Cauchy,
    Gamma,
    InverseGamma,
    Normal,
    Poisson,
    StudentT,
    cdf,
    density,
    is_discrete,
    log_density,
    quantile,
    sample,
    support,
)
from bayesdesk.distributions import _brentq
from bayesdesk.distributions import mean as dist_mean
from bayesdesk.distributions import mode as dist_mode
from bayesdesk.distributions import variance as dist_variance
from bayesdesk.errors import NumericalError
from bayesdesk.special import log_beta, log_gamma


def _scipy_of(d):
    if isinstance(d, Normal):
        return st.norm(d.mean, math.sqrt(d.variance))
    if isinstance(d, Gamma):
        return st.gamma(d.shape, scale=1.0 / d.rate)
    if isinstance(d, InverseGamma):
        return st.invgamma(d.shape, scale=d.scale)
    if isinstance(d, Beta):
        return st.beta(d.a, d.b)
    if isinstance(d, Binomial):
        return st.binom(d.n, d.p)
    if isinstance(d, Poisson):
        return st.poisson(d.rate)
    if isinstance(d, StudentT):
        return st.t(d.df, loc=d.location, scale=d.scale)
    if isinstance(d, Cauchy):
        return st.cauchy(d.location, d.scale)
    raise TypeError(d)


CONTINUOUS = [
    Normal(0.0, 1.0),
    Normal(-2.5, 7.3),
    Gamma(0.7, 1.3),
    Gamma(136.0, 161.0),
    InverseGamma(5.0, 0.5),
    InverseGamma(2.2, 3.4),
    Beta(39.0, 21.0),
    Beta(0.5, 0.5),
    StudentT(10.0),
    StudentT(3.0, location=1.5, scale=2.0),
    Cauchy(0.0, 1.0),
    Cauchy(-1.0, 0.4),
]
DISCRETE = [Binomial(58, 0.65), Poisson(4.2), Binomial(5, 0.01)]


class TestLogDensity:
    def test_continuous_matches_scipy(self):
        rng = np.random.default_rng(21)
        for d in CONTINUOUS:
            ref = _scipy_of(d)
            for x in ref.ppf(rng.uniform(0.01, 0.99, 40)):
                assert log_density(d, float(x)) == pytest.approx(
                    float(ref.logpdf(x)), rel=1e-10, abs=1e-12)

    def test_discrete_matches_scipy(self):
        for d in DISCRETE:
            ref = _scipy_of(d)
            for k in range(0, 15):
                expected = float(ref.logpmf(k))
                got = log_density(d, k)
                if math.isinf(expected):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expected, rel=1e-10)

    def test_outside_support_is_minus_inf(self):
        assert log_density(Gamma(2.0, 1.0), -1.0) == -math.inf
        assert log_density(Beta(2.0, 2.0), 1.5) == -math.inf
        assert log_density(Binomial(10, 0.5), 0.5) == -math.inf
        assert log_density(Poisson(2.0), -1) == -math.inf

    def test_density_is_exp_of_log(self):
        d = Normal(1.0, 4.0)
        assert density(d, 0.3) == pytest.approx(math.exp(log_density(d, 0.3)), rel=1e-15)

    def test_gamma_boundary_limits(self):
        # x=0 limit depends on the shape
        assert log_density(Gamma(2.0, 1.0), 0.0) == -math.inf
        assert log_density(Gamma(1.0, 3.0), 0.0) == pytest.approx(math.log(3.0))
        assert log_density(Gamma(0.5, 1.0), 0.0) == math.inf

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            log_density(Normal(0.0, 1.0), float("nan"))


class TestCdf:
    def test_matches_scipy(self):
        rng = np.random.default_rng(22)
        cases = [(d, _scipy_of(d).ppf(rng.uniform(0.005, 0.995, 40))) for d in CONTINUOUS]
        # the centre of a high-df Student-t, where df/(df+t^2) is within 1e-8 of one
        cases.append((StudentT(1e4), np.linspace(-0.01, 0.01, 21)))
        for d, xs in cases:
            ref = _scipy_of(d)
            for x in xs:
                assert cdf(d, float(x)) == pytest.approx(float(ref.cdf(x)), abs=5e-12)

    def test_discrete_steps(self):
        for d in DISCRETE:
            ref = _scipy_of(d)
            for k in range(0, 12):
                assert cdf(d, k) == pytest.approx(float(ref.cdf(k)), abs=1e-11)
                # between integers the cdf is flat
                assert cdf(d, k + 0.5) == pytest.approx(cdf(d, k), abs=1e-14)

    def test_tail_values(self):
        assert cdf(Normal(0.0, 1.0), -50.0) == 0.0
        assert cdf(Beta(2.0, 2.0), -0.1) == 0.0
        assert cdf(Beta(2.0, 2.0), 1.1) == 1.0


class TestArrayPaths:
    """log_density and the Student t cdf on an array: the scalar bits, element for element."""

    ARRAY_KINDS = CONTINUOUS + [
        Beta(0.5, 2.0), Beta(1.0, 2.5), Beta(2.0, 1.0), Beta(1.0, 1.0), Beta(3.0, 0.4),
        Gamma(1.0, 2.0), Gamma(0.3, 1.0), StudentT(1e4), StudentT(0.7, -3.0, 0.1),
    ]

    @staticmethod
    def _points(d, rng):
        lo, hi = support(d)
        if isinstance(d, Beta):
            xs = rng.uniform(0.0, 1.0, 2000)
        elif lo == 0.0:
            xs = rng.gamma(2.0, 1.0, 2000) * (dist_mean(d) if isinstance(d, Gamma) else 1.0)
        else:
            xs = rng.normal(0.0, 30.0, 2000)
        # the support ends and points past them take the scalar rule
        return np.concatenate((xs, [lo, hi, -0.5, 0.0, 1.0, 1.5, 5e-324, 1e300, -1e300]))

    @pytest.mark.parametrize("d", ARRAY_KINDS, ids=repr)
    def test_log_density_equals_scalar_calls(self, d):
        xs = self._points(d, np.random.default_rng(2501))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a float overflow is silent in both paths
            got = log_density(d, xs)
        assert np.array_equal(got, [log_density(d, x) for x in xs.tolist()], equal_nan=True)

    def test_edges_of_the_grids(self):
        grid = np.linspace(0.0, 1.0, 11)
        for a, b in ((0.5, 0.5), (1.0, 2.0), (2.0, 1.0), (3.0, 4.0)):
            got = log_density(Beta(a, b), grid)
            assert got[0] == (math.inf if a < 1.0 else -log_beta(a, b) if a == 1.0 else -math.inf)
            assert got[-1] == (math.inf if b < 1.0 else -log_beta(a, b) if b == 1.0 else -math.inf)
        for shape, at_zero in ((0.5, math.inf), (1.0, math.log(2.0)), (3.0, -math.inf)):
            assert log_density(Gamma(shape, 2.0), np.array([0.0, 1.0]))[0] == at_zero

    def test_shape_kept_and_discrete_kinds_refused(self):
        xs = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        assert log_density(Beta(2.0, 3.0), xs).shape == (2, 3)
        for d in DISCRETE:
            with pytest.raises(TypeError):
                log_density(d, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            log_density(Normal(0.0, 1.0), np.array([0.0, math.nan]))

    @pytest.mark.parametrize("d", [StudentT(10.0), StudentT(3.0, 1.5, 2.0), StudentT(9999.0),
                                   StudentT(0.5), StudentT(2.0, -1e3, 1e-2)], ids=repr)
    def test_student_t_cdf_equals_scalar_calls(self, d):
        rng = np.random.default_rng(2502)
        root_df = math.sqrt(d.df)
        t = np.concatenate((rng.normal(0.0, 1.0, 300), rng.standard_cauchy(300) * 20.0,
                            rng.uniform(-3.0, 3.0, 600) * root_df,
                            [0.0, -0.0, root_df, -root_df, 1e300, -math.inf, math.inf]))
        xs = d.location + d.scale * t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cdf(d, xs)
        assert (np.abs(t) < root_df).sum() > 300 and (np.abs(t) >= root_df).sum() > 300
        assert np.array_equal(got, [cdf(d, x) for x in xs.tolist()])

    def test_cdf_array_only_for_student_t(self):
        with pytest.raises(TypeError):
            cdf(Normal(0.0, 1.0), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            cdf(StudentT(3.0), np.array([0.0, math.nan]))


class TestQuantile:
    def test_round_trip_continuous(self):
        rng = np.random.default_rng(23)
        for d in CONTINUOUS:
            for p in rng.uniform(0.001, 0.999, 25):
                q = quantile(d, float(p))
                assert cdf(d, q) == pytest.approx(float(p), abs=1e-9)

    def test_discrete_minimality(self):
        # smallest k with cdf(k) >= p
        rng = np.random.default_rng(24)
        for d in DISCRETE:
            for p in rng.uniform(0.01, 0.99, 25):
                k = quantile(d, float(p))
                assert cdf(d, k) >= p
                if k > 0:
                    assert cdf(d, k - 1) < p

    def test_cauchy_closed_form(self):
        d = Cauchy(2.0, 3.0)
        assert quantile(d, 0.5) == pytest.approx(2.0, abs=1e-12)
        assert quantile(d, 0.75) == pytest.approx(2.0 + 3.0, rel=1e-12)

    def test_rejects_boundary_probabilities(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                quantile(Normal(0.0, 1.0), p)


class TestBrentq:
    @staticmethod
    def _cdf_root_problems():
        # seeded CDF inversions on brackets of random width around the root
        rng = np.random.default_rng(41)
        for i in range(300):
            a, b = (float(v) for v in 10.0 ** rng.uniform(-1.0, 2.5, 2))
            loc = float(rng.normal(0.0, 50.0))
            d = (Beta(a, b), Gamma(a, b), Normal(loc, a), StudentT(a, loc, b),
                 InverseGamma(a, b))[i % 5]
            for p in (1e-6, 1e-3, 0.05, 0.5, 0.95, 0.999, 1.0 - 1e-6):
                q = float(_scipy_of(d).ppf(p))
                lo, hi = support(d)
                left = max(q - abs(q) * rng.uniform(0.01, 3.0) - rng.uniform(0.0, 1.0), lo)
                right = min(q + abs(q) * rng.uniform(0.01, 3.0) + rng.uniform(0.0, 1.0), hi)
                f = lambda t, d=d, p=p: cdf(d, t) - p  # noqa: E731
                if f(left) < 0.0 < f(right):
                    yield f, left, right

    def test_matches_scipy_brentq_exactly(self):
        problems = list(self._cdf_root_problems())
        assert len(problems) > 1500
        for f, a, b in problems:
            assert _brentq(f, a, b) == so.brentq(f, a, b, xtol=1e-12, maxiter=200)

    @pytest.mark.parametrize("d, p", [
        (InverseGamma(0.035, 8.0), 1.0 - 1e-6),
        (StudentT(0.036, -108.0, 192.6), 1e-6),
        (StudentT(0.036, -108.0, 192.6), 1.0 - 1e-6),
        (Gamma(136.0, 161.0), 0.025),
        (Beta(0.5, 0.5), 0.975),
    ])
    def test_matches_scipy_brentq_on_quantile_brackets(self, monkeypatch, d, p):
        # the heavy tails make the extrapolation step divide by zero, which C
        # turns into inf or NaN and rejects; the port must reject it too
        seen = []

        def recording(f, a, b):
            seen.append((f, a, b))
            return _brentq(f, a, b)

        monkeypatch.setattr("bayesdesk.distributions._brentq", recording)
        root = quantile(d, p)
        [(f, a, b)] = seen
        assert root == so.brentq(f, a, b, xtol=1e-12, maxiter=200)

    def test_failures_are_numerical_errors(self, monkeypatch):
        with pytest.raises(NumericalError, match="no sign change"):
            _brentq(lambda t: t * t + 1.0, -1.0, 1.0)
        with pytest.raises(NumericalError, match="NaN"):
            _brentq(lambda t: math.nan if t > 0.25 else t, -1.0, 1.0)
        with pytest.raises(NumericalError, match="did not converge"):
            monkeypatch.setattr("bayesdesk.distributions._MAXITER", 3)
            _brentq(lambda t: t ** 3 - 0.3, 0.0, 1.0)

    @pytest.mark.parametrize("call", [
        lambda: quantile(Beta(1e9, 1e9), 0.5),
        lambda: cdf(Beta(1e9, 1e9), 0.5),
        lambda: quantile(Gamma(1e9, 1.0), 0.5),
    ], ids=["beta-quantile", "beta-cdf", "gamma-quantile"])
    def test_kernel_failure_is_numerical_error(self, call):
        with pytest.raises(NumericalError, match="failed to converge"):
            call()


class TestSample:
    def test_seeded_reproducibility(self):
        d = Gamma(3.0, 2.0)
        a = sample(d, 100, seed=42)
        b = sample(d, 100, seed=42)
        assert np.array_equal(a, b)

    def test_moments_close_to_theory(self):
        rng_checks = [
            Normal(1.0, 4.0),
            Gamma(5.0, 2.0),
            Beta(3.0, 7.0),
            InverseGamma(6.0, 4.0),
            StudentT(12.0, location=2.0, scale=1.5),
            Binomial(40, 0.3),
            Poisson(6.0),
        ]
        for d in rng_checks:
            draws = sample(d, 200_000, seed=7)
            m = dist_mean(d)
            v = dist_variance(d)
            assert draws.mean() == pytest.approx(m, abs=6.0 * math.sqrt(v / draws.size))
            assert draws.var() == pytest.approx(v, rel=0.05)

    def test_respects_support(self):
        for d in (Gamma(0.5, 1.0), Beta(0.5, 0.5), InverseGamma(2.0, 1.0)):
            draws = sample(d, 5000, seed=3)
            lo, hi = support(d)
            assert np.all(draws >= lo) and np.all(draws <= hi)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(Normal(0.0, 1.0), -1, seed=0)
        assert sample(Normal(0.0, 1.0), 0, seed=0).size == 0


class TestMoments:
    def test_closed_forms(self):
        assert dist_mean(Beta(39.0, 21.0)) == pytest.approx(0.65)
        assert dist_mean(Gamma(136.0, 161.0)) == pytest.approx(136.0 / 161.0, rel=1e-15)
        assert dist_mean(InverseGamma(5.0, 0.5)) == pytest.approx(0.125, rel=1e-15)
        assert dist_variance(Binomial(10, 0.25)) == pytest.approx(10 * 0.25 * 0.75, rel=1e-15)

    def test_undefined_moments_raise(self):
        with pytest.raises(ValueError):
            dist_mean(Cauchy(0.0, 1.0))
        with pytest.raises(ValueError):
            dist_mean(InverseGamma(1.0, 2.0))
        with pytest.raises(ValueError):
            dist_variance(StudentT(2.0))
        with pytest.raises(ValueError):
            dist_variance(InverseGamma(2.0, 1.0))

    def test_student_t_moments(self):
        d = StudentT(5.0, location=1.0, scale=2.0)
        assert dist_mean(d) == 1.0
        assert dist_variance(d) == pytest.approx(4.0 * 5.0 / 3.0, rel=1e-15)


class TestMode:
    def test_interior_modes(self):
        val, at_boundary = dist_mode(Beta(39.0, 21.0))
        assert val == pytest.approx(38.0 / 58.0, rel=1e-15)
        assert not at_boundary
        val, at_boundary = dist_mode(Gamma(136.0, 161.0))
        assert val == pytest.approx(135.0 / 161.0, rel=1e-15)
        assert not at_boundary

    def test_boundary_modes(self):
        val, at_boundary = dist_mode(Gamma(0.7, 1.0))
        assert val == 0.0 and at_boundary
        val, at_boundary = dist_mode(Beta(0.5, 2.0))
        assert val == 0.0 and at_boundary

    def test_flat_beta_convention(self):
        val, at_boundary = dist_mode(Beta(1.0, 1.0))
        assert val == 0.5 and not at_boundary


class TestValidationAndMeta:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError):
            Gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            Beta(0.0, 1.0)
        with pytest.raises(ValueError):
            Binomial(-5, 0.5)
        with pytest.raises(ValueError):
            Binomial(5, 1.5)
        with pytest.raises(ValueError):
            StudentT(0.0)

    def test_discreteness_flags(self):
        assert is_discrete(Binomial(3, 0.5))
        assert is_discrete(Poisson(1.0))
        assert not is_discrete(Normal(0.0, 1.0))

    def test_support_pairs(self):
        assert support(Normal(0.0, 1.0)) == (-math.inf, math.inf)
        assert support(Beta(2.0, 2.0)) == (0.0, 1.0)
        assert support(Gamma(2.0, 2.0)) == (0.0, math.inf)
        assert support(Binomial(7, 0.5)) == (0, 7)


class TestCachedLogNormaliser:
    """log_density reads each family's parameter-only term from a lazy cache.

    The inline formulas below are the ones log_density evaluated before the
    term was cached; the cached route must give the same bits.
    """

    @staticmethod
    def _inline(d, x):
        if isinstance(d, Gamma):
            a, b = d.shape, d.rate
            return a * math.log(b) - log_gamma(a) + (a - 1.0) * math.log(x) - b * x
        if isinstance(d, InverseGamma):
            a, s = d.shape, d.scale
            return a * math.log(s) - log_gamma(a) - (a + 1.0) * math.log(x) - s / x
        if isinstance(d, Beta):
            a, b = d.a, d.b
            return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta(a, b)
        t = (x - d.location) / d.scale
        half = 0.5 * (d.df + 1.0)
        return (log_gamma(half) - log_gamma(0.5 * d.df)
                - 0.5 * math.log(d.df * math.pi) - math.log(d.scale)
                - half * math.log1p(t * t / d.df))

    @pytest.mark.parametrize("family", ["Gamma", "InverseGamma", "Beta", "StudentT"])
    def test_bits_match_the_inline_formula(self, family):
        rng = np.random.default_rng(1909)
        for _ in range(200):
            p, q = np.exp(rng.uniform(-3.0, 5.0, 2))
            if family == "Gamma":
                d, xs = Gamma(p, q), rng.gamma(2.0, 1.0, 20)
            elif family == "InverseGamma":
                d, xs = InverseGamma(p, q), rng.gamma(2.0, 1.0, 20)
            elif family == "Beta":
                d, xs = Beta(p, q), rng.uniform(0.0, 1.0, 20)
            else:
                d, xs = StudentT(p, float(rng.normal(0.0, 10.0)), q), rng.normal(0.0, 30.0, 20)
            for x in xs.tolist():
                assert log_density(d, x) == self._inline(d, x), (d, x)

    def test_beta_edges_use_the_same_normaliser(self):
        for a, b in ((1.0, 2.5), (1.0, 1.0), (0.3, 1.0)):
            d = Beta(a, b)
            want = -log_beta(a, b)
            if a == 1.0:
                assert log_density(d, 0.0) == want
            if b == 1.0:
                assert log_density(d, 1.0) == want

    def test_computed_once_and_only_when_needed(self, monkeypatch):
        import bayesdesk.distributions as dists
        calls = []
        monkeypatch.setattr(dists, "log_gamma", lambda v: calls.append(v) or math.lgamma(v))
        d = Gamma(2.5, 1.5)
        assert log_density(d, -1.0) == -math.inf
        assert calls == []  # outside the support the term is never needed
        for x in (0.5, 1.0, 2.0):
            log_density(d, x)
        assert calls == [2.5]
