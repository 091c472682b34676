"""Conjugate posterior updates and the joint normal-variance model."""

import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.stats as st

from bayesdesk.conjugate import (
    BetaBinomialModel,
    GammaPoissonModel,
    NormalInvGammaModel,
    NormalKnownVarModel,
    SummaryStats,
    jeffreys_normal_posterior,
    map_estimate,
    nig_log_density,
    posterior_mean,
    sample_joint_posterior,
    update_beta_binomial,
    update_gamma_poisson,
    update_normal_inverse_gamma,
    update_normal_known_var,
)
from bayesdesk.distributions import Beta, Gamma, Normal
from bayesdesk.errors import ImproperPosteriorError, NumericalError
from bayesdesk.hpd import GridDensity
from bayesdesk.special import log_gamma


class TestSummaryStats:
    def test_from_data(self):
        data = [1.0, 2.0, 3.0, 4.0]
        s = SummaryStats.from_data(data)
        assert s.n == 4
        assert s.mean == pytest.approx(2.5, rel=1e-15)
        assert s.sum_sq_dev == pytest.approx(5.0, rel=1e-12)

    def test_merge_equals_pooled(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = rng.normal(size=rng.integers(1, 20))
            b = rng.normal(size=rng.integers(1, 20))
            merged = SummaryStats.from_data(a).merge(SummaryStats.from_data(b))
            pooled = SummaryStats.from_data(np.concatenate([a, b]))
            assert merged.n == pooled.n
            assert merged.mean == pytest.approx(pooled.mean, abs=1e-12)
            assert merged.sum_sq_dev == pytest.approx(pooled.sum_sq_dev, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            SummaryStats(n=0, mean=0.0, sum_sq_dev=0.0)
        with pytest.raises(ValueError):
            SummaryStats(n=3, mean=float("inf"), sum_sq_dev=0.0)
        with pytest.raises(ValueError):
            SummaryStats(n=3, mean=0.0, sum_sq_dev=-1.0)
        with pytest.raises(ValueError):
            SummaryStats.from_data([])


class TestBetaBinomial:
    def test_survey_example(self):
        post = update_beta_binomial(BetaBinomialModel(), 38, 58)
        assert post == Beta(39.0, 21.0)
        assert posterior_mean(post) == 0.65

    def test_informative_prior(self):
        post = update_beta_binomial(BetaBinomialModel(2.0, 5.0), 3, 10)
        assert post == Beta(5.0, 12.0)

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n1, n2 = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            s1 = int(rng.integers(0, n1 + 1))
            s2 = int(rng.integers(0, n2 + 1))
            m = BetaBinomialModel(1.7, 0.9)
            joint = update_beta_binomial(m, s1 + s2, n1 + n2)
            step1 = update_beta_binomial(m, s1, n1)
            step2 = update_beta_binomial(
                BetaBinomialModel(step1.a, step1.b), s2, n2)
            assert step2.a == pytest.approx(joint.a, abs=1e-12)
            assert step2.b == pytest.approx(joint.b, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            update_beta_binomial(BetaBinomialModel(), 5, 3)
        with pytest.raises(ValueError):
            update_beta_binomial(BetaBinomialModel(), -1, 3)


class TestGammaPoisson:
    def test_cancer_groups(self):
        m = GammaPoissonModel(1.0, 2.0)
        non_malignant = update_gamma_poisson(m, [77, 51, 7], [87.0, 62.0, 10.0])
        malignant = update_gamma_poisson(m, [51, 38, 6], [64.0, 58.0, 9.0])
        assert non_malignant == Gamma(136.0, 161.0)
        assert malignant == Gamma(96.0, 133.0)

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            counts = rng.integers(0, 40, size=6)
            expo = rng.uniform(0.5, 20.0, size=6)
            m = GammaPoissonModel(0.8, 1.6)
            joint = update_gamma_poisson(m, counts, expo)
            half = update_gamma_poisson(m, counts[:3], expo[:3])
            rest = update_gamma_poisson(
                GammaPoissonModel(half.shape, half.rate), counts[3:], expo[3:])
            assert rest.shape == pytest.approx(joint.shape, abs=1e-12)
            assert rest.rate == pytest.approx(joint.rate, abs=1e-12)

    def test_validation(self):
        m = GammaPoissonModel(1.0, 1.0)
        with pytest.raises(ValueError):
            update_gamma_poisson(m, [1, 2], [1.0])
        with pytest.raises(ValueError):
            update_gamma_poisson(m, [-1], [1.0])
        with pytest.raises(ValueError):
            update_gamma_poisson(m, [1], [0.0])
        with pytest.raises(ValueError):
            update_gamma_poisson(m, [], [])


class TestNormalKnownVar:
    def test_precision_weighted_update(self):
        stats = SummaryStats(n=25, mean=3.0, sum_sq_dev=10.0)
        post = update_normal_known_var(
            NormalKnownVarModel(xi=1.0, lam=4.0), stats, known_variance=2.0)
        precision = 25 / 2.0 + 4.0
        assert isinstance(post, Normal)
        assert post.variance == pytest.approx(1.0 / precision, rel=1e-14)
        assert post.mean == pytest.approx((25 * 3.0 / 2.0 + 4.0 * 1.0) / precision, rel=1e-14)

    def test_flat_prior_recovers_sample_mean(self):
        stats = SummaryStats(n=9, mean=-1.2, sum_sq_dev=4.0)
        post = update_normal_known_var(NormalKnownVarModel(), stats, known_variance=3.0)
        assert post.mean == pytest.approx(-1.2, rel=1e-14)
        assert post.variance == pytest.approx(3.0 / 9, rel=1e-14)

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            a = rng.normal(2.0, 1.0, size=int(rng.integers(2, 15)))
            b = rng.normal(2.0, 1.0, size=int(rng.integers(2, 15)))
            m = NormalKnownVarModel(xi=0.3, lam=1.5)
            joint = update_normal_known_var(
                m, SummaryStats.from_data(np.concatenate([a, b])), 1.3)
            s1 = update_normal_known_var(m, SummaryStats.from_data(a), 1.3)
            s2 = update_normal_known_var(
                NormalKnownVarModel(xi=s1.mean, lam=1.0 / s1.variance),
                SummaryStats.from_data(b), 1.3)
            assert s2.mean == pytest.approx(joint.mean, abs=1e-12)
            assert s2.variance == pytest.approx(joint.variance, abs=1e-12)

    def test_improper_rejected(self):
        stats = SummaryStats(n=1, mean=0.0, sum_sq_dev=0.0)
        with pytest.raises(ValueError):
            update_normal_known_var(NormalKnownVarModel(), stats, known_variance=-1.0)


class TestNormalInverseGamma:
    def test_noninformative_worked_example(self):
        stats = SummaryStats(n=10, mean=0.0, sum_sq_dev=1.0)
        post = jeffreys_normal_posterior(stats)
        assert post.xi == 0.0
        assert post.lam_mu == 10.0
        assert post.lam_sigma == 5.0
        assert post.alpha == 1.0
        # implied variance marginal is inverse-gamma(5, 1/2) with mean 1/8
        assert (0.5 * post.alpha) / (post.lam_sigma - 1.0) == pytest.approx(0.125)

    def test_informative_update_formulas(self):
        prior = NormalInvGammaModel(xi=1.0, lam_mu=2.0, lam_sigma=3.0, alpha=4.0)
        stats = SummaryStats(n=5, mean=2.0, sum_sq_dev=6.0)
        post = update_normal_inverse_gamma(prior, stats)
        assert post.xi == pytest.approx((2.0 * 1.0 + 5 * 2.0) / 7.0, rel=1e-14)
        assert post.lam_mu == pytest.approx(7.0, rel=1e-15)
        assert post.lam_sigma == pytest.approx(3.0 + 2.5, rel=1e-15)
        shrink = 5 * 2.0 / 7.0
        assert post.alpha == pytest.approx(4.0 + 6.0 + shrink * 1.0, rel=1e-14)

    def test_jeffreys_needs_two_points(self):
        with pytest.raises(ImproperPosteriorError):
            jeffreys_normal_posterior(SummaryStats(n=1, mean=0.0, sum_sq_dev=0.0))

    def test_zero_spread_posterior_is_improper(self):
        stats = SummaryStats(n=3, mean=1.0, sum_sq_dev=0.0)
        with pytest.raises(ImproperPosteriorError):
            update_normal_inverse_gamma(NormalInvGammaModel(), stats)

    def test_joint_density_matches_factored_form(self):
        m = NormalInvGammaModel(xi=0.5, lam_mu=3.0, lam_sigma=4.0, alpha=2.0)
        rng = np.random.default_rng(35)
        for _ in range(100):
            mu = float(rng.normal(0.5, 1.0))
            s2 = float(rng.uniform(0.05, 3.0))
            expected = (st.norm.logpdf(mu, 0.5, math.sqrt(s2 / 3.0))
                        + st.invgamma.logpdf(s2, 4.0, scale=1.0))
            assert nig_log_density(m, mu, s2) == pytest.approx(expected, rel=1e-12)

    def test_joint_density_integrates_to_one(self):
        m = NormalInvGammaModel(xi=0.0, lam_mu=10.0, lam_sigma=5.0, alpha=1.0)

        def inner(s2):
            val, _ = si.quad(lambda mu: math.exp(nig_log_density(m, mu, s2)),
                             -3.0, 3.0, epsabs=1e-12)
            return val

        total, _ = si.quad(inner, 1e-4, 3.0, limit=100)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_variance_has_zero_density(self):
        m = NormalInvGammaModel(xi=0.0, lam_mu=1.0, lam_sigma=1.0, alpha=1.0)
        assert nig_log_density(m, 0.0, 0.0) == -math.inf
        assert nig_log_density(m, 0.0, -1.0) == -math.inf

    def test_improper_model_refused_by_density_and_sampler(self):
        improper = NormalInvGammaModel()
        with pytest.raises(ImproperPosteriorError):
            nig_log_density(improper, 0.0, 1.0)
        with pytest.raises(ImproperPosteriorError):
            sample_joint_posterior(improper, 10, seed=0)


class TestJointSampler:
    def test_shape_and_reproducibility(self):
        post = NormalInvGammaModel(xi=0.0, lam_mu=10.0, lam_sigma=5.0, alpha=1.0)
        draws = sample_joint_posterior(post, 500, seed=9)
        again = sample_joint_posterior(post, 500, seed=9)
        assert draws.shape == (500, 2)
        assert np.array_equal(draws, again)
        assert np.all(draws[:, 1] > 0)

    def test_marginal_moments(self):
        post = NormalInvGammaModel(xi=2.0, lam_mu=8.0, lam_sigma=6.0, alpha=4.0)
        draws = sample_joint_posterior(post, 400_000, seed=10)
        # sigma^2 ~ inverse-gamma(6, 2): mean 0.4
        assert draws[:, 1].mean() == pytest.approx(2.0 / 5.0, rel=0.01)
        assert draws[:, 0].mean() == pytest.approx(2.0, abs=0.01)


class TestMapEstimate:
    def test_distribution_modes(self):
        est = map_estimate(update_beta_binomial(BetaBinomialModel(), 38, 58))
        assert est.value == pytest.approx(38.0 / 58.0, rel=1e-14)
        assert not est.at_boundary

    def test_boundary_flag(self):
        est = map_estimate(Gamma(0.5, 1.0))
        assert est.value == 0.0
        assert est.at_boundary

    def test_grid_refinement_beats_grid_spacing(self):
        # parabolic refinement should land much closer than the grid step
        d = Normal(0.3137, 1.0)
        xs = np.linspace(-5.0, 5.0, 401)
        from bayesdesk.distributions import log_density
        grid = GridDensity(xs, np.array([log_density(d, x) for x in xs]))
        est = map_estimate(grid)
        dx = xs[1] - xs[0]
        assert abs(est.value - 0.3137) < dx / 100.0
        assert not est.at_boundary

    def test_grid_edge_maximum_flags_boundary(self):
        xs = np.linspace(0.0, 1.0, 51)
        grid = GridDensity(xs, -2.0 * xs)
        est = map_estimate(grid)
        assert est.value == 0.0
        assert est.at_boundary


class TestCachedNigTerm:
    def test_bits_match_the_inline_formula(self):
        # the formula nig_log_density evaluated before log_gamma(lam_sigma) was cached
        def inline(m, mu, s2):
            half_alpha = 0.5 * m.alpha
            return (0.5 * (math.log(m.lam_mu) - math.log(2.0 * math.pi) - math.log(s2))
                    - m.lam_mu * (mu - m.xi) ** 2 / (2.0 * s2)
                    + m.lam_sigma * math.log(half_alpha) - log_gamma(m.lam_sigma)
                    - (m.lam_sigma + 1.0) * math.log(s2) - half_alpha / s2)

        rng = np.random.default_rng(1919)
        for _ in range(200):
            lam_mu, lam_sigma, alpha = np.exp(rng.uniform(-3.0, 5.0, 3)).tolist()
            m = NormalInvGammaModel(float(rng.normal(0.0, 5.0)), lam_mu, lam_sigma, alpha)
            for mu, s2 in zip(rng.normal(m.xi, 3.0, 20).tolist(),
                              np.exp(rng.uniform(-4.0, 4.0, 20)).tolist()):
                assert nig_log_density(m, mu, s2) == inline(m, mu, s2), (m, mu, s2)


class TestNigLogDensityArray:
    def test_equals_scalar_calls_on_seeded_draws(self):
        rng = np.random.default_rng(2503)
        for lam_mu, lam_sigma, alpha in ((10.0, 5.0, 1.0), (150.0, 75.0, 37.5), (2.0, 1.0, 1e-3)):
            m = NormalInvGammaModel(float(rng.normal(0.0, 3.0)), lam_mu, lam_sigma, alpha)
            draws = sample_joint_posterior(m, 20_000, seed=int(rng.integers(2**31)))
            mu, s2 = draws[:, 0].copy(), draws[:, 1].copy()
            s2[::997] = 0.0
            s2[1::1999] = -s2[1::1999]
            got = nig_log_density(m, mu, s2)
            want = [nig_log_density(m, a, b) for a, b in zip(mu.tolist(), s2.tolist())]
            assert np.array_equal(got, want)
            assert (got == -math.inf).sum() == (s2 <= 0.0).sum() > 0

    def test_broadcasts_a_scalar_against_an_array(self):
        m = NormalInvGammaModel(0.5, 3.0, 4.0, 2.0)
        s2 = np.array([0.5, 1.0, -1.0])
        assert np.array_equal(nig_log_density(m, 0.1, s2),
                              [nig_log_density(m, 0.1, v) for v in s2.tolist()])

    def test_a_square_past_float_range_raises_as_the_scalar_does(self):
        m = NormalInvGammaModel(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(OverflowError):
            nig_log_density(m, 1e200, 1.0)
        with pytest.raises(OverflowError):
            nig_log_density(m, np.array([0.0, 1e200]), np.array([1.0, 1.0]))


class TestNigUpdateFarFromUnitScale:
    def test_flat_mean_prior_skips_the_disagreement_term(self):
        post = jeffreys_normal_posterior(SummaryStats(10, 1e200, 1.0))
        assert (post.xi, post.alpha) == (1e200, 1.0)

    def test_overflowing_alpha_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="overflows float range"):
            update_normal_inverse_gamma(NormalInvGammaModel(lam_mu=1.0), SummaryStats(10, 1e200, 1.0))
        with pytest.raises(NumericalError, match="overflows float range"):
            update_normal_inverse_gamma(NormalInvGammaModel(alpha=1e308), SummaryStats(10, 0.0, 1e308))
