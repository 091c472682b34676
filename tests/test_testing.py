"""Point-null and one-sided tests, Bayes factors, evidence grades."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.stats as st

from bayesdesk.distributions import Beta, Binomial, Normal
from bayesdesk.errors import ImproperPriorError, NumericalError
from bayesdesk.testing import (
    ACCEPT_H0,
    EVIDENCE_LEGEND,
    REJECT_H0,
    FlatImproperPrior,
    MarginalSpec,
    PointMass,
    PointNullSpec,
    bf10_normal_point_null,
    bf_by_quadrature,
    decide_zero_one,
    evidence_category,
    evidence_label,
    improper_point_null_prob,
    lindley_sweep,
    model_posterior_probs,
    one_sided_posterior_prob,
    point_null_test,
    posterior_null_prob_normal,
    result_from_bf,
)
from bayesdesk.testing import _log_bf10_normal, _log_bf10_normal_scaled


def _bf_closed_oracle(x, sigma, tau):
    # marginal ratio: N(x; 0, sigma^2 + tau^2) / N(x; 0, sigma^2)
    m1 = st.norm.pdf(x, 0.0, math.sqrt(sigma * sigma + tau * tau))
    m0 = st.norm.pdf(x, 0.0, sigma)
    return m1 / m0


class TestPointNullClosedForm:
    def test_matches_marginal_ratio(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            x = float(rng.normal(0, 2))
            sigma = float(np.exp(rng.uniform(-1, 1)))
            tau = float(np.exp(rng.uniform(-2, 2)))
            assert bf10_normal_point_null(x, sigma, tau) == pytest.approx(
                _bf_closed_oracle(x, sigma, tau), rel=1e-12)

    def test_equal_scales_table(self):
        # tau = sigma, even prior odds
        expected = {0.0: 0.585786437626905, 0.68: 0.5574880479983318,
                    1.28: 0.4842486113654201, 1.96: 0.3511868370249633}
        for z, want in expected.items():
            got = posterior_null_prob_normal(z, 1.0, 1.0, 0.5)
            assert got == pytest.approx(want, rel=1e-12)

    def test_wide_slab_table(self):
        # tau^2 = 10 sigma^2
        tau = math.sqrt(10.0)
        expected = {0.0: 0.76833752096446, 0.68: 0.7288440794263671,
                    1.28: 0.6116421934179297, 1.96: 0.36650633769830504}
        for z, want in expected.items():
            got = posterior_null_prob_normal(z, 1.0, tau, 0.5)
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_tau_gives_unit_bayes_factor(self):
        assert bf10_normal_point_null(1.3, 1.0, 0.0) == 1.0

    def test_no_data_shrinks_toward_null(self):
        # at x=0 the Bayes factor is sigma/sqrt(sigma^2+tau^2) < 1
        assert bf10_normal_point_null(0.0, 1.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            bf10_normal_point_null(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            bf10_normal_point_null(1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            posterior_null_prob_normal(1.0, 1.0, 1.0, 1.0)


class TestLindleySweep:
    def test_null_prob_tends_to_one(self):
        points = lindley_sweep(1.96, 1.0, 0.5, [1e8])
        assert points[0].posterior_null_prob > 0.999

    def test_finite_and_smooth_over_wide_tau_range(self):
        taus = np.geomspace(1e-4, 10.0, 1000)
        points = lindley_sweep(1.96, 1.0, 0.5, taus)
        probs = np.array([p.posterior_null_prob for p in points])
        bfs = np.array([p.bf10 for p in points])
        assert np.all(np.isfinite(probs)) and np.all(np.isfinite(bfs))
        # smooth: no jumps beyond a small step between neighbors
        assert np.max(np.abs(np.diff(probs))) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            lindley_sweep(1.0, 1.0, 0.5, [])
        with pytest.raises(ValueError):
            lindley_sweep(1.0, 1.0, 0.5, [2.0, 1.0])
        with pytest.raises(ValueError):
            lindley_sweep(1.0, 1.0, 0.5, [0.0, 1.0])


class TestImproperAndOneSided:
    def test_improper_point_null_values(self):
        expected = {0.0: 0.2851742248343187, 1.0: 0.19482804203201143,
                    1.65: 0.09277708315397128, 1.96: 0.055214175761364184,
                    2.58: 0.01410335890779014}
        for x, want in expected.items():
            assert improper_point_null_prob(x) == pytest.approx(want, rel=1e-12)

    def test_improper_formula_oracle(self):
        # posterior null prob reduces to phi(x) / (phi(x) + 1)
        for x in (0.0, 0.7, 1.65, 3.1):
            phi = st.norm.pdf(x)
            assert improper_point_null_prob(x) == pytest.approx(
                phi / (phi + 1.0), rel=1e-13)

    def test_upper_bound_is_supremum(self):
        bound = 1.0 / (1.0 + math.sqrt(2.0 * math.pi))
        assert improper_point_null_prob(0.0) == pytest.approx(bound, rel=1e-14)
        grid = np.linspace(-10, 10, 20001)
        vals = np.array([improper_point_null_prob(float(x)) for x in grid])
        assert vals.max() <= bound + 1e-15

    def test_one_sided_matches_normal_cdf(self):
        for x in (-2.0, 0.0, 1.6449, 3.0):
            assert one_sided_posterior_prob(x) == pytest.approx(
                float(st.norm.cdf(-x)), rel=1e-10)

    def test_one_sided_matches_quadrature(self):
        # P(theta <= 0 | x) with a flat prior: integrate the posterior N(x, 1)
        for x in (0.5, 1.6449, 2.2):
            val, _ = si.quad(lambda t: st.norm.pdf(t, x, 1.0), -np.inf, 0.0,
                             epsabs=1e-12)
            assert one_sided_posterior_prob(x) == pytest.approx(val, abs=1e-8)


class TestQuadratureMarginals:
    @staticmethod
    def _normal_log_lik(theta, x):
        return float(st.norm.logpdf(x, theta, 1.0))

    def test_matches_closed_form_for_normal_slab(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            x = float(rng.normal(0, 2))
            tau = float(np.exp(rng.uniform(-1.5, 1.5)))
            bf = bf_by_quadrature(
                MarginalSpec(self._normal_log_lik, PointMass(0.0)),
                MarginalSpec(self._normal_log_lik, Normal(0.0, tau * tau)),
                x)
            assert bf == pytest.approx(_bf_closed_oracle(x, 1.0, tau), rel=1e-8)

    def test_noncentered_slab_against_scipy(self):
        # slab not centered at the null: no closed form, pure quadrature
        x = 1.3
        slab = Normal(0.7, 2.25)
        bf = bf_by_quadrature(
            MarginalSpec(self._normal_log_lik, PointMass(0.0)),
            MarginalSpec(self._normal_log_lik, slab), x)
        m1, _ = si.quad(lambda t: st.norm.pdf(x, t, 1.0) * st.norm.pdf(t, 0.7, 1.5),
                        -np.inf, np.inf, epsabs=1e-13)
        m0 = st.norm.pdf(x, 0.0, 1.0)
        assert bf == pytest.approx(m1 / m0, rel=1e-8)

    def test_beta_binomial_marginal(self):
        # integral has an exact beta-function answer
        n, s = 12, 9
        def log_lik(theta, _x):
            if not 0.0 < theta < 1.0:
                return -math.inf
            return float(st.binom.logpmf(s, n, theta))
        bf = bf_by_quadrature(
            MarginalSpec(log_lik, PointMass(0.5)),
            MarginalSpec(log_lik, Beta(1.0, 1.0)), float(s))
        m1 = math.exp(st.binom.logpmf(s, n, 0.5))
        m0_exact = math.comb(n, s) * math.exp(
            math.lgamma(s + 1) + math.lgamma(n - s + 1) - math.lgamma(n + 2))
        assert bf == pytest.approx(m0_exact / m1, rel=1e-8)

    def test_flat_improper_prior_banned(self):
        with pytest.raises(ImproperPriorError):
            bf_by_quadrature(
                MarginalSpec(self._normal_log_lik, PointMass(0.0)),
                MarginalSpec(self._normal_log_lik, FlatImproperPrior()), 1.0)

    def test_discrete_prior_rejected(self):
        with pytest.raises(ValueError):
            bf_by_quadrature(
                MarginalSpec(self._normal_log_lik, PointMass(0.0)),
                MarginalSpec(self._normal_log_lik, Binomial(3, 0.5)), 1.0)


class TestDecisionsAndEvidence:
    def test_zero_one_decision(self):
        assert decide_zero_one(0.7) == (ACCEPT_H0, False)
        assert decide_zero_one(0.3) == (REJECT_H0, False)

    def test_tie_breaks_toward_rejection_and_flags(self):
        decision, tie = decide_zero_one(0.5)
        assert decision == REJECT_H0
        assert tie

    def test_decision_validation(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                decide_zero_one(bad)

    def test_evidence_thresholds(self):
        assert evidence_label(-0.3) == ""
        assert evidence_label(0.0) == ""
        assert evidence_label(0.2) == "*"
        assert evidence_label(0.5) == "*"
        assert evidence_label(0.8) == "**"
        assert evidence_label(1.0) == "**"
        assert evidence_label(1.7) == "***"
        assert evidence_label(2.0) == "***"
        assert evidence_label(2.3) == "****"

    def test_evidence_categories(self):
        assert evidence_category(-1.0) == "none"
        assert evidence_category(0.4) == "poor"
        assert evidence_category(0.9) == "substantial"
        assert evidence_category(1.5) == "strong"
        assert evidence_category(4.0) == "decisive"
        with pytest.raises(ValueError):
            evidence_category(float("nan"))

    def test_legend_lists_all_grades(self):
        for token in ("(****)", "(***)", "(**)", "(*)"):
            assert token in EVIDENCE_LEGEND

    def test_result_assembly(self):
        r = result_from_bf(2.0, 0.5)
        assert r.bf10 == 2.0
        assert r.log10_bf10 == pytest.approx(math.log10(2.0), rel=1e-15)
        assert r.posterior_null_prob == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert r.decision == REJECT_H0 and not r.tie
        assert r.evidence == "*"

    def test_result_extremes(self):
        r0 = result_from_bf(0.0, 0.5)
        assert r0.posterior_null_prob == 1.0
        assert r0.log10_bf10 == -math.inf
        assert r0.decision == ACCEPT_H0
        rinf = result_from_bf(math.inf, 0.5)
        assert rinf.posterior_null_prob == 0.0
        assert rinf.decision == REJECT_H0


class TestPointNullTest:
    def test_auto_uses_closed_form(self):
        spec = PointNullSpec(theta0=0.0, rho=0.5, slab=Normal(0.0, 10.0))
        r = point_null_test(spec, 1.96, 1.0)
        assert r.posterior_null_prob == pytest.approx(0.36650633769830504, rel=1e-12)

    def test_quadrature_agrees_with_closed_form(self):
        spec = PointNullSpec(theta0=0.0, rho=0.5, slab=Normal(0.0, 10.0))
        closed = point_null_test(spec, 1.96, 1.0, method="closed_form")
        quad = point_null_test(spec, 1.96, 1.0, method="quadrature")
        assert quad.bf10 == pytest.approx(closed.bf10, rel=1e-8)

    def test_shifted_null(self):
        # translating everything by theta0 leaves the answer unchanged
        base = point_null_test(
            PointNullSpec(theta0=0.0, rho=0.5, slab=Normal(0.0, 4.0)), 1.2, 1.0)
        moved = point_null_test(
            PointNullSpec(theta0=5.0, rho=0.5, slab=Normal(5.0, 4.0)), 6.2, 1.0)
        assert moved.bf10 == pytest.approx(base.bf10, rel=1e-12)

    def test_flat_slab_banned(self):
        spec = PointNullSpec(theta0=0.0, rho=0.5, slab=FlatImproperPrior())
        with pytest.raises(ImproperPriorError):
            point_null_test(spec, 1.0, 1.0)

    def test_closed_form_requires_centered_normal_slab(self):
        spec = PointNullSpec(theta0=0.0, rho=0.5, slab=Normal(0.5, 1.0))
        with pytest.raises(ValueError):
            point_null_test(spec, 1.0, 1.0, method="closed_form")
        # auto falls back to quadrature for the same spec
        r = point_null_test(spec, 1.0, 1.0)
        assert math.isfinite(r.bf10)

    def test_point_mass_slab_rejected_at_spec(self):
        with pytest.raises(ValueError):
            PointNullSpec(theta0=0.0, rho=0.5, slab=PointMass(0.0))

    @pytest.mark.parametrize("method", ["closed_form", "quadrature"])
    def test_decisive_evidence_gives_infinite_bf(self, method):
        # log BF10 = 0.5 log(1/101) + 3600 * 100 / 202 = 1779.9, past log(max float)
        spec = PointNullSpec(theta0=0.0, rho=0.5, slab=Normal(0.0, 100.0))
        r = point_null_test(spec, 60.0, 1.0, method=method)
        expected = (0.5 * math.log(1.0 / 101.0) + 3600.0 * 100.0 / 202.0) / math.log(10.0)
        assert r.bf10 == math.inf
        assert r.log10_bf10 == pytest.approx(expected, rel=1e-12)
        assert r.posterior_null_prob == 0.0 and r.evidence == "****"
        assert bf10_normal_point_null(60.0, 1.0, 10.0) == math.inf


class TestSquaresOutOfFloatRange:
    @staticmethod
    def _log_bf_oracle(x, sigma, tau):
        with mpmath.workdps(40):
            x, r = mpmath.mpf(x) / sigma, mpmath.mpf(tau) / sigma
            return float(-mpmath.log1p(r * r) / 2 + x * x / 2 * r * r / (1 + r * r))

    def test_scaled_form_matches_direct_form_on_ordinary_inputs(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            x = float(rng.uniform(-10.0, 10.0))
            sigma, tau = (float(v) for v in 10.0 ** rng.uniform(-5.0, 5.0, size=2))
            assert _log_bf10_normal_scaled(x, sigma, tau) == pytest.approx(
                _log_bf10_normal(x, sigma, tau), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("x, sigma, tau", [
        (1.0, 1e200, 1.0),          # sigma^2 overflows
        (1.96, 1.0, 1e200),         # tau^2 overflows: Lindley's paradox at its extreme
        (1.0, 1e-150, 1e-150),      # the denominator underflows to zero
        (3.0, 1e170, 1e171),
        (1e-100, 1e-170, 1e-160),
        (1e160, 1.0, 1e-150),       # x^2 overflows, (x tau)^2 does not
        (1e150, 1.0, 1e10),         # x^2 tau^2 overflows, the log BF does not
        (1.0, 1e-50, 1e125),        # sigma^2/(sigma^2 + tau^2) underflows
        (1e-80, 1e-75, 1e-75),      # x^2 tau^2 underflows
    ])
    def test_extreme_scales_match_mpmath(self, x, sigma, tau):
        assert _log_bf10_normal(x, sigma, tau) == pytest.approx(
            self._log_bf_oracle(x, sigma, tau), rel=1e-12, abs=1e-300)

    def test_sweep_reaches_huge_tau(self):
        [point] = lindley_sweep(1.96, 1.0, 0.5, [1e300])
        assert point.bf10 == pytest.approx(math.exp(0.5 * 1.96 ** 2) * 1e-300, rel=1e-12)
        assert point.posterior_null_prob == 1.0

    @pytest.mark.parametrize("method", ["closed_form", "quadrature"])
    def test_log_bf_past_float_range_is_a_numerical_error(self, method):
        spec = PointNullSpec(theta0=0.0, rho=0.5, slab=Normal(0.0, 1.0))
        with pytest.raises(NumericalError, match="overflows"):
            point_null_test(spec, 1.0, 1e-200, method=method)


class TestModelPosteriorProbs:
    def test_two_model_case_matches_formula(self):
        probs = model_posterior_probs([math.log(2.0), math.log(6.0)], [0.5, 0.5])
        assert probs[0] == pytest.approx(0.25, rel=1e-14)
        assert probs[1] == pytest.approx(0.75, rel=1e-14)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            lm = rng.normal(-50.0, 30.0, size=k)
            w = rng.dirichlet(np.ones(k))
            probs = model_posterior_probs(lm, w)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            shifted = model_posterior_probs(lm + 123.4, w)
            assert np.argmax(shifted) == np.argmax(probs)
            assert np.max(np.abs(shifted - probs)) < 1e-12

    def test_zero_weight_models_drop_out(self):
        probs = model_posterior_probs([0.0, -1.0, 5.0], [0.5, 0.5, 0.0])
        assert probs[2] == 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            model_posterior_probs([0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            model_posterior_probs([0.0, 0.0], [0.6, 0.6])
        with pytest.raises(ValueError):
            model_posterior_probs([-math.inf, -math.inf], [0.5, 0.5])


class TestNumericalFailureSurfaces:
    def test_slab_marginal_with_no_mass_found(self):
        # a likelihood spike of width 1e-5 that the quadrature pieces miss
        def spike_log_lik(theta, x):
            return float(st.norm.logpdf(x, theta, 1e-5))
        with pytest.raises(NumericalError, match="alternative marginal underflows"):
            bf_by_quadrature(
                MarginalSpec(spike_log_lik, PointMass(0.0)),
                MarginalSpec(spike_log_lik, Normal(0.0, 1.0)), 1.0)

    def test_diverging_null_marginal(self):
        # a likelihood that blows up under the point mass cannot be ratioed
        def bad_log_lik(theta, x):
            return math.inf if theta == 0.0 else float(st.norm.logpdf(x, theta, 1.0))
        with pytest.raises(NumericalError):
            bf_by_quadrature(
                MarginalSpec(bad_log_lik, PointMass(0.0)),
                MarginalSpec(bad_log_lik, Normal(0.0, 1.0)), 0.5)
