"""Special-function kernels checked against scipy references."""

import math

import numpy as np
import pytest
import scipy.special as sp

from bayesdesk import special
from bayesdesk.errors import NumericalError
from bayesdesk.special import (
    erf,
    erfc,
    log_beta,
    log_gamma,
    reg_inc_beta,
    reg_inc_gamma_lower,
    reg_inc_gamma_upper,
    std_normal_cdf,
)


class TestLogGamma:
    def test_matches_scipy_on_positive_axis(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = float(np.exp(rng.uniform(-6.0, 6.0)))
            assert log_gamma(x) == pytest.approx(float(sp.gammaln(x)), abs=1e-11, rel=1e-13)

    def test_small_arguments_use_reflection(self):
        for x in (1e-8, 1e-4, 0.1, 0.25, 0.49):
            assert log_gamma(x) == pytest.approx(float(sp.gammaln(x)), rel=1e-13)

    def test_integer_factorials(self):
        acc = 0.0
        for n in range(2, 25):
            acc += math.log(n - 1)
            assert log_gamma(n) == pytest.approx(acc, rel=1e-13)

    def test_half_integer_values(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        assert log_gamma(1.5) == pytest.approx(math.log(math.sqrt(math.pi) / 2.0), rel=1e-13)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, -3.5):
            with pytest.raises(ValueError):
                log_gamma(bad)


class TestLogBeta:
    def test_matches_scipy(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = float(np.exp(rng.uniform(-3.0, 5.0)))
            b = float(np.exp(rng.uniform(-3.0, 5.0)))
            assert log_beta(a, b) == pytest.approx(float(sp.betaln(a, b)), abs=1e-10, rel=1e-12)


class TestIncompleteGamma:
    def test_lower_matches_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            a = float(np.exp(rng.uniform(-2.0, 5.0)))
            x = float(np.exp(rng.uniform(-4.0, 5.0)))
            assert reg_inc_gamma_lower(a, x) == pytest.approx(
                float(sp.gammainc(a, x)), abs=1e-13)

    def test_upper_complements_lower(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            a = float(np.exp(rng.uniform(-2.0, 4.0)))
            x = float(np.exp(rng.uniform(-3.0, 4.0)))
            assert reg_inc_gamma_lower(a, x) + reg_inc_gamma_upper(a, x) == pytest.approx(
                1.0, abs=1e-13)

    def test_boundary_values(self):
        assert reg_inc_gamma_lower(2.5, 0.0) == 0.0
        assert reg_inc_gamma_upper(2.5, 0.0) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            reg_inc_gamma_lower(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_gamma_lower(1.0, -0.5)


class TestIncompleteBeta:
    def test_matches_scipy(self):
        rng = np.random.default_rng(15)
        for _ in range(400):
            a = float(np.exp(rng.uniform(-2.0, 4.0)))
            b = float(np.exp(rng.uniform(-2.0, 4.0)))
            x = float(rng.uniform(0.0, 1.0))
            assert reg_inc_beta(a, b, x) == pytest.approx(
                float(sp.betainc(a, b, x)), abs=2e-13)

    def test_symmetry_identity(self):
        # I_x(a,b) + I_{1-x}(b,a) = 1
        rng = np.random.default_rng(16)
        for _ in range(100):
            a = float(np.exp(rng.uniform(-1.0, 3.0)))
            b = float(np.exp(rng.uniform(-1.0, 3.0)))
            x = float(rng.uniform(0.0, 1.0))
            assert reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) == pytest.approx(
                1.0, abs=1e-12)

    def test_endpoints(self):
        assert reg_inc_beta(3.0, 4.0, 0.0) == 0.0
        assert reg_inc_beta(3.0, 4.0, 1.0) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            reg_inc_beta(-1.0, 1.0, 0.5)


class TestIncompleteBetaArray:
    """The array path gives each element the bits of the scalar call."""

    @pytest.mark.parametrize("a, b", [(0.5, 4.5), (0.5, 5000.0), (5000.0, 0.5), (39.0, 21.0),
                                      (0.3, 0.7), (1.0, 1.0), (2.0, 150.0)])
    def test_equals_scalar_calls_on_both_sides_of_the_split(self, a, b):
        rng = np.random.default_rng(1701)
        split = (a + 1.0) / (a + b + 2.0)
        x = np.concatenate((rng.uniform(0.0, 1.0, 300), split * rng.uniform(0.0, 1.0, 100),
                            split + (1.0 - split) * rng.uniform(0.0, 1.0, 100),
                            [0.0, 1.0, split, 5e-324, 1e-300, 1.0 - 2.0 ** -53]))
        got = reg_inc_beta(a, b, x)
        assert np.array_equal(got, [reg_inc_beta(a, b, v) for v in x.tolist()])
        assert (x < split).any() and (x >= split).any()

    def test_keeps_the_shape(self):
        x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        got = reg_inc_beta(2.0, 3.0, x)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), [reg_inc_beta(2.0, 3.0, v) for v in x.ravel().tolist()])
        assert reg_inc_beta(2.0, 3.0, np.empty(0)).shape == (0,)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(special, "_MAX_ITER", 2)
        with pytest.raises(NumericalError, match="incomplete beta fraction"):
            reg_inc_beta(0.5, 5000.0, np.array([1e-6, 1e-3, 0.2]))

    def test_rejects_points_outside_the_unit_interval(self):
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError):
                reg_inc_beta(2.0, 3.0, np.array([0.5, bad]))


class TestErrorFunction:
    def test_erf_matches_scipy(self):
        for x in np.linspace(-6.0, 6.0, 241):
            assert erf(float(x)) == pytest.approx(float(sp.erf(x)), abs=1e-13)

    def test_erfc_matches_scipy(self):
        for x in np.linspace(-6.0, 6.0, 241):
            assert erfc(float(x)) == pytest.approx(float(sp.erfc(x)), rel=1e-11, abs=1e-300)

    def test_odd_symmetry(self):
        for x in (0.3, 1.1, 2.7):
            assert erf(-x) == pytest.approx(-erf(x), abs=1e-16)


class TestStdNormalCdf:
    def test_matches_scipy_ndtr(self):
        for x in np.linspace(-8.0, 8.0, 321):
            assert std_normal_cdf(float(x)) == pytest.approx(
                float(sp.ndtr(x)), rel=1e-10, abs=1e-300)

    def test_known_quantiles(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert std_normal_cdf(-1.96) == pytest.approx(0.024997895148220435, rel=1e-12)
        assert std_normal_cdf(1.6449) == pytest.approx(0.9500047825316539, rel=1e-12)
