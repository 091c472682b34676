"""Bayesian hypothesis testing: 0-1 decisions, Bayes factors, point nulls.

Covers the spike-and-slab point-null test for a normal observation (closed
form and quadrature routes), the improper-prior pathology bounds, the
one-sided probability that reproduces the classical p-value, evidence
grading on the log10 Bayes-factor scale, and posterior model probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .distributions import Distribution, is_discrete, log_density, quantile, support
from .errors import ImproperPriorError, NumericalError
from .special import std_normal_cdf

__all__ = [
    "ACCEPT_H0",
    "REJECT_H0",
    "EVIDENCE_LEGEND",
    "Decision",
    "TestResult",
    "PointMass",
    "FlatImproperPrior",
    "MarginalSpec",
    "PointNullSpec",
    "SweepPoint",
    "decide_zero_one",
    "bf10_normal_point_null",
    "posterior_null_prob_normal",
    "lindley_sweep",
    "improper_point_null_prob",
    "one_sided_posterior_prob",
    "bf_by_quadrature",
    "point_null_test",
    "evidence_label",
    "evidence_category",
    "model_posterior_probs",
    "result_from_bf",
]

ACCEPT_H0 = "accept_H0"
REJECT_H0 = "reject_H0"

EVIDENCE_LEGEND = "evidence against H0: (****) decisive, (***) strong, (**) substantial, (*) poor"

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class Decision(NamedTuple):
    """0-1-loss decision plus a flag for the knife-edge case."""

    decision: str
    tie: bool


class SweepPoint(NamedTuple):
    tau: float
    bf10: float
    posterior_null_prob: float


@dataclass(frozen=True)
class PointMass:
    """Degenerate prior putting all mass on a single parameter value."""

    theta0: float

    def __post_init__(self) -> None:
        if not (isinstance(self.theta0, (int, float)) and math.isfinite(self.theta0)):
            raise ValueError(f"theta0 must be finite, got {self.theta0!r}")


@dataclass(frozen=True)
class FlatImproperPrior:
    """Marker for the flat prior on the whole real line.

    Unnormalizable, so any Bayes factor built on it depends on an arbitrary
    constant; the quadrature route refuses it outright.
    """


Prior = Union[Distribution, PointMass, FlatImproperPrior]


@dataclass(frozen=True)
class MarginalSpec:
    """One side of a Bayes factor: a likelihood and a prior over its parameter.

    log_likelihood is called as log_likelihood(theta, x).
    """

    log_likelihood: Callable[[float, float], float]
    prior: Prior


@dataclass(frozen=True)
class PointNullSpec:
    """Spike-and-slab prior: mass rho at theta0, the rest spread by slab."""

    theta0: float
    rho: float
    slab: Prior

    def __post_init__(self) -> None:
        if not (isinstance(self.theta0, (int, float)) and math.isfinite(self.theta0)):
            raise ValueError(f"theta0 must be finite, got {self.theta0!r}")
        if not (isinstance(self.rho, (int, float)) and 0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie strictly in (0, 1), got {self.rho!r}")
        if isinstance(self.slab, PointMass):
            raise ValueError("the slab must spread mass, not concentrate it")


@dataclass(frozen=True)
class TestResult:
    """Outcome of a point-null test, all scales carried together."""

    bf10: float
    log10_bf10: float
    posterior_null_prob: float
    rho: float
    decision: str
    tie: bool
    evidence: str


def _sigmoid_of_neg(z: float) -> float:
    # 1 / (1 + e^z) without overflow on either side
    if z >= 0.0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(z))


def _bf_from_log(log_bf: float) -> float:
    # decisive evidence: a Bayes factor past float range is inf, its log finite
    try:
        return math.exp(log_bf)
    except OverflowError:
        return math.inf


def decide_zero_one(posterior_null_prob: float) -> Decision:
    """Accept the null iff its posterior probability strictly exceeds 1/2.

    An exact tie at 0.5 resolves to rejection and is flagged.
    """
    p = float(posterior_null_prob)
    if not (0.0 <= p <= 1.0) or math.isnan(p):
        raise ValueError(f"posterior_null_prob must lie in [0, 1], got {posterior_null_prob!r}")
    if p > 0.5:
        return Decision(ACCEPT_H0, False)
    return Decision(REJECT_H0, p == 0.5)


def _check_sigma_tau(sigma: float, tau: float) -> None:
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be nonnegative, got {tau!r}")


def _log_bf10_normal(x: float, sigma: float, tau: float) -> float:
    s2 = sigma * sigma
    t2 = tau * tau
    return 0.5 * math.log(s2 / (s2 + t2)) + x * x * t2 / (2.0 * s2 * (s2 + t2))


def bf10_normal_point_null(x: float, sigma: float, tau: float) -> float:
    """Closed-form Bayes factor against a point null for one normal draw.

    The observation is x ~ Normal(theta, sigma^2); the null puts theta at 0
    and the alternative spreads it as Normal(0, tau^2). sigma and tau are
    standard deviations. tau = 0 collapses the slab onto the null and gives
    exactly 1. A Bayes factor past float range is inf.
    """
    _check_sigma_tau(sigma, tau)
    return _bf_from_log(_log_bf10_normal(float(x), float(sigma), float(tau)))


def posterior_null_prob_normal(x: float, sigma: float, tau: float, rho: float) -> float:
    """Posterior probability of the point null under the spike-and-slab prior.

    Equals [1 + ((1-rho)/rho) * BF10]^(-1), evaluated in log space so large
    Bayes factors do not overflow.
    """
    _check_sigma_tau(sigma, tau)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly in (0, 1), got {rho!r}")
    z = math.log((1.0 - rho) / rho) + _log_bf10_normal(float(x), float(sigma), float(tau))
    return _sigmoid_of_neg(z)


def lindley_sweep(
    x: float,
    sigma: float,
    rho: float,
    tau_grid: Sequence[float],
) -> list[SweepPoint]:
    """Evaluate the point-null test along a grid of slab scales.

    As tau grows with x fixed the null probability climbs toward 1 no
    matter how discrepant x is, which is the whole point of sweeping.
    """
    taus = [float(t) for t in tau_grid]
    if len(taus) == 0:
        raise ValueError("tau_grid must be nonempty")
    prev = 0.0
    for t in taus:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"tau_grid values must be positive, got {t!r}")
        if t < prev:
            raise ValueError("tau_grid must be sorted ascending")
        prev = t
    out = []
    for t in taus:
        bf = bf10_normal_point_null(x, sigma, t)
        p = posterior_null_prob_normal(x, sigma, t, rho)
        out.append(SweepPoint(tau=t, bf10=bf, posterior_null_prob=p))
    return out


def improper_point_null_prob(x: float) -> float:
    """Null probability when the slab is the flat improper prior, rho = 1/2.

    Evaluates 1 / (1 + sqrt(2 pi) exp(x^2 / 2)). Bounded above by its value
    at x = 0, about 0.2852, for every x: the flat slab can never lose badly.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return _sigmoid_of_neg(_LOG_SQRT_2PI + 0.5 * x * x)


def one_sided_posterior_prob(x: float) -> float:
    """P(theta <= 0 | x) for x ~ Normal(theta, 1) under the flat prior.

    Reduces to Phi(-x), numerically identical to the classical one-sided
    p-value for positive x.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return std_normal_cdf(-x)


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call.

    Only the quadrature route needs scipy, so ``import bayesdesk`` does not
    load it. _log_marginal calls quadrature through this module-level name,
    which the benchmark tracer (bench/tracer.py) replaces to count calls.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


_PROBE_PS = (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 1.0 - 1e-4, 1.0 - 1e-6)


def _log_marginal(spec: MarginalSpec, x: float) -> float:
    prior = spec.prior
    if isinstance(prior, FlatImproperPrior):
        raise ImproperPriorError(
            "the flat improper prior is banned in Bayes factors: its arbitrary "
            "normalizing constant would scale the answer")
    if isinstance(prior, PointMass):
        return float(spec.log_likelihood(prior.theta0, x))
    if is_discrete(prior):
        raise ValueError("quadrature marginals need a continuous prior")

    lo, hi = support(prior)

    def log_integrand(theta: float) -> float:
        lp = log_density(prior, theta)
        if lp == -math.inf:
            return -math.inf
        return float(spec.log_likelihood(theta, x)) + lp

    probes = [quantile(prior, p) for p in _PROBE_PS]
    if lo < x < hi:
        probes.append(float(x))
    vals = [log_integrand(t) for t in probes]
    if any(math.isnan(v) for v in vals):
        raise NumericalError("log integrand evaluated to NaN")
    shift = max(vals)
    if shift == -math.inf:
        return -math.inf
    center = probes[vals.index(shift)]

    def integrand(theta: float) -> float:
        v = log_integrand(theta) - shift
        return math.exp(min(v, 700.0))

    pieces: list[float] = []
    if lo == -math.inf and hi == math.inf:
        pieces.append(quad(integrand, -math.inf, center, epsabs=1e-12, epsrel=1e-10, limit=200)[0])
        pieces.append(quad(integrand, center, math.inf, epsabs=1e-12, epsrel=1e-10, limit=200)[0])
    elif hi == math.inf:
        if center > lo:
            pieces.append(quad(integrand, lo, center, epsabs=1e-12, epsrel=1e-10, limit=200)[0])
            pieces.append(quad(integrand, center, math.inf, epsabs=1e-12, epsrel=1e-10, limit=200)[0])
        else:
            pieces.append(quad(integrand, lo, math.inf, epsabs=1e-12, epsrel=1e-10, limit=200)[0])
    else:
        inner = [center] if lo < center < hi else None
        pieces.append(quad(integrand, lo, hi, points=inner, epsabs=1e-12, epsrel=1e-10, limit=200)[0])
    total = sum(pieces)
    if math.isnan(total) or total < 0 or math.isinf(total):
        raise NumericalError(f"marginal quadrature failed: integral = {total!r}")
    if total == 0.0:
        return -math.inf
    return shift + math.log(total)


def bf_by_quadrature(m0: MarginalSpec, m1: MarginalSpec, x: float) -> float:
    """Bayes factor BF10 = m1(x) / m0(x) with marginals done by quadrature.

    Both marginal specs carry their own likelihood and prior; point-mass
    priors skip quadrature. Improper priors raise rather than silently
    picking a normalization. A Bayes factor past float range is inf.
    """
    return _bf_from_log(_log_bf_by_quadrature(m0, m1, x))


def _log_bf_by_quadrature(m0: MarginalSpec, m1: MarginalSpec, x: float) -> float:
    lm0 = _log_marginal(m0, float(x))
    lm1 = _log_marginal(m1, float(x))
    if math.isnan(lm0) or math.isnan(lm1) or math.inf in (lm0, lm1):
        raise NumericalError(
            f"marginal likelihoods must be finite, got log m0={lm0!r}, log m1={lm1!r}")
    if lm0 == -math.inf:
        raise NumericalError("null marginal is zero at x; the Bayes factor diverges")
    return lm1 - lm0


def evidence_category(log10_bf: float) -> str:
    """Name of the evidence grade for a log10 Bayes factor against H0."""
    v = float(log10_bf)
    if math.isnan(v):
        raise ValueError("log10_bf must not be NaN")
    if v <= 0.0:
        return "none"
    if v <= 0.5:
        return "poor"
    if v <= 1.0:
        return "substantial"
    if v <= 2.0:
        return "strong"
    return "decisive"


_STARS = {"none": "", "poor": "*", "substantial": "**", "strong": "***", "decisive": "****"}


def evidence_label(log10_bf: float) -> str:
    """Star label for a log10 Bayes factor: "" through "****"."""
    return _STARS[evidence_category(log10_bf)]


def result_from_bf(bf10: float, rho: float) -> TestResult:
    """Assemble the full test outcome from a Bayes factor and prior weight."""
    if not (isinstance(bf10, (int, float)) and bf10 >= 0) or math.isnan(bf10):
        raise ValueError(f"bf10 must be nonnegative, got {bf10!r}")
    result = _result_from_log_bf(math.log(bf10) if bf10 > 0 else -math.inf, rho)
    return replace(result, bf10=float(bf10))


def _result_from_log_bf(log_bf: float, rho: float) -> TestResult:
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly in (0, 1), got {rho!r}")
    log10_bf = log_bf / math.log(10.0)
    post = _sigmoid_of_neg(math.log((1.0 - rho) / rho) + log_bf)
    decision, tie = decide_zero_one(post)
    return TestResult(
        bf10=_bf_from_log(log_bf),
        log10_bf10=log10_bf,
        posterior_null_prob=post,
        rho=rho,
        decision=decision,
        tie=tie,
        evidence=evidence_label(log10_bf),
    )


def point_null_test(
    spec: PointNullSpec,
    x: float,
    sigma: float,
    method: str = "auto",
) -> TestResult:
    """Run the spike-and-slab point-null test for one normal observation.

    method selects how the Bayes factor is computed: "closed_form" needs a
    normal slab centered at theta0, "quadrature" integrates any continuous
    proper slab, and "auto" picks the closed form when it applies. A flat
    improper slab is refused either way.
    """
    from .distributions import Normal

    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(spec.slab, FlatImproperPrior):
        raise ImproperPriorError(
            "the flat improper prior is banned in Bayes factors: its arbitrary "
            "normalizing constant would scale the answer")
    _check_sigma_tau(sigma, 1.0)
    closed_ok = isinstance(spec.slab, Normal) and spec.slab.mean == spec.theta0
    if method == "closed_form" and not closed_ok:
        raise ValueError("closed form needs a normal slab centered at theta0")
    if closed_ok and method != "quadrature":
        log_bf = _log_bf10_normal(float(x - spec.theta0), float(sigma),
                                  math.sqrt(spec.slab.variance))
    else:
        s2 = float(sigma) ** 2

        def log_lik(theta: float, obs: float) -> float:
            dev = obs - theta
            return -_LOG_SQRT_2PI - 0.5 * math.log(s2) - dev * dev / (2.0 * s2)

        log_bf = _log_bf_by_quadrature(
            MarginalSpec(log_lik, PointMass(spec.theta0)),
            MarginalSpec(log_lik, spec.slab),
            x,
        )
    return _result_from_log_bf(log_bf, spec.rho)


def model_posterior_probs(
    log_marginals: Sequence[float],
    prior_weights: Sequence[float],
) -> np.ndarray:
    """Posterior model probabilities from log marginals and prior weights.

    Shifted softmax of log(weight) + log marginal, so any common additive
    constant in the log marginals cancels. Weights must sum to one.
    """
    lm = np.asarray(log_marginals, dtype=float)
    w = np.asarray(prior_weights, dtype=float)
    if lm.ndim != 1 or w.ndim != 1 or lm.shape != w.shape or lm.size == 0:
        raise ValueError("log_marginals and prior_weights must be nonempty and equal-length")
    if np.any(np.isnan(lm)) or np.any(lm == np.inf):
        raise ValueError("log_marginals must not contain NaN or +inf")
    if np.any(np.isnan(w)) or np.any(w < 0) or np.any(w > 1):
        raise ValueError("prior_weights must lie in [0, 1]")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError(f"prior_weights must sum to 1, got {float(w.sum())!r}")
    with np.errstate(divide="ignore"):
        a = lm + np.log(w)
    shift = float(np.max(a))
    if shift == -math.inf:
        raise ValueError("every model has zero posterior weight")
    p = np.exp(a - shift)
    return p / p.sum()
