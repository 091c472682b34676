"""The root API: `bayesdesk.__all__` is the union of the layer modules' lists."""

import importlib

import bayesdesk

ROOT_API = {
    "__version__",
    # errors
    "NumericalError", "ImproperPosteriorError", "ImproperPriorError", "RankDeficiencyError",
    "CoverageError",
    # distributions
    "Normal", "Gamma", "InverseGamma", "Beta", "Binomial", "Poisson", "StudentT", "Cauchy",
    "Distribution", "log_density", "density", "cdf", "quantile", "sample", "mean", "variance",
    "mode", "support", "is_discrete",
    # conjugate
    "SummaryStats", "BetaBinomialModel", "GammaPoissonModel", "NormalKnownVarModel",
    "NormalInvGammaModel", "MapEstimate", "update_beta_binomial", "update_gamma_poisson",
    "update_normal_known_var", "update_normal_inverse_gamma", "posterior_mean", "map_estimate",
    "jeffreys_normal_posterior", "nig_log_density", "sample_joint_posterior",
    # hpd
    "GridDensity", "HPDRegion", "cauchy_normal_log_posterior", "normalize", "hpd_from_grid",
    "hpd_from_sample",
    # testing
    "ACCEPT_H0", "REJECT_H0", "EVIDENCE_LEGEND", "Decision", "TestResult", "PointMass",
    "FlatImproperPrior", "MarginalSpec", "PointNullSpec", "SweepPoint", "decide_zero_one",
    "bf10_normal_point_null", "posterior_null_prob_normal", "lindley_sweep",
    "improper_point_null_prob", "one_sided_posterior_prob", "bf_by_quadrature",
    "point_null_test", "evidence_label", "evidence_category", "model_posterior_probs",
    "result_from_bf",
    # regression
    "RegressionData", "CoefficientRow", "GPriorPosteriorSummary", "drop_column",
    "log_marginal_gprior", "bf_coefficient_nullity", "regression_report",
    # predictive
    "PredictiveT", "OutlierRow", "OutlierReport", "predictive_from_posterior",
    "loo_predictive_cdf", "bonferroni_bound", "detect_outliers",
}

LAYERS = ("errors", "distributions", "conjugate", "hpd", "testing", "regression", "predictive")


def test_root_api_is_the_declared_set():
    assert len(ROOT_API) == 82
    assert set(bayesdesk.__all__) == ROOT_API


def test_root_api_has_no_duplicates():
    assert len(bayesdesk.__all__) == len(set(bayesdesk.__all__))


def test_root_names_are_the_layer_objects():
    seen = {"__version__"}
    for layer in LAYERS:
        module = importlib.import_module(f"bayesdesk.{layer}")
        for name in module.__all__:
            assert getattr(bayesdesk, name) is getattr(module, name), f"{layer}.{name}"
            seen.add(name)
    assert seen == set(bayesdesk.__all__)
