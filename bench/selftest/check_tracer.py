"""Self-time arithmetic and layer aggregation on a synthetic span tree.

Run from the repository root: python3 -m pytest bench/selftest/check_tracer.py
"""

from __future__ import annotations

import numpy as np

import common  # noqa: F401  (puts the benchmark on sys.path)
import tracer

# cli.main [0, 10] -> distributions.quantile [1, 6] -> distributions.cdf [2, 3] x2
#                                                       special.reg_inc_beta [2.2, 2.7]
#                  -> special.log_gamma [7, 9], raises into cli
NAMES = ["cli.main", "distributions.quantile", "distributions.cdf", "special.reg_inc_beta",
         "special.log_gamma"]
SPANS = {
    "names": np.array(NAMES),
    "name_of": np.array([0, 1, 2, 3, 2, 4], np.int32),
    "parent": np.array([-1, 0, 1, 2, 1, 0], np.int32),
    "op": np.zeros(6, np.int32),
    "start": np.array([0.0, 1.0, 2.0, 2.2, 4.0, 7.0]),
    "end": np.array([10.0, 6.0, 3.0, 2.7, 5.0, 9.0]),
    "raised": np.array([1, 0, 0, 0, 0, 1], np.int8),
    "count_keys": np.array(["testing.quad", "predictive.loo_rows", "conjugate.draws"]),
    "count_values": np.array([4, 0, 0], np.int64),
}


def test_self_time_is_duration_minus_direct_children():
    got = tracer.self_times(SPANS["parent"], SPANS["start"], SPANS["end"])
    np.testing.assert_allclose(got, [10 - 5 - 2, 5 - 1 - 1, 1 - 0.5, 0.5, 1, 2])
    # self times partition the root span's duration
    assert abs(got.sum() - 10.0) < 1e-12


def test_aggregate_sums_layers_and_counts_escaping_errors():
    m = tracer.aggregate([SPANS], ops=2)
    assert abs(m["distributions.self_ms"] - (3 + 0.5 + 1) * 1e3) < 1e-6
    assert abs(m["special.self_ms"] - (0.5 + 2) * 1e3) < 1e-6
    assert abs(m["cli.self_ms_per_op"] - 3 * 1e3 / 2) < 1e-6
    assert m["distributions.calls"] == 3 and m["special.calls"] == 2
    # log_gamma's exception left the special layer; cli is not a ratio layer
    assert m["special.errors"] == 1 and m["distributions.errors"] == 0
    assert m["distributions.cdf_per_quantile"] == 2.0
    assert m["testing.quad_calls"] == 4
    assert m["regression.factorizations_per_report"] == 0.0


def test_aggregate_adds_dumps_of_several_processes():
    one = tracer.aggregate([SPANS], ops=2)
    two = tracer.aggregate([SPANS, SPANS], ops=4)
    assert two["special.calls"] == 2 * one["special.calls"]
    assert abs(two["cli.self_ms_per_op"] - one["cli.self_ms_per_op"]) < 1e-9
    assert two["distributions.cdf_per_quantile"] == one["distributions.cdf_per_quantile"]
