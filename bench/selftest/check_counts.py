"""Traced runs with one seed repeat every count and ratio exactly.

Run from the repository root: python3 -m pytest bench/selftest/check_counts.py
(about two minutes: the fresh-process workload starts one interpreter per op).
"""

from __future__ import annotations

import pytest

from common import ROOT, run, workloads


def counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith((".calls", ".errors", "_per_quantile", "_per_draw", "_per_point",
                           "_per_report", ".quad_calls", "_probes"))}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    first, _ = run.run_workload(ROOT, name, 7, 0.0, trace=True, scale=0.05)
    second, _ = run.run_workload(ROOT, name, 7, 0.0, trace=True, scale=0.05)
    assert first["correct"] and second["correct"]
    a, b = counts(first["metrics"]), counts(second["metrics"])
    assert len(a) == 20  # 7 layers x (calls, errors), 4 ratios, quad calls, probes
    assert a == b
    assert sum(v for k, v in a.items() if k.endswith(".calls")) > 0
