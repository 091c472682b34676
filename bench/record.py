"""Writes bench/record.json: environment, workload mixes and the BLAS finding.

Run as `python3 bench/run.py --record` from the root of a checkout. The
record is data for readers of the benchmark; runs do not read it.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys
import tempfile

import run
import workloads

WHY = {
    "cli_paper": "what a batch-CLI user waits for: interpreter start and import bayesdesk "
                 "dominate each paper-sized call, so the import path shows here and nowhere else",
    "warm_paper": "the cli_paper argv mix in one process: CLI plumbing and the scalar kernel "
                  "paths (quantile root-finding, quadrature tests, 4001-point density grids) "
                  "at millisecond scale; bypasses large-n work and import",
    "warm_scan": "large-n analyses: per-element Python loops through special/distributions, "
                 "one nig_log_density per draw and the O(n^2) leave-one-out refits; "
                 "bypasses regression and import",
    "warm_regress": "g-prior regression reports, where 3p+2 matrix factorisations per report "
                    "dominate; bypasses the scalar kernels; wide CSV reads",
}

# Each probe runs in a fresh process, so its first BLAS call is the first
# one of the process and the thread count is set before numpy loads.
BLAS_PROBE = """
import sys, time
import numpy as np
from bayesdesk.regression import RegressionData, regression_report
rng = np.random.default_rng(0)
X = np.column_stack([np.ones(2000), rng.normal(size=(2000, 19))])
y = X @ rng.normal(0, 0.1, 20) + rng.normal(size=2000)
t0 = time.perf_counter()
if sys.argv[1] == "svd":
    np.linalg.svd(X, compute_uv=False)
else:
    regression_report(RegressionData(X=X, y=y, column_names=tuple(f"c{j}" for j in range(20))))
print((time.perf_counter() - t0) * 1e3)
"""


def blas_threads(root: str) -> dict:
    """First-call times of a 2000x20 SVD and regression_report per thread count."""
    out = {}
    for threads in ("1", str(os.cpu_count())):
        env = run.child_env(root)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        for probe in ("svd", "report"):
            times = [float(subprocess.run([sys.executable, "-c", BLAS_PROBE, probe],
                                          capture_output=True, text=True, check=True, env=env,
                                          timeout=300).stdout) for _ in range(3)]
            out[f"first_{probe}_2000x20_ms_threads_{threads}"] = sorted(times)
    return out


def workload_record(name: str) -> dict:
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".bench_tmp_record") as tmp:
        wl = workloads.build(name, 0, tmp)
    mix = collections.Counter(op.kind for op in wl.ops)
    return {"why": WHY[name], "fresh_process": wl.fresh_process,
            "ops_per_round": len(wl.ops) if not wl.fresh_process else None,
            "distinct_ops": len({tuple(op.argv) for op in wl.ops}), "op_mix": dict(mix),
            "warmup_ops": len(wl.warmup), "sizes": wl.sizes,
            "expected_fail_ratio_at_seed": 0.0,
            "decisive_probes": [op.kind for op in wl.probes],
            "expected_probe_overflow_failures_at_seed": len(wl.probes),
            "traced_rounds": wl.traced_rounds}


def write(root: str, path: str) -> None:
    record = {
        "environment": run.environment(),
        "thread_setting": "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS are set "
                          "to 1 in the environment of every benchmark child process; the "
                          "program's own thread use is left unchanged",
        "blas_threads_finding": blas_threads(root),
        "method": "closed loop, one client; each run reports medians and the highest "
                  "percentile with ten ops beyond it, not best-of-N, in place of the "
                  "per-change BENCH files sketched in ROADMAP item 1",
        "decisive_evidence": "the decisive-evidence inputs of ROADMAP item 4 (about one in ten "
                             "point-null tests of the paper mix, the strong-predictor regress "
                             "design) exit 1 with OverflowError at the seed; they run once per "
                             "run as untimed probes outside attempted/failed, and the traced "
                             "run reports defect.overflow_probes",
        "workloads": {name: workload_record(name) for name in workloads.WORKLOADS},
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
