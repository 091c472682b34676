"""Shared set-up for the benchmark's own tests: paths and one-round runs."""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from contextlib import contextmanager

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402


@contextmanager
def workdir():
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base, prefix="selftest-")
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def one_round(name: str, seed: int, scale: float) -> tuple[workloads.Workload, dict]:
    """Build a workload and run each of its ops, then each probe, once in a warm worker.

    The returned workload's `ops` list holds the probes after the timed ops,
    so the run's op indices point into it.
    """
    with workdir() as d:
        wl = workloads.build(name, seed, d, scale)
        wl.ops = wl.ops + wl.probes
        worker = run.Worker(ROOT, d, [])
        try:
            result = run.run_warm(worker, wl.ops, len(wl.ops), 0.0, 1)
        finally:
            worker.close()
    return wl, result
