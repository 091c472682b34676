"""Seeded workloads: CLI argv mixes, their generated input files and oracles.

`build(name, seed, workdir)` writes every input file the program will read
into `workdir` and returns the ops. The same seed gives the same files and
argv lists. `scale` shrinks the large inputs for the benchmark's own tests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("cli_paper", "warm_paper", "warm_scan", "warm_regress")

# The paper's survival-by-group contingency table (README gamma-poisson example).
CANCER_ROWS = (
    ("under50", "non-malignant", 77, 87), ("under50", "malignant", 51, 64),
    ("50-69", "non-malignant", 51, 62), ("50-69", "malignant", 38, 58),
    ("above70", "non-malignant", 7, 10), ("above70", "malignant", 6, 9),
)


@dataclass
class Op:
    """One CLI analysis: its argv and how its outcome is judged.

    expect is the exit class: "ok" (0), "usage" (2) or "numerical" (3).
    decisive marks the decisive-evidence inputs that exit 1 with an
    OverflowError while ROADMAP item 4 is open. They are taken out of the
    timed mix and run as the workload's probes (see `Workload`).
    """

    argv: list[str]
    kind: str
    check: Callable[[dict], list[str]] | None = None
    expect: str = "ok"
    decisive: bool = False
    files: tuple[str, ...] = ()


@dataclass
class Workload:
    """The timed ops of a workload, its warm-up ops and its probes.

    probes are the decisive-evidence ops. Each run executes them once,
    untimed, after the timed ops, and reports how many fail with the known
    OverflowError, so the defect stays visible while every timed op passes.
    """

    name: str
    fresh_process: bool
    ops: list[Op]
    warmup: list[Op]
    round_len: int
    traced_rounds: int
    sizes: dict = field(default_factory=dict)
    probes: list[Op] = field(default_factory=list)


def _f(v: float) -> str:
    return format(float(v), ".17g")


def _write_column(path: str, name: str, values) -> None:
    with open(path, "w") as fh:
        fh.write(name + "\n")
        fh.writelines(_f(v) + "\n" for v in values)


def _write_regression(path: str, X: np.ndarray, y: np.ndarray) -> list[str]:
    names = [f"X{j + 1}" for j in range(X.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(["y"] + names) + "\n")
        for yi, row in zip(y, X):
            fh.write(",".join([_f(yi)] + [_f(v) for v in row]) + "\n")
    return ["Intercept"] + names


def _fmt(argv: list[str], fmt: str) -> list[str]:
    return argv if fmt == "text" else argv + ["--format", fmt]


class _Mix:
    def __init__(self, rng: np.random.Generator, workdir: str):
        self.rng = rng
        self.dir = workdir
        self.ops: list[Op] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def add(self, argv, kind, fmt="json", oracle=None, expect="ok", decisive=False,
            files=(), **inputs) -> None:
        check = partial(oracle, fmt=fmt, **inputs) if oracle else None
        self.ops.append(Op(_fmt(argv, fmt), kind, check, expect, decisive, tuple(files)))

    # -- one helper per analysis kind ------------------------------------

    def beta_binomial(self, s, t, a=1.0, b=1.0, fmt="json"):
        self.add(["estimate", "--model", "beta-binomial", "--successes", str(s), "--trials",
                  str(t), "--prior-a", _f(a), "--prior-b", _f(b)], "estimate.beta-binomial", fmt,
                 oracles.estimate_beta_binomial, prior_a=a, prior_b=b, successes=s, trials=t)

    def gamma_poisson_counts(self, shape, rate, counts, exposures, fmt="json"):
        self.add(["estimate", "--model", "gamma-poisson", "--prior-shape", _f(shape),
                  "--prior-rate", _f(rate), "--counts", ",".join(map(str, counts)),
                  "--exposures", ",".join(map(_f, exposures))], "estimate.gamma-poisson", fmt,
                 oracles.estimate_gamma_poisson, prior_shape=shape, prior_rate=rate,
                 counts=counts, exposures=exposures)

    def gamma_poisson_file(self, shape, rate, group):
        path = self.path("cancer.csv")
        with open(path, "w") as fh:
            fh.write("stratum,group,survived,total\n")
            fh.writelines(f"{s},{g},{a},{n}\n" for s, g, a, n in CANCER_ROWS)
        chosen = [r for r in CANCER_ROWS if r[1] == group]
        self.add(["estimate", "--model", "gamma-poisson", "--prior-shape", _f(shape),
                  "--prior-rate", _f(rate), "--data-file", path, "--group", group],
                 "estimate.gamma-poisson", "json", oracles.estimate_gamma_poisson,
                 prior_shape=shape, prior_rate=rate, counts=[r[2] for r in chosen],
                 exposures=[float(r[3]) for r in chosen])

    def normal_known_var(self, data, xi, lam, var, fmt="json"):
        self.add(["estimate", "--model", "normal-known-var", "--data",
                  ",".join(map(_f, data)), "--prior-xi", _f(xi), "--prior-lam", _f(lam),
                  "--known-variance", _f(var)], "estimate.normal-known-var", fmt,
                 oracles.estimate_normal_known_var, data=data, xi=xi, lam=lam,
                 known_variance=var)

    def normal_inv_gamma(self, prior, n, xbar, ssd, name, points=4001):
        grid = self.path(name)
        self.add(["estimate", "--model", "normal-inv-gamma", "--stats",
                  f"n={n},mean={_f(xbar)},ssd={_f(ssd)}", "--prior-xi", _f(prior[0]),
                  "--prior-lam-mu", _f(prior[1]), "--prior-lam-sigma", _f(prior[2]),
                  "--prior-alpha", _f(prior[3]), "--grid-points", str(points),
                  "--grid-csv", grid], "estimate.normal-inv-gamma", "json",
                 oracles.estimate_normal_inv_gamma, files=[grid], prior=prior, n=n, xbar=xbar,
                 ssd=ssd, grid_file=grid, points=points)

    def hpd_beta(self, s, t, alpha=0.05, points=4001, fmt="json", grid=None):
        extra = ["--grid-csv", self.path(grid)] if grid else []
        self.add(["hpd", "--model", "beta-binomial", "--successes", str(s), "--trials", str(t),
                  "--alpha", _f(alpha), "--grid-points", str(points)] + extra,
                 "hpd.beta-binomial", fmt, oracles.hpd_distribution,
                 files=[self.path(grid)] if grid else [], alpha=alpha, family="Beta",
                 params=(1.0 + s, 1.0 + t - s), points=points)

    def hpd_gamma(self, shape, rate, counts, exposures, alpha=0.05, points=4001, fmt="json"):
        self.add(["hpd", "--model", "gamma-poisson", "--prior-shape", _f(shape),
                  "--prior-rate", _f(rate), "--counts", ",".join(map(str, counts)),
                  "--exposures", ",".join(map(_f, exposures)), "--alpha", _f(alpha),
                  "--grid-points", str(points)], "hpd.gamma-poisson", fmt,
                 oracles.hpd_distribution, alpha=alpha, family="Gamma",
                 params=(shape + sum(counts), rate + math.fsum(exposures)), points=points)

    def hpd_normal(self, data, name, alpha=0.05):
        path = self.path(name)
        _write_column(path, "x", data)
        n, xbar, _ = oracles._stats_of(data)
        self.add(["hpd", "--model", "normal-known-var", "--data-file", path, "--alpha",
                  _f(alpha)], "hpd.normal-known-var", "json", oracles.hpd_distribution,
                 alpha=alpha, family="Normal", params=(xbar, 1.0 / n), points=4001)

    def hpd_cauchy(self, prior_var, data, alpha=0.05, fmt="json"):
        self.add(["hpd", "--model", "cauchy-normal", "--prior-var", _f(prior_var), "--data",
                  ",".join(map(_f, data)), "--alpha", _f(alpha)], "hpd.cauchy-normal", fmt,
                 oracles.hpd_cauchy_normal, alpha=alpha, prior_var=prior_var, data=data)

    def hpd_jeffreys(self, n, xbar, ssd, alpha, draws, seed, name):
        path = self.path(name)
        self.add(["hpd", "--model", "normal-jeffreys", "--stats",
                  f"n={n},mean={_f(xbar)},ssd={_f(ssd)}", "--alpha", _f(alpha), "--sample",
                  str(draws), "--seed", str(seed), "--points-csv", path],
                 "hpd.normal-jeffreys", "json", oracles.hpd_normal_jeffreys, files=[path],
                 alpha=alpha, n=n, xbar=xbar, ssd=ssd, draws=draws, points_file=path)

    def point_null(self, x, sigma, tau, rho, fmt="json", quadrature=False, squared=False,
                   decisive=False):
        argv = ["test", "--point-null", "--x", _f(x), "--rho", _f(rho)]
        if squared:
            # the CLI takes the square root of the variance it is given
            argv += ["--sigma-sq", _f(sigma * sigma), "--tau-sq", _f(tau * tau)]
            sigma, tau = math.sqrt(float(_f(sigma * sigma))), math.sqrt(float(_f(tau * tau)))
        else:
            argv += ["--sigma", _f(sigma), "--tau", _f(tau)]
        argv += ["--quadrature"] if quadrature else []
        self.add(argv, "test.point-null" + (".quadrature" if quadrature else ""), fmt,
                 oracles.test_point_null, decisive=decisive, x=x, sigma=sigma, tau=tau, rho=rho,
                 quadrature=quadrature)

    def sweep(self, x, rho, lo, hi, points, name):
        path = self.path(name)
        self.add(["test", "--point-null", "--x", _f(x), "--rho", _f(rho), "--sweep-tau",
                  f"{_f(lo)},{_f(hi)},{points}", "--sweep-csv", path], "test.sweep", "json",
                 oracles.test_sweep, files=[path], x=x, sigma=1.0, rho=rho, lo=lo, hi=hi,
                 points=points, sweep_file=path)

    def improper(self, x, fmt="json"):
        self.add(["test", "--point-null-improper", "--x", _f(x)], "test.improper", fmt,
                 oracles.test_improper, x=x)

    def one_sided(self, x, fmt="json"):
        self.add(["test", "--one-sided", "--x", _f(x)], "test.one-sided", fmt,
                 oracles.test_one_sided, x=x)

    def regress(self, X, y, name, fmt="json", g=None, report=None, decisive=False,
                checked_columns=None, kind="regress"):
        path = self.path(name)
        names = _write_regression(path, X, y)
        design = np.column_stack([np.ones(len(y)), X])
        expected = oracles.regression_oracle(design, y, g, checked_columns)
        argv = ["regress", "--data-file", path, "--response", "y"]
        argv += ["--g", _f(g)] if g is not None else []
        files = [self.path(report)] if report else []
        argv += ["--report-csv", files[0]] if report else []
        self.add(argv, kind, fmt, oracles.regress, decisive=decisive, files=files,
                 names=names, expected=expected, report_file=files[0] if report else None)

    def predict(self, prior, data, name, fmt="json", grid=None, points=4001):
        path = self.path(name)
        _write_column(path, "x", data)
        argv = ["predict", "--data-file", path, "--column", "x", "--prior-xi", _f(prior[0]),
                "--prior-lam-mu", _f(prior[1]), "--prior-lam-sigma", _f(prior[2]),
                "--prior-alpha", _f(prior[3])]
        files = []
        if grid:
            files = [self.path(grid)]
            argv += ["--grid-points", str(points), "--grid-csv", files[0]]
        self.add(argv, "predict", fmt, oracles.predict, files=files, prior=prior, data=data,
                 grid_file=files[0] if grid else None, points=points)

    def outliers(self, data, planted, name, alpha=0.95, fmt="json", report=None, sample=20):
        path = self.path(name)
        _write_column(path, "x", data)
        files = [self.path(report)] if report else []
        argv = ["outliers", "--data-file", path, "--column", "x", "--alpha", _f(alpha)]
        argv += ["--report-csv", files[0]] if report else []
        rows = sorted(self.rng.choice(len(data), size=min(sample, len(data)), replace=False))
        self.add(argv, "outliers", fmt, oracles.outliers, files=files, data=list(data),
                 alpha=alpha, planted=planted, sample=[int(i) for i in rows],
                 report_file=files[0] if report else None)

    def rejected(self, argv, kind="invalid", expect="usage"):
        self.add(argv, kind, "text", expect=expect)

    # -- generated data ------------------------------------------------------

    def planted_sample(self, n, count, size):
        x = self.rng.normal(0.0, 1.0, n)
        idx = sorted(int(i) for i in self.rng.choice(n, size=count, replace=False))
        x[idx] = self.rng.choice([-1.0, 1.0], count) * self.rng.uniform(size, size + 3.0, count)
        return x, idx

    def design(self, n, p, effect=0.05, strong=None):
        X = self.rng.normal(0.0, 1.0, (n, p))
        beta = self.rng.normal(0.0, effect, p)
        if strong is not None:
            beta[strong] = 3.0
        return X, 0.5 + X @ beta + self.rng.normal(0.0, 1.0, n)


def _paper_mix(b: _Mix) -> None:
    """README/PAPER examples, the tests/data shapes, seeded variants, bad inputs."""
    r = b.rng
    b.beta_binomial(38, 58)
    b.point_null(1.96, 1.0, math.sqrt(10.0), 0.5, squared=True)
    b.hpd_cauchy(10.0, [-4.3, 3.2])
    b.gamma_poisson_file(1.0, 2.0, "non-malignant")
    b.improper(2.58)
    b.one_sided(1.6449, fmt="text")
    b.hpd_jeffreys(10, 0.0, 1.0, 0.90, 1000, 7, "points.csv")
    b.sweep(1.96, 0.5, 1e-4, 10.0, 1000, "sweep.csv")
    X, y = b.design(20, 3, effect=1.0)
    b.regress(X, y, "regress20.csv", report="report20.csv")
    b.predict((0.0, 0.0, 0.0, 0.0), [math.sqrt(0.1) * (-1) ** i for i in range(10)],
              "sample10.csv")
    data, planted = b.planted_sample(30, 1, 6.0)
    b.outliers(data, planted, "planted_outlier.csv")
    b.rejected(["estimate", "--model", "beta-binomial", "--successes", "70", "--trials", "58"])

    def x_tau_rho():
        return (float(r.choice([-1.0, 1.0]) * r.uniform(0.0, 3.5)), float(r.uniform(0.5, 5.0)),
                float(r.uniform(0.2, 0.8)))

    x, tau, rho = x_tau_rho()
    b.point_null(x, 1.0, tau, rho, fmt="text")
    t = int(r.integers(20, 400))
    b.beta_binomial(int(r.integers(1, t)), t, float(r.uniform(0.5, 3)),
                    float(r.uniform(0.5, 3)), fmt="text")
    t = int(r.integers(20, 400))
    b.hpd_beta(int(r.integers(2, t - 1)), t, alpha=float(r.uniform(0.01, 0.2)), grid="hpd_grid.csv")
    x, tau, rho = x_tau_rho()
    b.point_null(x, 1.0, tau, rho, fmt="csv")
    prior = (float(r.normal()), float(r.uniform(0.5, 5)), float(r.uniform(1, 5)),
             float(r.uniform(0.5, 5)))
    b.normal_inv_gamma(prior, int(r.integers(5, 50)), float(r.normal()),
                       float(r.uniform(1, 20)), "nig_grid.csv")
    # decisive evidence: log BF10 > log(max float) at tau 10 once |x| > 38
    b.point_null(float(r.uniform(40.0, 60.0)), 1.0, 10.0, 0.5, decisive=True)
    b.rejected(["test", "--x", "1.0"])
    b.point_null(float(r.uniform(0.0, 3.0)), 1.0, float(r.uniform(1.0, 3.0)), 0.5,
                 quadrature=True)
    counts = [int(c) for c in r.integers(0, 30, 4)]
    exposures = [float(e) for e in r.uniform(5, 40, 4)]
    b.hpd_gamma(float(r.uniform(1, 3)), float(r.uniform(0.5, 2)), counts, exposures, fmt="text")
    counts = [int(c) for c in r.integers(0, 30, 5)]
    exposures = [float(e) for e in r.uniform(5, 40, 5)]
    b.gamma_poisson_counts(float(r.uniform(1, 3)), float(r.uniform(0.5, 2)), counts, exposures,
                           fmt="csv")
    x, tau, _ = x_tau_rho()
    b.point_null(x, float(r.uniform(0.5, 2.0)), tau, 0.5, squared=True)
    b.rejected(["test", "--point-null", "--x", "1.96", "--slab", "flat"], "test.flat-slab",
               expect="numerical")
    b.predict(prior, [float(v) for v in r.normal(1.0, 2.0, 25)], "predict25.csv", fmt="text")
    X, y = b.design(60, 5, effect=0.5)
    b.regress(X, y, "regress60.csv", fmt="csv")
    b.normal_known_var([float(v) for v in r.normal(0.5, 1.0, 12)], float(r.normal()),
                       float(r.uniform(0, 2)), float(r.uniform(0.5, 2)))
    data, planted = b.planted_sample(15, 1, 8.0)
    b.outliers(data, planted, "outliers15.csv", fmt="csv", report="outliers15_report.csv")
    b.hpd_normal([float(v) for v in r.normal(0.0, 1.0, 10)], "hpd_sample10.csv")
    x, tau, rho = x_tau_rho()
    b.point_null(x, 1.0, tau, rho)
    b.rejected(["hpd", "--model", "beta-binomial", "--successes", "3", "--trials", "10",
               "--alpha", "1.5"])
    b.rejected(["outliers", "--data-file", b.path("missing.csv")])
    b.improper(float(r.uniform(0.0, 4.0)), fmt="text")
    x, tau, rho = x_tau_rho()
    b.point_null(x, 1.0, tau, rho)


def _sizes(name: str, scale: float) -> dict:
    if name == "warm_scan":
        return {"outlier_rows": max(50, int(10_000 * scale)),
                "grid_points": max(101, int(40_000 * scale)) + 1,
                "draws": max(100, int(20_000 * scale))}
    return {"big": (max(200, int(5000 * scale)), max(6, int(60 * scale))),
            "small": (max(100, int(2000 * scale)), max(4, int(20 * scale))),
            "small_repeats": max(1, round(6 * scale))}


def _scan_mix(b: _Mix, sizes: dict, warmup: bool) -> None:
    """One round: a 1e4-row outlier scan, five 40001-point grids, four sample HPDs.

    Each of the three kinds takes about a third of the round at the seed.
    """
    r = b.rng
    points, draws = sizes["grid_points"], sizes["draws"]
    tag = "w" if warmup else ""
    data, planted = b.planted_sample(sizes["outlier_rows"], 5, 9.0)
    b.outliers(data, planted, f"long{tag}.csv", sample=200)
    for _ in range(1 if warmup else 2):
        t = int(r.integers(200, 2000))
        b.hpd_beta(int(r.integers(int(0.3 * t), int(0.7 * t))), t, points=points)
        counts = [int(c) for c in r.integers(5, 60, 5)]
        b.hpd_gamma(float(r.uniform(1, 3)), float(r.uniform(0.5, 2)), counts,
                    [float(e) for e in r.uniform(5, 40, 5)], points=points)
    # hpd has no Student-t model; predict tabulates the t predictive density
    b.predict((0.0, 0.0, 0.0, 0.0), [float(v) for v in r.normal(0.0, 1.0, 40)],
              f"t{tag}.csv", grid=f"t_grid{tag}.csv", points=points)
    for i in range(1 if warmup else 4):
        b.hpd_jeffreys(int(r.integers(10, 200)), float(r.normal()), float(r.uniform(5, 50)),
                       float(r.uniform(0.05, 0.5)), draws, int(r.integers(0, 2**31)),
                       f"points{tag}{i}.csv")


def _regress_mix(b: _Mix, sizes: dict, warmup: bool) -> None:
    """One round: a 5000x60 report, then 2000x20 reports taking as long; then the strong probe."""
    if warmup:
        X, y = b.design(200, 5)
        b.regress(X, y, "warmup.csv")
        return
    big_n, big_p = sizes["big"]
    small_n, small_p = sizes["small"]
    X, y = b.design(big_n, big_p)
    cols = sorted(int(j) for j in b.rng.choice(big_p + 1, size=min(8, big_p + 1), replace=False))
    b.regress(X, y, "big.csv", report="big_report.csv", checked_columns=cols, kind="regress.big")
    for i, (fmt, g, report) in enumerate((("json", None, None), ("csv", None, None),
                                          ("json", 100.0, None), ("json", None, "report.csv"))):
        X, y = b.design(small_n, small_p)
        b.regress(X, y, f"small{i}.csv", fmt=fmt, g=g, report=report, kind="regress.small")
    b.ops[1:] = b.ops[1:] * sizes["small_repeats"]
    # a strong predictor gives a decisive Bayes factor (ROADMAP item 4)
    X, y = b.design(small_n, small_p, strong=0)
    b.regress(X, y, "strong.csv", decisive=True, kind="regress.strong")


def build(name: str, seed: int, workdir: str, scale: float = 1.0) -> Workload:
    """Generate the inputs of workload `name` for `seed` under `workdir`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    b = _Mix(rng, workdir)
    if name in ("cli_paper", "warm_paper"):
        _paper_mix(b)
        ops, probes = _split(b.ops)
        seen: set[str] = set()
        warmup = [o for o in ops if not (o.kind in seen or seen.add(o.kind))]
        return Workload(name, name == "cli_paper", ops, warmup,
                        round_len=1 if name == "cli_paper" else len(ops),
                        traced_rounds=1 if name == "cli_paper" else 3, probes=probes)
    mix = _scan_mix if name == "warm_scan" else _regress_mix
    sizes = _sizes(name, scale)
    mix(b, sizes, warmup=False)
    ops, probes = _split(b.ops)
    b.ops = []
    mix(b, _sizes(name, 0.02), warmup=True)
    return Workload(name, False, ops, b.ops, round_len=len(ops), traced_rounds=1, sizes=sizes,
                    probes=probes)


def _split(ops: list[Op]) -> tuple[list[Op], list[Op]]:
    """(timed ops, decisive-evidence probes)."""
    return [o for o in ops if not o.decisive], [o for o in ops if o.decisive]
