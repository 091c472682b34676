"""Output oracles for the benchmark's CLI ops.

Every expected value here comes from math, numpy or scipy.stats from the
op's own generated inputs; nothing imports bayesdesk. An oracle takes the
op's outcome (exit code, stdout, stderr, side files) and returns a list of
error strings, empty when the output is accepted.

Tolerances, stated once here and used below:

- REL_EXACT (1e-12): closed-form conjugate parameters and moments.
- REL_CLOSED (1e-9, plus ABS_CLOSED 1e-12): closed-form probabilities,
  log Bayes factors and Student-t/normal CDF values.
- QUAD_REL (1e-6): Bayes factors the program computes by quadrature.
- HPD_REPORTED_ABS (2e-6): the reported coverage against 1 - alpha (the
  program's bisection stops within 1e-6 of the target).
- HPD_COVERAGE_ABS (2e-4): exact mass inside a reported HPD region
  against 1 - alpha (grid discretisation; the program stops its bisection
  within 1e-6 of the target on its own trapezoid).
- HPD_K_REL (2e-3): exact density at an interior HPD endpoint against the
  reported threshold k_alpha.
- REG_ABS (1e-7): regression log10 Bayes factors and shrunk estimates
  against numpy lstsq (relative to the value's size, plus this floor).
- TABLE_ABS (6e-5): values a table prints with four decimals.
- LOO_CDF_ABS (1e-6): leave-one-out predictive CDFs against
  scipy.stats.t. The program forms u = df/(df+t^2) in floating point, so for
  a point within |t| < 1e-4 of the rest's mean at n = 1e4 its CDF is off by
  up to about 0.4*sqrt(eps*df), 4e-7 (2.1e-9 seen at t = 1.1e-4); flags are
  compared over every row regardless.
- Also inline below: density-grid CSVs 1e-8 relative, normal-inverse-gamma
  hyperparameters 1e-10 relative, regression bf10 1e-6 relative (1e-5 from
  a six-digit table).
- Text reports print ten significant digits, so no relative tolerance
  below TEXT_REL (1e-9) is applied to a text-format op.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import integrate, special, stats

REL_EXACT = 1e-12
REL_CLOSED = 1e-9
ABS_CLOSED = 1e-12
QUAD_REL = 1e-6
HPD_REPORTED_ABS = 2e-6
HPD_COVERAGE_ABS = 2e-4
HPD_K_REL = 2e-3
REG_ABS = 1e-7
TABLE_ABS = 6e-5
TEXT_REL = 1e-9
LOO_CDF_ABS = 1e-6
LOG_FLOAT_MAX = math.log(np.finfo(float).max)

STARS = ((0.0, ""), (0.5, "*"), (1.0, "**"), (2.0, "***"))


def stars(log10_bf: float) -> str:
    for upper, label in STARS:
        if log10_bf <= upper:
            return label
    return "****"


# ---------------------------------------------------------------------------
# parsing the three output formats into one flat {dotted.key: value} dict

def _scalar(text: str):
    if text in ("true", "false"):
        return text == "true"
    if text in ("-", ""):
        return None
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}{k}.", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}{i}.", out)
    else:
        if isinstance(obj, str) and obj in ("inf", "-inf", "nan"):
            obj = float(obj)
        out[prefix[:-1]] = obj


def parse(stdout: str, fmt: str) -> tuple[dict, list[dict]]:
    """(flat key/value payload, table rows) for one report."""
    if fmt == "json":
        flat: dict = {}
        _flatten(json.loads(stdout), "", flat)
        return flat, []
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows and rows[0] == ["key", "value"]:
            return {k: _scalar(v) for k, v in rows[1:]}, []
        header = rows[0]
        return {}, [{h: _scalar(v) for h, v in zip(header, r)} for r in rows[1:]]
    flat = {}
    for line in stdout.splitlines():
        if line.startswith("#"):
            continue
        if not line:
            break
        key, sep, val = line.partition(": ")
        if sep:
            flat[key] = _scalar(val)
    return flat, []


class Checker:
    """Accumulates mismatches between a parsed report and oracle values."""

    def __init__(self, flat: dict, fmt: str):
        self.flat = flat
        self.rel_floor = TEXT_REL if fmt == "text" else 0.0
        self.errors: list[str] = []

    def num(self, key: str, want: float, rel: float = REL_EXACT, abs_: float = 0.0) -> None:
        got = self.flat.get(key)
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            self.errors.append(f"{key}: missing or not a number ({got!r})")
            return
        if not close(float(got), float(want), max(rel, self.rel_floor), abs_):
            self.errors.append(f"{key}: got {got!r}, oracle {want!r}")

    def eq(self, key: str, want) -> None:
        got = self.flat.get(key)
        if got is None and want == "":
            return  # text and CSV print an empty label as nothing
        if got != want:
            self.errors.append(f"{key}: got {got!r}, expected {want!r}")


def close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= abs_ + rel * abs(want)


# ---------------------------------------------------------------------------
# oracles; each has the signature (outcome, fmt, **inputs) -> errors

def _nig_update(prior: tuple, n: int, xbar: float, ssd: float) -> tuple:
    xi0, lam_mu0, lam_sigma0, alpha0 = prior
    lam_mu = lam_mu0 + n
    xi = (lam_mu0 * xi0 + n * xbar) / lam_mu
    lam_sigma = lam_sigma0 + n / 2.0
    alpha = alpha0 + ssd + (n * lam_mu0 / lam_mu) * (xbar - xi0) ** 2
    return xi, lam_mu, lam_sigma, alpha


def _check_nig(c: Checker, prefix: str, nig: tuple) -> None:
    for name, v in zip(("xi", "lam_mu", "lam_sigma", "alpha"), nig):
        c.num(f"{prefix}.{name}", v, rel=1e-10, abs_=1e-12)


def _stats_of(data) -> tuple[int, float, float]:
    arr = np.asarray(data, dtype=float)
    m = float(np.mean(arr))
    return arr.size, m, float(np.sum((arr - m) ** 2))


def _grid_csv(text: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    arr = np.array(rows[1:], dtype=float) if len(rows) > 1 else np.empty((0, 2))
    return arr[:, 0], arr[:, 1], rows[0]


def _check_density_grid(errors: list, text: str, dist, lo: float, hi: float, points: int) -> None:
    xs, dens, header = _grid_csv(text)
    if header != ["x", "density"] or xs.size != points:
        errors.append(f"grid csv: header {header}, {xs.size} rows, expected {points}")
        return
    if not np.allclose(xs, np.linspace(lo, hi, points), rtol=1e-12, atol=1e-12):
        errors.append("grid csv: x column is not the expected linspace")
    want = dist.pdf(xs)
    bad = ~np.isclose(dens, want, rtol=1e-8, atol=1e-300)
    if np.any(bad):
        i = int(np.argmax(bad))
        errors.append(f"grid csv: density at x={xs[i]!r} is {dens[i]!r}, oracle {want[i]!r}")


def estimate_beta_binomial(outcome, fmt, prior_a, prior_b, successes, trials):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    a, b = prior_a + successes, prior_b + trials - successes
    c.eq("posterior.family", "Beta")
    c.num("posterior.a", a)
    c.num("posterior.b", b)
    c.num("posterior_mean", stats.beta(a, b).mean())
    c.num("map_estimate", (a - 1.0) / (a + b - 2.0))
    c.eq("map_at_boundary", False)
    return c.errors


def estimate_gamma_poisson(outcome, fmt, prior_shape, prior_rate, counts, exposures):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    shape, rate = prior_shape + sum(counts), prior_rate + math.fsum(exposures)
    c.eq("posterior.family", "Gamma")
    c.num("posterior.shape", shape)
    c.num("posterior.rate", rate)
    c.num("posterior_mean", stats.gamma(shape, scale=1.0 / rate).mean())
    c.num("map_estimate", (shape - 1.0) / rate)
    return c.errors


def estimate_normal_known_var(outcome, fmt, data, xi, lam, known_variance):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    n, xbar, ssd = _stats_of(data)
    precision = n / known_variance + lam
    mean = (n * xbar / known_variance + lam * xi) / precision
    c.num("stats.n", n)
    c.num("stats.mean", xbar, rel=1e-12, abs_=1e-15)
    c.num("stats.ssd", ssd, rel=1e-10)
    c.num("posterior.mean", mean, rel=1e-12, abs_=1e-15)
    c.num("posterior.variance", 1.0 / precision)
    c.num("map_estimate", mean, rel=1e-12, abs_=1e-15)
    return c.errors


def estimate_normal_inv_gamma(outcome, fmt, prior, n, xbar, ssd, grid_file, points):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    xi, lam_mu, lam_sigma, alpha = _nig_update(prior, n, xbar, ssd)
    _check_nig(c, "posterior", (xi, lam_mu, lam_sigma, alpha))
    c.num("sigma_sq_posterior_mean", stats.invgamma(lam_sigma, scale=alpha / 2.0).mean(),
          rel=1e-10)
    c.num("joint_map.sigma_sq", (alpha / 2.0) / (lam_sigma + 1.5), rel=1e-10)
    df, scale = 2.0 * lam_sigma, math.sqrt(alpha / (2.0 * lam_sigma * lam_mu))
    c.num("mu_marginal.df", df)
    c.num("mu_marginal.scale", scale, rel=1e-10)
    spread = scale * math.sqrt(df / (df - 2.0))
    _check_density_grid(c.errors, outcome["files"][grid_file], stats.t(df, xi, scale),
                        xi - 10.0 * spread, xi + 10.0 * spread, points)
    return c.errors


def _check_hpd_region(c: Checker, alpha: float, pdf, mass, support=(-math.inf, math.inf)):
    """Coverage and endpoint heights of a reported 1-D HPD region."""
    target = 1.0 - alpha
    c.num("coverage", target, rel=0.0, abs_=HPD_REPORTED_ABS)
    k = c.flat.get("k_alpha")
    intervals = []
    i = 0
    while f"intervals.{i}.lo" in c.flat:
        intervals.append((c.flat[f"intervals.{i}.lo"], c.flat[f"intervals.{i}.hi"]))
        i += 1
    if not intervals or not isinstance(k, float):
        c.errors.append(f"no HPD intervals or k_alpha in the report ({k!r})")
        return
    if any(lo >= hi for lo, hi in intervals) or any(
            a[1] >= b[0] for a, b in zip(intervals, intervals[1:])):
        c.errors.append(f"HPD intervals are not sorted and disjoint: {intervals}")
        return
    covered = sum(mass(lo, hi) for lo, hi in intervals)
    if abs(covered - target) > HPD_COVERAGE_ABS:
        c.errors.append(f"HPD region holds mass {covered!r}, oracle target {target!r}")
    for lo, hi in intervals:
        for end in (lo, hi):
            if end in support:
                continue
            height = pdf(end)
            if not close(height, k, HPD_K_REL):
                c.errors.append(f"density at HPD endpoint {end!r} is {height!r}, k_alpha {k!r}")


def hpd_distribution(outcome, fmt, alpha, family, params, points):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    if family == "Beta":
        a, b = params
        dist, support = stats.beta(a, b), (0.0, 1.0)
        c.num("posterior.a", a)
        c.num("posterior.b", b)
    elif family == "Gamma":
        shape, rate = params
        dist, support = stats.gamma(shape, scale=1.0 / rate), (0.0, math.inf)
        c.num("posterior.shape", shape)
        c.num("posterior.rate", rate)
    else:
        mean, var = params
        dist, support = stats.norm(mean, math.sqrt(var)), (-math.inf, math.inf)
        c.num("posterior.mean", mean, rel=1e-12, abs_=1e-15)
        c.num("posterior.variance", var)
    c.num("grid.points", points)
    _check_hpd_region(c, alpha, dist.pdf, lambda lo, hi: dist.cdf(hi) - dist.cdf(lo), support)
    return c.errors


def hpd_cauchy_normal(outcome, fmt, alpha, prior_var, data):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    x = np.asarray(data, dtype=float)

    def kernel(mu: float) -> float:
        return math.exp(-mu * mu / (2.0 * prior_var) - float(np.sum(np.log1p((x - mu) ** 2))))

    breaks = sorted(set(float(v) for v in x) | {0.0})
    pieces = [(-math.inf, breaks[0])] + list(zip(breaks, breaks[1:])) + [(breaks[-1], math.inf)]
    z = sum(integrate.quad(kernel, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for lo, hi in pieces)

    def mass(lo: float, hi: float) -> float:
        inner = [b for b in breaks if lo < b < hi]
        return integrate.quad(kernel, lo, hi, points=inner or None, epsabs=0.0,
                              epsrel=1e-12, limit=200)[0] / z

    c.num("prior_variance", prior_var)
    _check_hpd_region(c, alpha, lambda mu: kernel(mu) / z, mass)
    return c.errors


def hpd_normal_jeffreys(outcome, fmt, alpha, n, xbar, ssd, draws, points_file):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    xi, lam_mu, lam_sigma, a = _nig_update((0.0, 0.0, 0.0, 0.0), n, xbar, ssd)
    _check_nig(c, "posterior", (xi, lam_mu, lam_sigma, a))
    keep = math.ceil((1.0 - alpha) * draws)
    c.num("n_draws", draws)
    c.num("n_retained", keep)
    rows = list(csv.reader(io.StringIO(outcome["files"][points_file])))
    if rows[0] != ["mu", "sigma_sq", "retained"] or len(rows) != draws + 1:
        c.errors.append(f"points csv: header {rows[0]}, {len(rows) - 1} rows, expected {draws}")
        return c.errors
    pts = np.array([r[:2] for r in rows[1:]], dtype=float)
    flag = np.array([r[2] == "1" for r in rows[1:]])
    if int(flag.sum()) != keep:
        c.errors.append(f"points csv: {int(flag.sum())} rows retained, expected {keep}")
    logp = (stats.norm.logpdf(pts[:, 0], xi, np.sqrt(pts[:, 1] / lam_mu))
            + stats.invgamma.logpdf(pts[:, 1], lam_sigma, scale=a / 2.0))
    if flag.any() and (~flag).any():
        lowest_kept, highest_dropped = logp[flag].min(), logp[~flag].max()
        if lowest_kept < highest_dropped - 1e-9 * abs(highest_dropped):
            c.errors.append(f"retained draws are not the highest-density ones "
                            f"({lowest_kept!r} < {highest_dropped!r})")
    return c.errors


def _log_bf10_normal(x: float, sigma: float, tau: float) -> float:
    return float(stats.norm.logpdf(x, 0.0, math.hypot(sigma, tau))
                 - stats.norm.logpdf(x, 0.0, sigma))


def _check_bf(c: Checker, key_prefix: str, log_bf: float, rho: float, rel: float) -> None:
    want_bf = math.exp(log_bf) if log_bf < LOG_FLOAT_MAX else math.inf
    c.num(f"{key_prefix}bf10", want_bf, rel=rel)
    post = float(special.expit(-(math.log((1.0 - rho) / rho) + log_bf)))
    c.num(f"{key_prefix}posterior_null_prob", post, rel=rel, abs_=ABS_CLOSED)


def test_point_null(outcome, fmt, x, sigma, tau, rho, quadrature=False):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    rel = QUAD_REL if quadrature else REL_CLOSED
    log_bf = _log_bf10_normal(x, sigma, tau)
    c.eq("mode", "point-null")
    c.num("x", x)
    c.num("sigma", sigma, rel=1e-15)
    c.num("tau", tau, rel=1e-15)
    c.eq("method", "quadrature" if quadrature else "closed_form")
    _check_bf(c, "", log_bf, rho, rel)
    c.num("log10_bf10", log_bf / math.log(10.0), rel=rel, abs_=ABS_CLOSED)
    post = float(special.expit(-(math.log((1.0 - rho) / rho) + log_bf)))
    if abs(post - 0.5) > 1e-9:
        c.eq("decision", "accept_H0" if post > 0.5 else "reject_H0")
    if abs(log_bf / math.log(10.0) - round(2.0 * log_bf / math.log(10.0)) / 2.0) > 1e-9:
        c.eq("evidence", stars(log_bf / math.log(10.0)))
    return c.errors


def test_sweep(outcome, fmt, x, sigma, rho, lo, hi, points, sweep_file):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    taus = np.geomspace(lo, hi, points)
    for i, tau in enumerate(taus):
        c.num(f"sweep.{i}.tau", float(tau), rel=1e-14)
        _check_bf(c, f"sweep.{i}.", _log_bf10_normal(x, sigma, float(tau)), rho, REL_CLOSED)
    rows = list(csv.reader(io.StringIO(outcome["files"][sweep_file])))
    if rows[0] != ["tau", "bf10", "posterior_prob"] or len(rows) != points + 1:
        c.errors.append(f"sweep csv: header {rows[0]}, {len(rows) - 1} rows, expected {points}")
    else:
        side = {f"sweep.{i}.{k}": float(v) for i, r in enumerate(rows[1:])
                for k, v in zip(("tau", "bf10", "posterior_null_prob"), r)}
        if any(side[k] != flat.get(k) for k in side):
            c.errors.append("sweep csv differs from the report's sweep")
    return c.errors


def test_improper(outcome, fmt, x):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    log_sqrt_2pi = 0.5 * math.log(2.0 * math.pi)
    c.num("posterior_null_prob", float(special.expit(-(log_sqrt_2pi + 0.5 * x * x))),
          rel=REL_CLOSED, abs_=ABS_CLOSED)
    c.num("upper_bound", 1.0 / (1.0 + math.sqrt(2.0 * math.pi)), rel=REL_CLOSED)
    return c.errors


def test_one_sided(outcome, fmt, x):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    c.num("posterior_prob_theta_le_0", float(stats.norm.cdf(-x)), rel=REL_CLOSED,
          abs_=ABS_CLOSED)
    return c.errors


def _log_marginal(rss: float, yty: float, n: int, p: int, g: float) -> float:
    # g-prior log marginal up to the constant all designs on one y share
    return -(p / 2.0) * math.log1p(g) - (n / 2.0) * math.log(yty - (g / (1.0 + g)) * (yty - rss))


def _rss(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    r = y - X @ beta
    return beta, float(r @ r)


def regression_oracle(X: np.ndarray, y: np.ndarray, g: float | None,
                      columns=None) -> list[tuple]:
    """(estimate, log10_bf10) per column, from numpy lstsq fits.

    Only the drop-one fits of `columns` are made (all when None); the other
    columns get None for log10_bf10 and are not checked.
    """
    n, p = X.shape
    g = float(n) if g is None else g
    yty = float(y @ y)
    beta, rss = _rss(X, y)
    full = _log_marginal(rss, yty, n, p, g)
    out = []
    for j in range(p):
        log10_bf = None
        if columns is None or j in columns:
            _, rss_j = _rss(np.delete(X, j, axis=1), y)
            log10_bf = (full - _log_marginal(rss_j, yty, n, p - 1, g)) / math.log(10.0)
        out.append((g / (1.0 + g) * float(beta[j]), log10_bf))
    return out


def regress(outcome, fmt, names, expected, report_file=None):
    flat, table = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    if fmt == "json":
        rows = [{k: flat.get(f"rows.{j}.{k}") for k in ("name", "estimate", "bf10", "log10_bf10",
                                                         "label")} for j in range(len(names))]
        extra = flat.get(f"rows.{len(names)}.name")
        abs_ = REG_ABS
    else:
        rows = [{"name": r["coefficient"], "estimate": r["Estimate"],
                 "log10_bf10": r["log10(BF)"], "label": r[""].strip("()") if r[""] else "",
                 "bf10": r["BF"]} for r in table]
        extra = None if len(rows) == len(names) else "row count"
        abs_ = TABLE_ABS
    bf_rel = 1e-6 if fmt == "json" else 1e-5  # tables print bf10 with six digits
    if extra is not None or len(rows) != len(names):
        c.errors.append(f"regress: expected {len(names)} rows")
        return c.errors
    if report_file is not None:
        side = list(csv.DictReader(io.StringIO(outcome["files"][report_file])))
        if len(side) != len(names):
            c.errors.append("report csv: wrong row count")
            return c.errors
        rows_to_check = [rows] + [[{k: _scalar(v) for k, v in r.items()} for r in side]]
    else:
        rows_to_check = [rows]
    for table_rows in rows_to_check:
        for row, name, (est, log10_bf) in zip(table_rows, names, expected):
            sub = Checker(row, fmt)
            sub.eq("name", name)
            scale = max(1.0, abs(est))
            sub.num("estimate", est, rel=REG_ABS, abs_=abs_ * scale)
            if log10_bf is not None:
                sub.num("log10_bf10", log10_bf, rel=REG_ABS, abs_=abs_)
                if abs(log10_bf - round(2.0 * log10_bf) / 2.0) > 1e-6:
                    sub.eq("label", stars(log10_bf))
            c.errors.extend(f"{name}: {e}" for e in sub.errors)
    for row, (_, log10_bf) in zip(rows, expected):
        if log10_bf is None:
            continue
        bf = row.get("bf10")
        want = 10.0 ** log10_bf if log10_bf * math.log(10.0) < LOG_FLOAT_MAX else math.inf
        if not isinstance(bf, (int, float)) or not close(float(bf), want, bf_rel):
            c.errors.append(f"{row.get('name')}: bf10 {bf!r}, oracle {want!r}")
    return c.errors


def predict(outcome, fmt, prior, data, grid_file=None, points=None):
    flat, _ = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    n, xbar, ssd = _stats_of(data)
    xi, lam_mu, lam_sigma, alpha = _nig_update(prior, n, xbar, ssd)
    _check_nig(c, "posterior", (xi, lam_mu, lam_sigma, alpha))
    df = 2.0 * lam_sigma
    scale = math.sqrt(alpha * (lam_mu + 1.0) / (lam_mu * df))
    if prior == (0.0, 0.0, 0.0, 0.0):
        # noninformative case in its textbook form: df n, scale^2 ssd (n+1)/n^2
        df, scale = float(n), math.sqrt(ssd * (n + 1) / n ** 2)
    c.num("predictive.df", df)
    c.num("predictive.location", xi, rel=1e-12, abs_=1e-15)
    c.num("predictive.scale", scale, rel=1e-10)
    if grid_file is not None:
        spread = scale * (math.sqrt(df / (df - 2.0)) if df > 2.5 else 3.0)
        _check_density_grid(c.errors, outcome["files"][grid_file], stats.t(df, xi, scale),
                            xi - 10.0 * spread, xi + 10.0 * spread, points)
    return c.errors


def loo_cdf_exact(x: np.ndarray, i: int) -> float:
    """LOO predictive CDF of x[i] under the noninformative normal model."""
    rest = np.delete(x, i)
    m = rest.size
    mean = float(rest.mean())
    ssd = float(np.sum((rest - mean) ** 2))
    return float(stats.t.cdf(x[i], df=m, loc=mean, scale=math.sqrt(ssd * (m + 1) / m ** 2)))


def loo_cdf_all(x: np.ndarray) -> np.ndarray:
    """All LOO predictive CDFs at once through mean/ssd downdates."""
    n = x.size
    xbar = x.mean()
    ssd = np.sum((x - xbar) ** 2)
    mean_i = (n * xbar - x) / (n - 1)
    ssd_i = ssd - n / (n - 1.0) * (x - xbar) ** 2
    m = n - 1
    return stats.t.cdf(x, df=m, loc=mean_i, scale=np.sqrt(ssd_i * (m + 1) / m ** 2))


def outliers(outcome, fmt, data, alpha, planted, sample, report_file=None):
    """Bound, flags and sampled LOO CDFs of an outlier scan.

    `sample` lists the row indices whose CDF is recomputed exactly; the
    flagged set is compared over every row, skipping rows whose oracle CDF
    sits within 1e-9 of a flag threshold.
    """
    x = np.asarray(data, dtype=float)
    n = x.size
    flat, table = parse(outcome["stdout"], fmt)
    c = Checker(flat, fmt)
    bound = -math.expm1(math.log(alpha) / n)
    if fmt == "json":
        c.num("n", n)
        c.num("bound_a", bound, rel=1e-12)
        tables = [[{k: flat.get(f"rows.{i}.{k}") for k in ("loo_cdf", "flagged")}
                   for i in range(n)]]
    else:
        tables = [table]
    if report_file is not None:
        side = list(csv.DictReader(io.StringIO(outcome["files"][report_file])))
        tables.append([{k: _scalar(v) for k, v in r.items()} for r in side])
    want_cdf = loo_cdf_all(x)
    half = 0.5 * bound
    want_flag = (want_cdf < half) | (want_cdf > 1.0 - half)
    clear = (np.abs(want_cdf - half) > 1e-9) & (np.abs(want_cdf - (1.0 - half)) > 1e-9)
    exact = {i: loo_cdf_exact(x, i) for i in sorted(set(sample) | set(planted))}
    for rows in tables:
        if len(rows) != n:
            c.errors.append(f"outliers: {len(rows)} rows, expected {n}")
            return c.errors
        got_cdf = np.array([float(r["loo_cdf"]) for r in rows])
        got_flag = np.array([bool(r["flagged"]) for r in rows])
        for i, want in exact.items():
            if not close(got_cdf[i], want, 0.0, LOO_CDF_ABS):
                c.errors.append(f"row {i}: loo_cdf {got_cdf[i]!r}, oracle {want!r}")
        wrong = np.flatnonzero(clear & (got_flag != want_flag))
        if wrong.size:
            c.errors.append(f"flags differ from the oracle at rows {wrong[:5].tolist()}")
        missed = [i for i in planted if not got_flag[i]]
        if missed:
            c.errors.append(f"planted outliers not flagged: {missed}")
    return c.errors
