"""Batch command-line front end.

Subcommands cover each analysis the library offers: estimate, hpd, test,
regress, predict, outliers. Inputs arrive as flags or CSV files; outputs
are deterministic text, JSON (17 significant digits), or CSV, with
plot-ready density grids and sweeps written as side CSV files on request.

Each flag is declared once, in the `_FLAGS` registry; `_SUBCOMMANDS` lists,
per subcommand, its handler and the flags it takes, in help order. The
conjugate models that both `estimate` and `hpd` offer are built by one
function each, found through the `_CONJUGATE` model table. Every CSV input
is read by `_read_csv`; report tables, `--format csv` output and side-file
tables are written by `Table.write_csv`, grid and draw files by `_write_csv_rows`.

Exit codes: 0 success, 2 input or validation error, 3 numerical failure
(improper posterior, banned improper prior, rank deficiency, unreachable
coverage).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import math
import os
import sys
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .conjugate import (
    BetaBinomialModel,
    GammaPoissonModel,
    NormalInvGammaModel,
    NormalKnownVarModel,
    SummaryStats,
    map_estimate,
    nig_log_density,
    posterior_mean,
    sample_joint_posterior,
    update_beta_binomial,
    update_gamma_poisson,
    update_normal_inverse_gamma,
    update_normal_known_var,
)
from .distributions import Beta, Gamma, Normal, StudentT, log_density
from .errors import NumericalError
from .hpd import (
    DEFAULT_GRID_POINTS,
    GridDensity,
    _sample_keep_mask,
    _write_csv_rows,
    cauchy_normal_log_posterior,
    hpd_from_grid,
    normalize,
)
from .predictive import detect_outliers, predictive_from_posterior
from .regression import RegressionData, regression_report
from .testing import (
    EVIDENCE_LEGEND,
    FlatImproperPrior,
    PointNullSpec,
    improper_point_null_prob,
    lindley_sweep,
    one_sided_posterior_prob,
    point_null_test,
)

__all__ = [
    "main",
    "entrypoint",
    "cmd_estimate",
    "cmd_hpd",
    "cmd_test",
    "cmd_regress",
    "cmd_predict",
    "cmd_outliers",
]

OUT_DIR_ENV = "BAYESDESK_OUT_DIR"


# ---------------------------------------------------------------------------
# parsing helpers

def _floats(cells: list[str], where: str) -> list[float]:
    """Each cell as a float; the first that is not a number is named after `where`."""
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            raise ValueError(f"{where}: could not parse {cell!r} as a number") from None
    return out


def _parse_float_list(text: str, flag: str) -> list[float]:
    pieces = [piece.strip() for piece in text.split(",")]
    if "" in pieces:
        raise ValueError(f"{flag}: empty entry in {text!r}")
    return _floats(pieces, flag)


def _parse_int_list(text: str, flag: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(int(piece))
        except ValueError:
            raise ValueError(f"{flag}: could not parse {piece!r} as an integer") from None
    return out


def _parse_stats(text: str) -> SummaryStats:
    """Parse --stats n=10,mean=0,ssd=1 into SummaryStats."""
    fields: dict[str, str] = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise ValueError(f"--stats: expected key=value, got {piece!r}")
        key, _, val = piece.partition("=")
        fields[key.strip()] = val.strip()
    extra = set(fields) - {"n", "mean", "ssd"}
    if extra:
        raise ValueError(f"--stats: unknown keys {sorted(extra)}; expected n, mean, ssd")
    missing = {"n", "mean", "ssd"} - set(fields)
    if missing:
        raise ValueError(f"--stats: missing keys {sorted(missing)}")
    try:
        n = int(fields["n"])
        mean = float(fields["mean"])
        ssd = float(fields["ssd"])
    except ValueError as exc:
        raise ValueError(f"--stats: {exc}") from None
    return SummaryStats(n=n, mean=mean, sum_sq_dev=ssd)


def _preprocess_argv(argv: list[str]) -> list[str]:
    """Join a flag that takes a value with a following negative-number token.

    `--x -1e3` becomes `--x=-1e3` and `--data -4.3,3.2` becomes
    `--data=-4.3,3.2`; without this argparse reads the value as an option
    string whenever its own negative-number pattern misses it.
    """
    out: list[str] = []
    for tok in argv:
        if (out and out[-1] in _FLAGS and "action" not in _FLAGS[out[-1]]
                and tok.startswith("-") and (tok[1:2].isdigit() or tok[1:2] == ".")):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


# ---------------------------------------------------------------------------
# CSV ingestion

_CONTINGENCY_COLUMNS = ("stratum", "group", "survived", "total")


def _read_csv(path: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The header of a CSV file and the (line number, fields) of each nonblank row.

    Header names must be unique. The rows are checked as they are iterated,
    so a caller's header checks run first: each row must have as many fields
    as the header, and a file with no rows raises "no data rows" at the end.
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        records = [(reader.line_num, fields) for fields in reader if fields]
    if header is None:
        raise ValueError(f"{path}: no data rows")
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise ValueError(f"{path}: line 1: duplicate column name {repeated[0]!r}")

    def rows() -> Iterator[tuple[int, list[str]]]:
        for line, fields in records:
            if len(fields) != len(header):
                raise ValueError(f"{path}: line {line}: expected {len(header)} fields")
            yield line, fields
        if not records:
            raise ValueError(f"{path}: no data rows")
    return header, rows()


def _read_contingency(path: str) -> list[dict]:
    """Rows of the contingency schema: stratum,group,survived,total."""
    names, rows = _read_csv(path)
    if sorted(names) != sorted(_CONTINGENCY_COLUMNS):
        raise ValueError(
            f"{path}: line 1: expected columns {','.join(_CONTINGENCY_COLUMNS)}, "
            f"got {','.join(names)}")
    out = []
    for line, fields in rows:
        row = dict(zip(names, fields))
        try:
            survived = int(row["survived"])
            total = int(row["total"])
        except ValueError:
            raise ValueError(
                f"{path}: line {line}: survived and total must be integers, "
                f"got {row['survived']!r}, {row['total']!r}") from None
        if survived < 0 or total <= 0:
            raise ValueError(
                f"{path}: line {line}: need survived >= 0 and total > 0")
        out.append({**row, "survived": survived, "total": total})
    return out


def _read_numeric_column(path: str, column: str | None) -> tuple[np.ndarray, str]:
    names, rows = _read_csv(path)
    if column is None:
        if len(names) != 1:
            raise ValueError(
                f"{path}: multiple columns ({', '.join(names)}); pick one with --column")
        column = names[0]
    if column not in names:
        raise ValueError(
            f"{path}: column {column!r} not found (have: {', '.join(names)})")
    at = names.index(column)
    values = [_floats([fields[at]], f"{path}: line {line}")[0] for line, fields in rows]
    return np.asarray(values, dtype=float), column


def _read_regression(path: str, response: str, add_intercept: bool) -> RegressionData:
    names, rows = _read_csv(path)
    if response not in names:
        raise ValueError(
            f"{path}: response column {response!r} not found (have: {', '.join(names)})")
    predictors = [c for c in names if c != response]
    if add_intercept and "Intercept" in predictors:
        raise ValueError(
            f"{path}: column 'Intercept' collides with the automatic intercept; "
            "rename it or pass --no-intercept")
    table = np.asarray([_floats(fields, f"{path}: line {line}") for line, fields in rows],
                       dtype=float)
    # copies, not strided views: a view moves the last bits of the Bayes factors
    at = names.index(response)
    y = table[:, at].copy()
    X = np.delete(table, at, axis=1)
    if add_intercept:
        X = np.column_stack([np.ones(y.size), X])
        predictors = ["Intercept"] + predictors
    if not predictors:
        raise ValueError(f"{path}: no predictor columns and --no-intercept given")
    return RegressionData(X=X, y=y, column_names=tuple(predictors))


# ---------------------------------------------------------------------------
# output formatting

def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v) or math.isinf(v):
            return f'"{_fmt17(v)}"'
        return _fmt17(v)
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {v!r}")


def _json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}{_json_scalar(str(k))}: {_json_dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        parts = [f"{inner}{_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return _json_scalar(obj)


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
        return
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
        return
    yield prefix[:-1], obj


def _text_scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".10g")
    return str(v)


class Table:
    """Column names plus rows of scalars, rendered aligned or as CSV."""

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence], legend: str | None = None):
        self.columns = list(columns)
        self.rows = list(rows)
        self.legend = legend

    def render_text(self) -> list[str]:
        cells = [[_text_scalar(v) for v in row] for row in self.rows]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for j, cell in enumerate(row):
                widths[j] = max(widths[j], len(cell))
        lines = ["  ".join(name.ljust(widths[j]) if j == 0 else name.rjust(widths[j])
                           for j, name in enumerate(self.columns))]
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[j]) if j == 0 else cell.rjust(widths[j])
                                   for j, cell in enumerate(row)))
        if self.legend:
            lines.append(self.legend)
        return lines

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(map(_csv_scalar, row))

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)


def _csv_scalar(v) -> str:
    if isinstance(v, (float, np.floating)):
        return _fmt17(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _write_side_file(args, key: str, payload: dict, write: Callable[[str], None]) -> None:
    """Call `write` on the file that flag --<key> names; record the path under `key`.

    A relative name is placed under --out-dir, else $BAYESDESK_OUT_DIR, else
    the working directory.
    """
    path = getattr(args, key)
    base = args.out_dir or os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, path)
    write(path)
    payload[key] = path


def _emit(args, payload: dict, table: Table | None) -> None:
    if args.format == "json":
        print(_json_dumps(payload))
        return
    if args.format == "csv":
        if table is None:
            table = Table(["key", "value"], _flatten(payload))
        table.write_csv(sys.stdout)
        return
    # text: self-describing header with the settings the run used: alpha and
    # seed where the payload records them, grid_points where a grid was evaluated
    print(f"# bayesdesk {args.command}")
    used = {"alpha": "alpha" in payload,
            "grid_points": "grid" in payload or "grid_csv" in payload,
            "seed": "seed" in payload}
    settings = [f"{name}={_text_scalar(getattr(args, name))}" for name in used if used[name]]
    if settings:
        print("# settings: " + " ".join(settings))
    # a list that the table shows is not repeated as key: value lines
    shown = ("rows", "sweep") if table is not None else ()
    for k, v in _flatten({k: v for k, v in payload.items() if k not in shown}):
        print(f"{k}: {_text_scalar(v)}")
    if table is not None:
        print()
        for line in table.render_text():
            print(line)


# ---------------------------------------------------------------------------
# shared model plumbing

def _read_sample(args, flags: tuple[str, ...]) -> tuple:
    """Exactly one of `flags`, drawn from --stats, --data, --data-file.

    Returns the parsed SummaryStats for --stats, else the sample values, plus
    the provenance the report prints.
    """
    if sum(bool(getattr(args, flag[2:].replace("-", "_"))) for flag in flags) != 1:
        raise ValueError(f"provide exactly one of {', '.join(flags)}")
    if args.data:
        values = _parse_float_list(args.data, "--data")
        return values, {"data": values}
    if args.data_file:
        values, column = _read_numeric_column(args.data_file, args.column)
        return values, {"data_file": args.data_file, "column": column}
    return _parse_stats(args.stats), {"stats": args.stats}


def _resolve_stats(args) -> tuple[SummaryStats, dict]:
    """One of --stats, --data, --data-file; returns stats plus provenance."""
    sample, source = _read_sample(args, ("--stats", "--data", "--data-file"))
    if not isinstance(sample, SummaryStats):
        sample = SummaryStats.from_data(sample)
    return sample, source


def _stats_payload(stats: SummaryStats) -> dict:
    return {"n": stats.n, "mean": stats.mean, "ssd": stats.sum_sq_dev}


def _grid_from_range(args) -> np.ndarray | None:
    """The --grid-min..--grid-max grid, or None when neither flag is given.

    Every grid route calls this first, so it also checks --grid-points.
    """
    if args.grid_points < 3:
        raise ValueError(f"--grid-points must be at least 3, got {args.grid_points}")
    if (args.grid_min is None) != (args.grid_max is None):
        raise ValueError("--grid-min and --grid-max must be given together")
    if args.grid_min is None:
        return None
    if not args.grid_min < args.grid_max:
        raise ValueError("--grid-min must be below --grid-max")
    return np.linspace(args.grid_min, args.grid_max, args.grid_points)


def _grid_for(dist, args) -> np.ndarray:
    """The flag range if given, else mean +/- 10 moment-matched sd, clipped to support."""
    xs = _grid_from_range(args)
    if xs is not None:
        return xs
    points = args.grid_points
    if isinstance(dist, Beta):
        return np.linspace(0.0, 1.0, points)
    if isinstance(dist, Gamma):
        m = dist.shape / dist.rate
        s = math.sqrt(dist.shape) / dist.rate
        return np.linspace(max(0.0, m - 10.0 * s), m + 10.0 * s, points)
    if isinstance(dist, Normal):
        s = math.sqrt(dist.variance)
        return np.linspace(dist.mean - 10.0 * s, dist.mean + 10.0 * s, points)
    if isinstance(dist, StudentT):
        spread = dist.scale * (math.sqrt(dist.df / (dist.df - 2.0)) if dist.df > 2.5 else 3.0)
        return np.linspace(dist.location - 10.0 * spread, dist.location + 10.0 * spread, points)
    raise ValueError(f"no default grid for {type(dist).__name__}")


def _log_density_grid(dist, args) -> GridDensity:
    xs = _grid_for(dist, args)
    log_vals = log_density(dist, xs)
    unbounded = np.flatnonzero(log_vals == math.inf)
    if unbounded.size:
        raise NumericalError(
            f"the density is infinite at x = {xs[unbounded[0]]:g} on the grid; "
            "put --grid-min/--grid-max strictly inside the support")
    return GridDensity(xs, log_vals)


def _family_payload(law) -> dict:
    """A distribution or NIG model as its family name, then its dataclass fields in order."""
    family = "NormalInverseGamma" if isinstance(law, NormalInvGammaModel) else type(law).__name__
    return {"family": family, **{f.name: getattr(law, f.name) for f in dataclasses.fields(law)}}


def _counts_exposures(args) -> tuple[list[int], list[float], dict]:
    if args.data_file and (args.counts or args.exposures):
        raise ValueError("give either --data-file or --counts/--exposures, not both")
    if args.data_file:
        if not args.group:
            raise ValueError("--data-file with the contingency schema needs --group")
        rows = _read_contingency(args.data_file)
        chosen = [r for r in rows if r["group"] == args.group]
        if not chosen:
            groups = sorted({r["group"] for r in rows})
            raise ValueError(
                f"{args.data_file}: group {args.group!r} not found (have: {', '.join(groups)})")
        counts = [r["survived"] for r in chosen]
        exposures = [float(r["total"]) for r in chosen]
        source = {"data_file": args.data_file, "group": args.group,
                  "strata": [r["stratum"] for r in chosen]}
        return counts, exposures, source
    if not (args.counts and args.exposures):
        raise ValueError("need --counts and --exposures, or --data-file with --group")
    counts = _parse_int_list(args.counts, "--counts")
    exposures = _parse_float_list(args.exposures, "--exposures")
    return counts, exposures, {"counts": counts, "exposures": exposures}


# ---------------------------------------------------------------------------
# conjugate models shared by estimate and hpd

def _beta_binomial(args) -> tuple[Beta, dict]:
    if args.successes is None or args.trials is None:
        raise ValueError("beta-binomial needs --successes and --trials")
    model = BetaBinomialModel(args.prior_a, args.prior_b)
    post = update_beta_binomial(model, args.successes, args.trials)
    return post, {"prior": {"a": model.prior_a, "b": model.prior_b},
                  "data": {"successes": args.successes, "trials": args.trials}}


def _gamma_poisson(args) -> tuple[Gamma, dict]:
    if args.prior_shape is None or args.prior_rate is None:
        raise ValueError("gamma-poisson needs --prior-shape and --prior-rate")
    model = GammaPoissonModel(args.prior_shape, args.prior_rate)
    counts, exposures, source = _counts_exposures(args)
    post = update_gamma_poisson(model, counts, exposures)
    return post, {"prior": {"shape": model.prior_shape, "rate": model.prior_rate},
                  "data": source}


def _normal_known_var(args) -> tuple[Normal, dict]:
    stats, source = _resolve_stats(args)
    model = NormalKnownVarModel(xi=args.prior_xi, lam=args.prior_lam)
    post = update_normal_known_var(model, stats, args.known_variance)
    return post, {"prior": {"xi": model.xi, "lam": model.lam},
                  "known_variance": args.known_variance, "data": source,
                  "stats": _stats_payload(stats)}


def _normal_inv_gamma(args) -> tuple[NormalInvGammaModel, dict]:
    """The posterior of `estimate --model normal-inv-gamma` and `predict`, plus
    their prior, data, stats and posterior report fields."""
    stats, source = _resolve_stats(args)
    prior = NormalInvGammaModel(xi=args.prior_xi, lam_mu=args.prior_lam_mu,
                                lam_sigma=args.prior_lam_sigma, alpha=args.prior_alpha)
    post = update_normal_inverse_gamma(prior, stats)
    return post, {"prior": _family_payload(prior), "data": source,
                  "stats": _stats_payload(stats), "posterior": _family_payload(post)}


# model -> (builder, report fields hpd repeats). A builder checks its flags and
# returns the posterior plus the report fields of `estimate`, in payload order.
_CONJUGATE = {
    "beta-binomial": (_beta_binomial, ()),
    "gamma-poisson": (_gamma_poisson, ("data",)),
    "normal-known-var": (_normal_known_var, ("data",)),
}


# ---------------------------------------------------------------------------
# subcommands

def cmd_estimate(args) -> tuple[dict, Table | None]:
    payload: dict = {"command": "estimate", "model": args.model}
    if args.model == "normal-inv-gamma":
        post, fields = _normal_inv_gamma(args)
        payload.update(fields)
        payload["mu_posterior_mean"] = post.xi
        payload["sigma_sq_posterior_mean"] = (
            (0.5 * post.alpha) / (post.lam_sigma - 1.0) if post.lam_sigma > 1.0 else None)
        payload["joint_map"] = {"mu": post.xi,
                                "sigma_sq": (0.5 * post.alpha) / (post.lam_sigma + 1.5)}
        law = StudentT(df=2.0 * post.lam_sigma, location=post.xi,
                       scale=math.sqrt(post.alpha / (2.0 * post.lam_sigma * post.lam_mu)))
        payload["mu_marginal"] = _family_payload(law)
    else:
        build, _ = _CONJUGATE[args.model]
        law, fields = build(args)
        payload.update(fields)
        payload["posterior"] = _family_payload(law)
        payload["posterior_mean"] = posterior_mean(law)
        est = map_estimate(law)
        payload["map_estimate"] = est.value
        payload["map_at_boundary"] = est.at_boundary
    if args.grid_csv:
        _write_side_file(args, "grid_csv", payload, _log_density_grid(law, args).to_csv)
    return payload, None


def cmd_hpd(args) -> tuple[dict, Table | None]:
    payload: dict = {"command": "hpd", "model": args.model, "alpha": args.alpha}
    if args.model == "normal-jeffreys":
        stats, source = _resolve_stats(args)
        post = update_normal_inverse_gamma(NormalInvGammaModel(), stats)
        payload["data"] = source
        payload["posterior"] = _family_payload(post)
        if args.sample is None:
            raise ValueError("normal-jeffreys HPD is sample-based: pass --sample")
        draws = sample_joint_posterior(post, args.sample, args.seed)
        kept = _sample_keep_mask(nig_log_density(post, *draws.T), args.alpha)
        payload["seed"] = args.seed
        payload["n_draws"] = int(args.sample)
        payload["n_retained"] = int(np.count_nonzero(kept))
        if args.points_csv:
            rows = zip(*draws.T.tolist(), kept.tolist())
            _write_side_file(args, "points_csv", payload, lambda path: _write_csv_rows(
                path, "mu,sigma_sq,retained", "%.17g,%.17g,%d\n", rows))
        return payload, None

    if args.model == "cauchy-normal":
        if args.prior_var is None:
            raise ValueError("cauchy-normal needs --prior-var")
        if not args.data:
            raise ValueError("cauchy-normal needs --data")
        values = _parse_float_list(args.data, "--data")
        raw = cauchy_normal_log_posterior(values, args.prior_var, _grid_from_range(args),
                                          args.grid_points)
        payload["prior_variance"] = args.prior_var
        payload["data"] = values
        grid_density = normalize(raw)
    else:
        build, shared = _CONJUGATE[args.model]
        post, fields = build(args)
        payload.update((key, fields[key]) for key in shared)
        payload["posterior"] = _family_payload(post)
        grid_density = normalize(_log_density_grid(post, args))

    region = hpd_from_grid(grid_density, args.alpha)
    payload["grid"] = {"min": float(grid_density.xs[0]), "max": float(grid_density.xs[-1]),
                       "points": int(grid_density.xs.size)}
    payload["log_norm_const"] = grid_density.log_norm_const
    payload["k_alpha"] = region.k_alpha
    payload["coverage"] = region.coverage
    payload["intervals"] = [{"lo": lo, "hi": hi} for lo, hi in region.intervals]
    if args.grid_csv:
        _write_side_file(args, "grid_csv", payload, grid_density.to_csv)
    return payload, None


def _resolve_sd(args, name: str, default: float | None) -> float | None:
    plain = getattr(args, name)
    squared = getattr(args, f"{name}_sq")
    if plain is not None and squared is not None:
        raise ValueError(f"give --{name} or --{name}-sq, not both")
    for flag, value in ((f"--{name}", plain), (f"--{name}-sq", squared)):
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{flag} must be {'finite' if value == math.inf else 'positive'}, "
                             f"got {value!r}")
    if squared is not None:
        return math.sqrt(squared)
    if plain is not None:
        return plain
    return default


def cmd_test(args) -> tuple[dict, Table | None]:
    mode = ("one-sided" if args.one_sided
            else "point-null-improper" if args.point_null_improper else "point-null")
    if not math.isfinite(args.x):
        raise ValueError(f"--x must be finite, got {args.x!r}")
    payload: dict = {"command": "test", "mode": mode, "x": args.x}
    if args.one_sided:
        payload["posterior_prob_theta_le_0"] = one_sided_posterior_prob(args.x)
        return payload, None
    if args.point_null_improper:
        payload["posterior_null_prob"] = improper_point_null_prob(args.x)
        payload["upper_bound"] = improper_point_null_prob(0.0)
        return payload, None

    sigma = _resolve_sd(args, "sigma", 1.0)
    tau = _resolve_sd(args, "tau", None)
    payload["sigma"] = sigma
    payload["rho"] = args.rho
    payload["theta0"] = args.theta0
    payload["slab"] = args.slab

    table: Table | None = None
    run_point = tau is not None or args.slab == "flat"
    if not run_point and not args.sweep_tau:
        raise ValueError("point-null test needs --tau/--tau-sq or --sweep-tau")

    if run_point:
        if args.slab == "flat":
            slab: object = FlatImproperPrior()
        else:
            if not 0.0 < tau * tau < math.inf:
                raise ValueError(f"--tau {tau!r}: the slab variance tau^2 leaves float range")
            payload["tau"] = tau
            slab = Normal(args.theta0, tau * tau)
        spec = PointNullSpec(theta0=args.theta0, rho=args.rho, slab=slab)
        method = "quadrature" if args.quadrature else "auto"
        result = point_null_test(spec, args.x, sigma, method=method)
        payload["method"] = "quadrature" if args.quadrature else "closed_form"
        payload["bf10"] = result.bf10
        payload["log10_bf10"] = result.log10_bf10
        payload["posterior_null_prob"] = result.posterior_null_prob
        payload["decision"] = result.decision
        payload["tie"] = result.tie
        payload["evidence"] = result.evidence

    if args.sweep_tau:
        if args.slab == "flat":
            raise ValueError("--sweep-tau needs the normal slab")
        lo_hi_pts = args.sweep_tau.split(",")
        if len(lo_hi_pts) != 3:
            raise ValueError("--sweep-tau expects lo,hi,points")
        lo, hi = _parse_float_list(",".join(lo_hi_pts[:2]), "--sweep-tau")
        [n_pts] = _parse_int_list(lo_hi_pts[2], "--sweep-tau")
        if not (lo > 0 and hi > lo and n_pts >= 2):
            raise ValueError("--sweep-tau needs 0 < lo < hi and points >= 2")
        if hi == math.inf:
            raise ValueError("--sweep-tau: hi must be finite")
        taus = np.geomspace(lo, hi, n_pts)
        points = lindley_sweep(args.x - args.theta0, sigma, args.rho, taus)
        payload["sweep"] = [{"tau": p.tau, "bf10": p.bf10,
                             "posterior_null_prob": p.posterior_null_prob} for p in points]
        table = Table(["tau", "bf10", "posterior_null_prob"],
                      [[p.tau, p.bf10, p.posterior_null_prob] for p in points])
        if args.sweep_csv:
            _write_side_file(args, "sweep_csv", payload,
                             Table(["tau", "bf10", "posterior_prob"], table.rows).to_csv)
    return payload, table


def cmd_regress(args) -> tuple[dict, Table | None]:
    data = _read_regression(args.data_file, args.response, not args.no_intercept)
    summary = regression_report(data, args.g)
    payload = {
        "command": "regress",
        "data_file": args.data_file,
        "response": args.response,
        "n": data.n,
        "p": data.p,
        "g": summary.g,
        "estimate_kind": "posterior mean (g/(g+1)) * least-squares",
        "rows": [{"name": r.name, "estimate": r.estimate, "bf10": r.bf10,
                  "log10_bf10": r.log10_bf10, "label": r.label} for r in summary.rows],
        "legend": EVIDENCE_LEGEND,
    }
    rows = []
    for r in summary.rows:
        stars = f"({r.label})" if r.label else ""
        rows.append([r.name,
                     format(r.estimate, ".4f"),
                     format(r.bf10, ".6g") if r.bf10 is not None else None,
                     format(r.log10_bf10, ".4f") if r.log10_bf10 is not None else None,
                     stars])
    table = Table(["coefficient", "Estimate", "BF", "log10(BF)", ""], rows,
                  legend=EVIDENCE_LEGEND)
    if args.report_csv:
        report = Table(["name", "estimate", "bf10", "log10_bf10", "label"],
                       [list(row.values()) for row in payload["rows"]])
        _write_side_file(args, "report_csv", payload, report.to_csv)
    return payload, table


def cmd_predict(args) -> tuple[dict, Table | None]:
    post, fields = _normal_inv_gamma(args)
    pred = predictive_from_posterior(post).to_distribution()
    payload = {"command": "predict", **fields, "predictive": _family_payload(pred)}
    if args.grid_csv:
        _write_side_file(args, "grid_csv", payload, _log_density_grid(pred, args).to_csv)
    return payload, None


def cmd_outliers(args) -> tuple[dict, Table | None]:
    values, source = _read_sample(args, ("--data", "--data-file"))
    report = detect_outliers(np.asarray(values, dtype=float), args.alpha)
    payload = {
        "command": "outliers",
        "alpha": report.alpha,
        "n": report.n,
        "bound_a": report.bound_a,
        "flag_rule": "loo_cdf < bound_a/2 or loo_cdf > 1 - bound_a/2",
        "data": source,
        "flagged_indices": list(report.flagged_indices()),
        "rows": [{"index": r.index, "value": r.value, "loo_cdf": r.loo_cdf,
                  "flagged": r.flagged, "degenerate": r.degenerate} for r in report.rows],
    }
    columns = ["index", "value", "loo_cdf", "flagged", "degenerate"]
    table = Table(columns, [[r.index, format(r.value, ".6g"), format(r.loo_cdf, ".6f"),
                             r.flagged, r.degenerate] for r in report.rows])
    if args.report_csv:
        report_table = Table(columns, [list(row.values()) for row in payload["rows"]])
        _write_side_file(args, "report_csv", payload, report_table.to_csv)
    return payload, table


# ---------------------------------------------------------------------------
# argument wiring

# Every flag, declared once: name -> add_argument keywords.
_FLAGS: dict[str, dict] = {
    "--model": {"required": True},
    "--alpha": {"type": float, "default": 0.05, "help": "1 - coverage (default 0.05)"},
    "--prior-var": {"type": float,
                    "help": "prior variance of the normal mean (cauchy-normal)"},
    "--successes": {"type": int},
    "--trials": {"type": int},
    "--prior-a": {"type": float, "default": 1.0},
    "--prior-b": {"type": float, "default": 1.0},
    "--prior-shape": {"type": float},
    "--prior-rate": {"type": float},
    "--counts": {"help": "comma-separated event counts"},
    "--exposures": {"help": "comma-separated exposures"},
    "--group": {"help": "group filter for the contingency schema"},
    "--prior-xi": {"type": float, "default": 0.0},
    "--prior-lam": {"type": float, "default": 0.0},
    "--known-variance": {"type": float, "default": 1.0},
    "--prior-lam-mu": {"type": float, "default": 0.0},
    "--prior-lam-sigma": {"type": float, "default": 0.0},
    "--prior-alpha": {"type": float, "default": 0.0},
    "--sample": {"type": int, "help": "draw count for the sample-based 2-D region"},
    "--seed": {"type": int, "default": 0},
    "--points-csv": {"help": "write draws with a retained flag (normal-jeffreys)"},
    "--stats": {"help": "summary stats as n=..,mean=..,ssd=.."},
    "--data": {"help": "comma-separated sample values"},
    "--data-file": {"help": "CSV file with one numeric column"},
    "--column": {"help": "column name inside --data-file"},
    "--grid-min": {"type": float},
    "--grid-max": {"type": float},
    "--grid-points": {"type": int, "default": DEFAULT_GRID_POINTS,
                      "help": f"grid resolution (default {DEFAULT_GRID_POINTS})"},
    "--grid-csv": {"help": "write the density grid as CSV"},
    "--point-null": {"action": "store_true"},
    "--point-null-improper": {"action": "store_true"},
    "--one-sided": {"action": "store_true"},
    "--x": {"type": float, "required": True, "help": "observed value"},
    "--sigma": {"type": float, "help": "sampling sd (default 1)"},
    "--sigma-sq": {"type": float, "help": "sampling variance"},
    "--tau": {"type": float, "help": "slab sd"},
    "--tau-sq": {"type": float, "help": "slab variance"},
    "--rho": {"type": float, "default": 0.5, "help": "prior null weight (default 0.5)"},
    "--theta0": {"type": float, "default": 0.0, "help": "null value (default 0)"},
    "--slab": {"choices": ("normal", "flat"), "default": "normal",
               "help": "slab prior; flat is refused with a numerical error"},
    "--quadrature": {"action": "store_true",
                     "help": "compute the Bayes factor by quadrature instead of closed form"},
    "--sweep-tau": {"metavar": "LO,HI,POINTS", "help": "evaluate along a log-spaced tau grid"},
    "--sweep-csv": {"help": "write the sweep as CSV"},
    "--response": {"required": True, "help": "name of the response column"},
    "--g": {"type": float, "help": "g value (default n)"},
    "--no-intercept": {"action": "store_true",
                       "help": "do not prepend an all-ones intercept column"},
    "--report-csv": {"help": "write the table as CSV"},
    "--format": {"choices": ("text", "json", "csv"), "default": "text",
                 "help": "output format (default text)"},
    "--out-dir": {"help": f"directory for side-output files (default ${OUT_DIR_ENV} or cwd)"},
}

_STATS_SOURCES = ("--stats", "--data", "--data-file", "--column")
_GRID_FLAGS = ("--grid-min", "--grid-max", "--grid-points", "--grid-csv")
_NIG_PRIOR_FLAGS = ("--prior-xi", "--prior-lam-mu", "--prior-lam-sigma", "--prior-alpha")
_COMMON_FLAGS = ("--format", "--out-dir")


class _Subcommand(NamedTuple):
    run: Callable[[argparse.Namespace], tuple[dict, Table | None]]
    help: str
    flags: tuple[str, ...]  # in help order
    overrides: dict = {}  # flag -> keywords added to or replacing the registry's
    one_of: tuple[str, ...] = ()  # exactly one of these flags is required


_SUBCOMMANDS = {
    "estimate": _Subcommand(
        cmd_estimate, "conjugate posterior update and point estimates",
        ("--model", "--successes", "--trials", "--prior-a", "--prior-b", "--prior-shape",
         "--prior-rate", "--counts", "--exposures", "--group", "--prior-lam",
         "--known-variance", *_NIG_PRIOR_FLAGS, *_STATS_SOURCES, *_GRID_FLAGS,
         *_COMMON_FLAGS),
        {"--model": {"choices": (*_CONJUGATE, "normal-inv-gamma")}}),
    "hpd": _Subcommand(
        cmd_hpd, "highest-posterior-density credible regions",
        ("--model", "--alpha", "--prior-var", "--successes", "--trials", "--prior-a",
         "--prior-b", "--prior-shape", "--prior-rate", "--counts", "--exposures", "--group",
         "--prior-xi", "--prior-lam", "--known-variance", "--sample", "--seed", "--points-csv",
         *_STATS_SOURCES, *_GRID_FLAGS, *_COMMON_FLAGS),
        {"--model": {"choices": ("cauchy-normal", *_CONJUGATE, "normal-jeffreys")}}),
    "test": _Subcommand(
        cmd_test, "point-null and one-sided Bayesian tests",
        ("--x", "--sigma", "--sigma-sq", "--tau", "--tau-sq", "--rho", "--theta0", "--slab",
         "--quadrature", "--sweep-tau", "--sweep-csv", *_COMMON_FLAGS),
        one_of=("--point-null", "--point-null-improper", "--one-sided")),
    "regress": _Subcommand(
        cmd_regress, "g-prior regression variable-selection report",
        ("--data-file", "--response", "--g", "--no-intercept", "--report-csv", *_COMMON_FLAGS),
        {"--data-file": {"required": True, "help": "CSV with header row"}}),
    "predict": _Subcommand(
        cmd_predict, "posterior predictive for the normal model",
        (*_NIG_PRIOR_FLAGS, *_STATS_SOURCES, *_GRID_FLAGS, *_COMMON_FLAGS)),
    "outliers": _Subcommand(
        cmd_outliers, "leave-one-out predictive outlier detection",
        ("--alpha", "--data", "--data-file", "--column", "--report-csv", *_COMMON_FLAGS),
        {"--alpha": {"default": 0.95,
                     "help": "nominal level; familywise false-flag rate is 1-alpha "
                             "(default 0.95)"}}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared after it.

    Parsing leaves the tree unchanged, and help and usage text read $COLUMNS
    when they are formatted, so one tree serves every `main` call.
    """
    parser = argparse.ArgumentParser(
        prog="bayesdesk",
        description="Bayesian estimation, credible regions, testing, regression, "
                    "prediction, and outlier detection from the command line.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=spec.help)
        if spec.one_of:
            mode = sub.add_mutually_exclusive_group(required=True)
            for flag in spec.one_of:
                mode.add_argument(flag, **_FLAGS[flag])
        for flag in spec.flags:
            sub.add_argument(flag, **{**_FLAGS[flag], **spec.overrides.get(flag, {})})
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_preprocess_argv(list(argv)))
    try:
        payload, table = _SUBCOMMANDS[args.command].run(args)
        _emit(args, payload, table)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
