"""Zellner g-prior linear regression: marginals, nullity tests, reports.

The model is y ~ Normal(X beta, sigma^2 I) with the conditional prior
beta | sigma ~ Normal(0, g sigma^2 (X'X)^-1) and the scale-invariant
sigma^-2 prior shared by every submodel. Integrating both out gives a
closed-form log marginal; per-coefficient Bayes factors compare the full
design against the design with one column removed. Dropping column j lowers
||Py||^2 by beta_hat_j^2 / [(X'X)^-1]_jj, so one QR of the full design gives
log BF_j = (n/2) log1p(s beta_hat_j^2 / ([(X'X)^-1]_jj Q)) - log1p(g)/2, with
Q = y'y - s ||Py||^2, s = g/(1+g). A BF beyond float range is inf, its log finite.
beta_hat solves R beta = Q'y by back-substitution over the rows of R, and
[(X'X)^-1]_jj is the squared norm of row j of R^-1; both use numpy only. They
gave the same bits as scipy's LAPACK triangular solve on every design tried
(numpy 2.4.6 with scipy-openblas 0.3.31, scipy 1.17.1); that match is
empirical, not guaranteed across numpy, BLAS or CPU changes.

The closed form was validated against an independent numerical-integration
oracle (explicit multivariate-normal marginal density integrated over
sigma^2 by adaptive quadrature) before being trusted here; the test suite
re-runs that comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import ImproperPosteriorError, RankDeficiencyError
from .special import _is_numpy, log_gamma
from .testing import evidence_label

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RegressionData",
    "CoefficientRow",
    "GPriorPosteriorSummary",
    "drop_column",
    "log_marginal_gprior",
    "bf_coefficient_nullity",
    "regression_report",
]

_RCOND_MIN = 1e-12


@dataclass(frozen=True, eq=False)
class RegressionData:
    """Design matrix, response, and column labels for one regression.

    By convention the first column is an all-ones intercept, but any
    full-column-rank design is accepted. Construction fails when the
    reciprocal condition number of X'X drops below 1e-12, since the prior
    covariance involves (X'X)^-1 directly.
    """

    X: np.ndarray
    y: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self) -> None:
        import numpy as np
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "column_names", tuple(str(c) for c in self.column_names))
        if X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        n, p = X.shape
        if y.ndim != 1 or y.size != n:
            raise ValueError(f"y must be a length-{n} vector, got shape {y.shape}")
        if p < 1:
            raise ValueError("X needs at least one column")
        if n <= p:
            raise ValueError(f"need more rows than columns, got n={n}, p={p}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("X and y must be finite")
        if len(self.column_names) != p:
            raise ValueError(f"expected {p} column names, got {len(self.column_names)}")
        if len(set(self.column_names)) != p:
            raise ValueError("column names must be unique")
        s = np.linalg.svd(X, compute_uv=False)
        # rcond of X'X is the squared singular-value ratio of X
        rcond = (s[-1] / s[0]) ** 2 if s[0] > 0 else 0.0
        if not rcond > _RCOND_MIN:
            raise RankDeficiencyError(
                f"X'X is numerically singular (rcond {rcond:.3e} <= {_RCOND_MIN:.0e})")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class CoefficientRow:
    """One report line; bf10/log10_bf10 are None when no submodel exists."""

    name: str
    estimate: float
    bf10: float | None
    log10_bf10: float | None
    label: str


@dataclass(frozen=True)
class GPriorPosteriorSummary:
    g: float
    beta_hat: tuple[float, ...]
    beta_post_mean: tuple[float, ...]
    rows: tuple[CoefficientRow, ...]


def _column_index(data: RegressionData, j: int) -> int:
    """Validate j as the index of a column that can be dropped."""
    if not (isinstance(j, int) or _is_numpy(j, "integer")) or isinstance(j, bool):
        raise ValueError(f"column index must be an integer, got {j!r}")
    if not 0 <= j < data.p:
        raise ValueError(f"column index {j} out of range for p={data.p}")
    if data.p == 1:
        raise ValueError("cannot drop the only column")
    return int(j)


def drop_column(data: RegressionData, j: int) -> RegressionData:
    """New RegressionData with column j removed; revalidates rank."""
    import numpy as np
    j = _column_index(data, j)
    return RegressionData(
        X=np.delete(data.X, j, axis=1),
        y=data.y,
        column_names=data.column_names[:j] + data.column_names[j + 1:],
    )


def _check_g(g: float) -> float:
    g = float(g)
    if not (math.isfinite(g) and g > 0):
        raise ValueError(f"g must be positive, got {g!r}")
    return g


def _residual_quad_form(y: np.ndarray, proj: np.ndarray, shrink: float) -> float:
    """y'y - shrink * ||Q'y||^2; fails when the response is degenerate."""
    quad_form = float(y @ y) - shrink * float(proj @ proj)
    if not quad_form > 0:
        raise ImproperPosteriorError(
            f"degenerate response: residual quadratic form is {quad_form!r}")
    return quad_form


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r x = b for upper-triangular r, last row first."""
    import numpy as np
    x = np.empty(r.shape[0])
    for i in range(r.shape[0] - 1, -1, -1):
        x[i] = (b[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x


def log_marginal_gprior(data: RegressionData, g: float) -> float:
    """Log marginal likelihood of y under the g-prior, sigma integrated out.

    All submodels of the same n share the additive constant, so the value
    is directly comparable across designs on the same response.
    """
    import numpy as np
    g = _check_g(g)
    n = data.n
    q, _ = np.linalg.qr(data.X)
    quad_form = _residual_quad_form(data.y, q.T @ data.y, g / (1.0 + g))
    return (log_gamma(n / 2.0) - (n / 2.0) * math.log(math.pi)
            - (data.p / 2.0) * math.log1p(g) - (n / 2.0) * math.log(quad_form))


def bf_coefficient_nullity(data: RegressionData, j: int, g: float | None = None) -> tuple[float, float]:
    """Bayes factor (bf10, log10_bf10) against dropping column j.

    The null model removes column j and keeps everything else, including
    the shared sigma^-2 prior; g defaults to n. bf10 is inf when the
    evidence is too strong for a float, log10_bf10 stays finite.
    """
    j = _column_index(data, j)
    row = regression_report(data, g).rows[j]
    return row.bf10, row.log10_bf10


def regression_report(data: RegressionData, g: float | None = None) -> GPriorPosteriorSummary:
    """Per-coefficient summary: shrunk estimate, nullity BF, evidence stars.

    The Estimate column is the posterior mean (g/(g+1)) * beta_hat, not raw
    least squares. With a single-column design there is no submodel to
    compare against, so that row carries no Bayes factor.
    """
    import numpy as np
    if g is None:
        g = float(data.n)
    g = _check_g(g)
    q, r = np.linalg.qr(data.X)
    proj = q.T @ data.y
    beta_hat = _back_substitute(r, proj)
    shrink = g / (1.0 + g)
    beta_post = shrink * beta_hat
    if data.p == 1:
        rows = [CoefficientRow(data.column_names[0], float(beta_post[0]), None, None, "")]
    else:
        # [(X'X)^-1]_jj is the squared norm of row j of R^-1; in Fortran order
        # each norm adds its terms left to right instead of pairwise
        quad_form = _residual_quad_form(data.y, proj, shrink)
        inv_diag = np.sum(np.asfortranarray(np.linalg.inv(r)) ** 2, axis=1)
        log_bf = ((data.n / 2.0) * np.log1p(shrink * beta_hat ** 2 / (inv_diag * quad_form))
                  - 0.5 * math.log1p(g))
        with np.errstate(over="ignore"):  # decisive evidence: bf10 is inf, its log finite
            bf10 = np.exp(log_bf)
        log10_bf = log_bf / math.log(10.0)
        rows = [CoefficientRow(name, est, bf, lbf, evidence_label(lbf)) for name, est, bf, lbf
                in zip(data.column_names, beta_post.tolist(), bf10.tolist(), log10_bf.tolist())]
    return GPriorPosteriorSummary(
        g=g,
        beta_hat=tuple(float(b) for b in beta_hat),
        beta_post_mean=tuple(float(b) for b in beta_post),
        rows=tuple(rows),
    )
