"""Exception taxonomy.

Argument/validation problems raise plain ``ValueError``; failures of the
mathematics itself (improper posteriors, banned improper priors, rank
deficiency, unreachable coverage) raise ``NumericalError`` subclasses so the
CLI can map them to a distinct exit code.
"""

__all__ = [
    "NumericalError",
    "ImproperPosteriorError",
    "ImproperPriorError",
    "RankDeficiencyError",
    "CoverageError",
]


class NumericalError(RuntimeError):
    """A computation cannot produce a proper, finite result."""


class ImproperPosteriorError(NumericalError):
    """The posterior implied by the inputs is not a proper distribution."""


class ImproperPriorError(NumericalError):
    """An improper prior was supplied where testing requires a proper one."""


class RankDeficiencyError(NumericalError):
    """A design matrix is rank deficient beyond the conditioning threshold."""


class CoverageError(NumericalError):
    """A credible region cannot be resolved on the supplied grid."""
