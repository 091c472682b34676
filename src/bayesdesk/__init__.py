"""bayesdesk: a small Bayesian inference engine with a batch CLI.

Conjugate posterior updates, highest-posterior-density regions, point-null
Bayes-factor testing, Zellner g-prior regression variable selection,
posterior predictive distributions, and leave-one-out outlier detection.

The root API is the union of the layer modules' ``__all__`` lists: a name
becomes public by being listed in its layer module's ``__all__``.
"""

from . import conjugate, distributions, errors, hpd, predictive, regression, testing
from .conjugate import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .hpd import *  # noqa: F401,F403
from .predictive import *  # noqa: F401,F403
from .regression import *  # noqa: F401,F403
from .testing import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *distributions.__all__, *conjugate.__all__,
           *hpd.__all__, *testing.__all__, *regression.__all__, *predictive.__all__]
