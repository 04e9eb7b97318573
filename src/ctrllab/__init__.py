"""Controllability laboratory for random linear systems.

Exact and floating-point single-input controllability deciders for symmetric
matrices, samplers for the standard random matrix and vector ensembles,
numerical verifiers for the spectral facts behind high-probability
controllability, an exhaustive sparsest-input solver, and a reproducible
Monte Carlo harness.

Each module's ``__all__`` is the one list of its public names; the package
re-exports every one of them.
"""

from . import ensembles, exact, harness, minctrl, seeding, spectral
from ._version import __version__
from .ensembles import *  # noqa: F403
from .exact import *  # noqa: F403
from .harness import *  # noqa: F403
from .minctrl import *  # noqa: F403
from .seeding import *  # noqa: F403
from .spectral import *  # noqa: F403

__all__ = ["__version__", *ensembles.__all__, *exact.__all__, *harness.__all__,
           *minctrl.__all__, *seeding.__all__, *spectral.__all__]
