"""Radial solver and analysis toolkit for the fractional Gelfand problem.

The package computes with (-Delta)^s u = lam e^u on the unit ball:
closed-form constants and Gamma identities (constants), the boundedness
threshold analyzer (threshold), a dense radial discretization of the
fractional Laplacian with prescribed exterior data (fraclap), peak-continuation
of the solution branch with fold detection and stability analysis (gelfand),
and a deterministic command-line front end (cli).

Each module's ``__all__`` is the one declaration of its public names; this
file re-exports them.
"""

from . import constants, fraclap, gelfand, threshold
from .constants import *  # noqa: F401,F403
from .fraclap import *  # noqa: F401,F403
from .gelfand import *  # noqa: F401,F403
from .threshold import *  # noqa: F401,F403

__version__ = "1.0.0"

__all__ = ["__version__", *constants.__all__, *threshold.__all__,
           *fraclap.__all__, *gelfand.__all__]
