"""Local limits of bounded-degree simplicial complexes.

Tools for rooted simplicial complexes: canonical codes and the local
(ball-comparison) metric, Hodge Laplacian spectra with exact Betti numbers,
uniform rootings and mass-transport checks, moment estimators, and the
generator families used in convergence experiments.

Each module's ``__all__`` is its public API; the package re-exports
exactly those names.
"""

# importing a submodule binds its name here, so __all__ can read its list
from .complexes import *
from .encoding import *
from .errors import *
from .estimators import *
from .formats import *
from .generators import *
from .measures import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [
    *complexes.__all__,
    *encoding.__all__,
    *errors.__all__,
    *estimators.__all__,
    *formats.__all__,
    *generators.__all__,
    *measures.__all__,
    *spectral.__all__,
    "__version__",
]
