"""weylkit: an exact-by-construction toolkit for the Weyl correspondence.

Discrete phase-space transforms on finite grids, an exact symbolic layer for
the star product and the Groenewold-Moyal bracket, a lift from polynomial
symbols to phase-space differential generators with a factorization back to
configuration-space operators, kernel-function machinery for the
two-point-function route, and worked symmetry-group examples.

Each module's ``__all__`` states its public names; the package exports them
all, module by module in import order.
"""

from __future__ import annotations

import sys as _sys

__version__ = "0.1.0"

from .rational import *
from .symbols import *
from .diffops import *
from .lift import *
from .grids import *
from .wigner import *
from .star import *
from .factorize import *
from .groups import *
from ._exclusions import *
from .checks import *

# by name: the star import of .star rebinds ``star`` to the function
__all__ = ["__version__"] + [
    name
    for module in ("rational", "symbols", "diffops", "lift", "grids", "wigner",
                   "star", "factorize", "groups", "_exclusions", "checks")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
