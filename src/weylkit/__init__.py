"""weylkit: an exact-by-construction toolkit for the Weyl correspondence.

Discrete phase-space transforms on finite grids, an exact symbolic layer for
the star product and the Groenewold-Moyal bracket, a lift from polynomial
symbols to phase-space differential generators with a factorization back to
configuration-space operators, kernel-function machinery for the
two-point-function route, and worked symmetry-group examples.

Each module's ``__all__`` states its public names; the package exports them
all, module by module in the order of ``_MODULES``.  ``import weylkit``
loads none of the modules: the first use of a name imports them in that
order until one lists it, and the name is then kept in the package
namespace, so a request loads only the layer it uses.  Reading ``__all__``,
as ``from weylkit import *`` does, loads every module.
"""

from __future__ import annotations

import importlib as _importlib
import os as _os
import sys as _sys
import types as _types

# numpy's OpenBLAS reads its environment once, at load, and by default an idle
# worker busy-waits 2**28 cycles (~0.1 s of CPU) then and after each threaded
# product, which every CLI request, a fresh process, pays.  2**4 cycles, the
# minimum, lets idle workers sleep at once; the thread count, and so every
# result, is unchanged.  A value the user set wins; once numpy is loaded the
# variable would reach only child processes, so it is left alone.
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"

_MODULES = ("rational", "symbols", "diffops", "lift", "grids", "wigner",
            "star", "factorize", "groups", "_exclusions", "checks")


def _module(name: str):
    return _importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _MODULES:  # importing a submodule binds it here
        _module(name)
        return globals()[name]
    if name == "__all__":
        value = ["__version__"] + [n for m in _MODULES for n in _module(m).__all__]
    else:
        owner = next((m for m in map(_module, _MODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


class _Package(_types.ModuleType):
    def __setattr__(self, name, value):
        # the ``star`` submodule is bound here on import; the name is its function's
        if name == "star" and isinstance(value, _types.ModuleType):
            value = value.star
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
