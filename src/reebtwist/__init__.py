"""Numerical toolkit for the Reeb dynamics of a sphere built from an
open book with a left-handed twist: contact-condition checks, closed
orbit families and their degrees, the explicit finite-energy plane and
its energy identity, and the kernel count of the linearized operator.

Submodules load on first attribute access (``reebtwist.lincr``), so
``import reebtwist`` and the static commands of the command line
(``--print-config``, ``--schema``, ``--help``) leave numpy unimported.
No run imports scipy or integrates an ODE: ``reebtwist.numerics`` holds
its root finder and quadrature on numpy alone (and DOP853 for bench/).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "config", "energy", "geometry", "index", "lincr",
               "magnus", "numerics", "orbits", "plane", "profiles")
__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
