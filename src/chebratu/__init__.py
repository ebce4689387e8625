"""Chebyshev spectral collocation solvers for Bratu-type boundary value
problems: closed-form 1D bifurcation curves and folds, dual-branch
Newton-Kantorovich solutions in 1D and 2D, linear-stability verdicts, and
spectral-accuracy diagnostics.

Each layer module's ``__all__`` is the one list of its public names; the
package exports all of them, and the ``errors`` module.
"""

from .chebyshev import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .newton import *  # noqa: F401,F403
from .bratu1d import *  # noqa: F401,F403
from .pde2d import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from . import bratu1d, chebyshev, diagnostics, errors, newton, numerics, pde2d

__version__ = "0.1.0"

__all__ = [
    *chebyshev.__all__, *numerics.__all__, *newton.__all__,
    *bratu1d.__all__, *pde2d.__all__, *diagnostics.__all__,
    "errors",
]
