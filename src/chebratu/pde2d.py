"""The two-dimensional problem on the square ``[-L, L]^2``.

Steady states of ``Lap(u) + lam * f(u) = 0`` with homogeneous Dirichlet
conditions, discretized by tensor-product Chebyshev collocation: with the
interior second-derivative block ``D2`` of each axis, the discrete
Laplacian of the interior field ``U[iy, ix]`` is ``D2 U + U D2^T``: the
:class:`~chebratu.newton.Laplacian`, which serves any number of axes,
with two.  A 2D solve is the shared :func:`~chebratu.newton.solve` with
``ndim=2``, each Newton step a GMRES solve preconditioned by the
operator's fast diagonalization, and the Dirichlet spectrum is the
operator's :meth:`~chebratu.newton.Laplacian.eigenpairs`.

This module holds what is 2D-only: the one-point weighted-residual
sketch of the diagram.  The ``"eigenfunction"`` guess, the ground state
of the Dirichlet Laplacian in any number of axes, targets the small
branch; the lowest polynomial basis function ``A (1 - x^2)(1 - y^2)``
targets the big branch, and its one-point estimate ``lam ~ 3.2 A
exp(-0.64 A)`` (Boyd, 1986) sketches the bifurcation diagram.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["onepoint_lambda"]


def onepoint_lambda(amplitude):
    """One-point weighted-residual estimate ``3.2 A exp(-0.64 A)``.

    The peak of this curve, ``5/e`` at ``A = 1.5625``, approximates the
    fold of the 2D diagram.
    """
    A = np.asarray(amplitude, dtype=float)
    if np.any(A < 0.0) or not np.all(np.isfinite(A)):
        raise InvalidArgumentError("amplitude must be nonnegative and finite")
    out = 3.2 * A * np.exp(-0.64 * A)
    return float(out) if np.ndim(amplitude) == 0 else out
