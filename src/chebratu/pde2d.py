"""The two-dimensional problem on the square ``[-L, L]^2``.

Steady states of ``Lap(u) + lam * f(u) = 0`` with homogeneous Dirichlet
conditions, discretized by tensor-product Chebyshev collocation: with the
interior second-derivative block ``D2`` of each axis, the discrete
Laplacian of the interior field ``U`` is ``D2 U + U D2^T``.  It is applied
in that separable form and never assembled as an ``M^2 x M^2`` matrix.

Unknowns are ordered with the x-index fastest: the interior field matrix
``U[iy, ix]`` corresponds to the vector entry ``k = iy * M + ix`` (its
row-major flattening), so ``d2/dx2`` is ``U D2^T`` and ``d2/dy2`` is
``D2 U``.

Fast diagonalization (Lynch, Rice & Thomas, 1964; Haidvogel & Zang,
1979): one eigendecomposition ``D2 = V diag(w) V^-1`` of size ``M = n - 1``
gives the whole Dirichlet spectrum, ``-(w_i + w_j)`` with eigenvectors
``outer(V[:, i], V[:, j])``, and solves ``(Lap + c I) U = R`` exactly as
``U = V [(V^-1 R V^-T) / (w_i + w_j + c)] V^T``.  Newton steps solve
``Lap + diag(lam f'(u))`` by GMRES preconditioned with that solve, ``c``
being the mean of the diagonal.

A 2D solve is the fast-diagonalized case of the shared
:func:`~chebratu.newton.solve_semilinear`, started from the shared
:func:`~chebratu.newton.initial_guess` and returned as a
:class:`~chebratu.newton.Solution`.  Its ``"eigenfunction"`` guess, the
ground state of the Dirichlet Laplacian, takes ``outer(V[:, 0], V[:, 0])``
from the same eigendecomposition and targets the small branch; the lowest
polynomial basis function ``A (1 - x^2)(1 - y^2)`` targets the big branch,
and its one-point weighted-residual estimate ``lam ~ 3.2 A exp(-0.64 A)``
(Boyd, 1986) sketches the bifurcation diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import Grid1D, second_diff_matrix
from .errors import InvalidArgumentError
from .newton import NewtonConfig, Nonlinearity, Solution, initial_guess, solve_semilinear
from .numerics import EigenResult, eig_general, gmres

__all__ = [
    "TensorLaplacian",
    "tensor_laplacian",
    "laplacian_eigs",
    "solve_2d",
    "onepoint_lambda",
]


@dataclass(frozen=True)
class TensorLaplacian:
    """The 2D Dirichlet Laplacian on the interior grid, matrix-free.

    ``d2`` is the ``M x M`` interior second-derivative block and
    ``D2 = vectors diag(values) inverse`` its eigendecomposition, with
    ``values`` descending (the ground state first) and the columns of
    ``vectors`` of unit sup-norm.  Methods take and return interior
    vectors of length ``M^2``, ordered x-fastest.
    """

    d2: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray

    def apply(self, u) -> np.ndarray:
        """``Lap u``, as ``D2 U + U D2^T``."""
        U = np.reshape(u, self.d2.shape)
        return (self.d2 @ U + U @ self.d2.T).reshape(-1)

    def shifted_inverse(self, c: float, r) -> np.ndarray:
        """``(Lap + c I)^-1 r`` by fast diagonalization."""
        hat = self.inverse @ np.reshape(r, self.d2.shape) @ self.inverse.T
        hat /= self.values[:, None] + self.values[None, :] + c
        return (self.vectors @ hat @ self.vectors.T).reshape(-1)

    def solve_shifted(self, d, b):
        """Solve ``(Lap + diag(d)) x = b`` by GMRES, preconditioned with
        ``(Lap + mean(d) I)^-1``; returns ``(x, gmres_iterations)``."""
        c = float(np.mean(d))
        return gmres(lambda x: self.apply(x) + d * x, b,
                     lambda r: self.shifted_inverse(c, r))


def tensor_laplacian(grid: Grid1D) -> TensorLaplacian:
    """The fast-diagonalized 2D Laplacian of ``grid``.

    Raises
    ------
    NumericalFailureError
        From :func:`~chebratu.numerics.eig_general`, if the computed
        spectrum of ``D2`` is not real (it is real and negative for
        Chebyshev collocation).
    """
    if grid.n < 3:
        raise InvalidArgumentError("2D Laplacian needs grid order >= 3")
    d2 = second_diff_matrix(grid).interior
    eig = eig_general(d2)
    vectors = eig.vectors[:, ::-1]
    return TensorLaplacian(d2=d2, values=eig.values[::-1], vectors=vectors,
                           inverse=np.linalg.inv(vectors))


def laplacian_eigs(grid: Grid1D, k: int) -> EigenResult:
    """First ``k`` eigenpairs of ``-Lap``, sorted ascending.

    Eigenvalue ``-(w_i + w_j)`` pairs with the field ``outer(V[:, i],
    V[:, j])`` (``i`` along y), flattened x-fastest; ties keep ``(i, j)``
    order.  Both factors have unit sup-norm and a positive first
    significant entry (:func:`~chebratu.numerics.eig_general`), so the
    field has them too.
    """
    m = grid.n - 1
    if not 1 <= k <= m * m:
        raise InvalidArgumentError(f"eigenpair count must be in [1, {m * m}], got {k}")
    lap = tensor_laplacian(grid)
    sums = -(lap.values[:, None] + lap.values[None, :]).reshape(-1)
    order = np.argsort(sums, kind="stable")[:k]
    iy, ix = np.divmod(order, m)
    vectors = np.einsum("ak,bk->abk", lap.vectors[:, iy], lap.vectors[:, ix]).reshape(m * m, k)
    return EigenResult(values=sums[order], vectors=vectors)


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


def solve_2d(lam: float, nonlinearity: Nonlinearity, grid: Grid1D, guess,
             amplitude: float | None = None,
             config: NewtonConfig | None = None) -> Solution:
    """Newton-Kantorovich solution of ``Lap(u) + lam f(u) = 0``.

    :func:`~chebratu.newton.solve_semilinear` on the
    :func:`tensor_laplacian`, each Newton step a preconditioned GMRES
    solve, from :func:`~chebratu.newton.initial_guess` of ``guess`` and
    ``amplitude`` (``"eigenfunction"``, ``"onepoint"``, ``"zero"`` or an
    array of full-grid or interior shape).  The branch label is
    "unknown".  For ``lam`` beyond the fold of the diagram the iteration
    fails (a GMRES solve that stalls reports a singular Jacobian) and the
    Newton error propagates with its trace.
    """
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidArgumentError(f"lam must be nonnegative, got {lam!r}")
    operator = tensor_laplacian(grid)
    u0 = initial_guess(grid, 2, guess, amplitude, operator.vectors[:, 0])
    return solve_semilinear(operator, grid, lam, nonlinearity, u0, config)
