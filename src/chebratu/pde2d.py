"""The two-dimensional problem on the square ``[-L, L]^2``.

Steady states of ``Lap(u) + lam * f(u) = 0`` with homogeneous Dirichlet
conditions, discretized by tensor-product Chebyshev collocation: the
interior second-derivative block ``D2`` of each axis enters the discrete
Laplacian through the Kronecker sum ``kron(I, D2) + kron(D2, I)``.

Unknowns are ordered with the x-index fastest: the interior field matrix
``U[iy, ix]`` corresponds to the vector entry ``k = iy * M + ix`` (its
row-major flattening), which makes ``d2/dx2 = kron(I, D2)`` and
``d2/dy2 = kron(D2, I)``.

Initial guesses: the ground-state eigenfunction of the Dirichlet
Laplacian targets the small branch; the lowest polynomial basis function
``A (1 - x^2)(1 - y^2)`` targets the big branch, and its one-point
weighted-residual estimate ``lam ~ 3.2 A exp(-0.64 A)`` (Boyd, 1986)
sketches the bifurcation diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import Grid1D, barycentric_resample_2d, second_diff_matrix
from .errors import InvalidArgumentError
from .newton import NewtonConfig, NewtonTrace, Nonlinearity, solve_semilinear
from .numerics import EigenResult, eig_general

__all__ = [
    "Operator2D",
    "Field2D",
    "assemble_laplacian",
    "laplacian_eigs",
    "guess_eigenfunction",
    "guess_onepoint",
    "solve_2d",
    "onepoint_lambda",
]


@dataclass(frozen=True)
class Operator2D:
    """Discrete Dirichlet Laplacian on the interior tensor grid.

    ``matrix`` is dense ``M^2 x M^2`` with ``M = n - 1`` interior points
    per axis, acting on vectors ordered x-fastest (``k = iy * M + ix``).
    """

    grid: Grid1D
    matrix: np.ndarray


@dataclass(frozen=True)
class Field2D:
    """Values on the interior tensor grid, with vector/matrix views.

    ``interior[iy, ix]`` holds the value at ``(x_ix, y_iy)``; ``lam`` and
    ``trace`` are set on solver output and ``None`` on initial guesses.
    """

    grid: Grid1D
    interior: np.ndarray
    lam: float | None = None
    trace: NewtonTrace | None = None

    @classmethod
    def from_vector(cls, grid: Grid1D, vec, lam=None, trace=None) -> "Field2D":
        m = grid.n - 1
        v = np.asarray(vec, dtype=float)
        if v.shape != (m * m,):
            raise InvalidArgumentError(
                f"expected an interior vector of length {m * m}, got shape {v.shape}"
            )
        return cls(grid=grid, interior=v.reshape(m, m), lam=lam, trace=trace)

    def as_vector(self) -> np.ndarray:
        """Row-major flattening (x-index fastest)."""
        return self.interior.reshape(-1)

    def embed(self) -> np.ndarray:
        """Full ``(n+1) x (n+1)`` grid values with exact zero boundary."""
        full = np.zeros((self.grid.n + 1, self.grid.n + 1))
        full[1:-1, 1:-1] = self.interior
        return full

    @property
    def u_max(self) -> float:
        return float(self.embed().max())

    def center_value(self) -> float:
        """Interpolated value at the center of the square."""
        return float(
            barycentric_resample_2d(self.grid, self.embed(), [0.0], [0.0])[0, 0]
        )


def assemble_laplacian(grid: Grid1D) -> Operator2D:
    """Kronecker-sum Laplacian ``kron(I, D2) + kron(D2, I)``."""
    if grid.n < 3:
        raise InvalidArgumentError("2D assembly needs grid order >= 3")
    d2 = second_diff_matrix(grid).interior
    eye = np.eye(grid.n - 1)
    return Operator2D(grid=grid, matrix=np.kron(eye, d2) + np.kron(d2, eye))


def laplacian_eigs(grid: Grid1D, k: int) -> EigenResult:
    """First ``k`` eigenpairs of ``-Lap``, sorted ascending."""
    op = assemble_laplacian(grid)
    m2 = op.matrix.shape[0]
    if not 1 <= k <= m2:
        raise InvalidArgumentError(f"eigenpair count must be in [1, {m2}], got {k}")
    full = eig_general(-op.matrix, want_vectors=True)
    return EigenResult(values=full.values[:k], vectors=full.vectors[:, :k])


def guess_eigenfunction(grid: Grid1D, amplitude: float = 0.1) -> Field2D:
    """Ground state of the Dirichlet Laplacian, scaled to ``amplitude``.

    The first eigenvector is sign-normalized positive in the interior and
    rescaled so its maximum equals ``amplitude`` exactly.
    """
    if not np.isfinite(amplitude) or amplitude <= 0.0:
        raise InvalidArgumentError("guess amplitude must be positive")
    eig = laplacian_eigs(grid, 1)
    vec = eig.vectors[:, 0]
    v = np.real(vec)
    if np.max(np.abs(np.imag(vec))) > 1e-10 * np.max(np.abs(v)):
        raise InvalidArgumentError("ground state is unexpectedly complex")
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    v = v * (amplitude / v.max())
    return Field2D.from_vector(grid, v)


def guess_onepoint(grid: Grid1D, amplitude: float) -> Field2D:
    """Lowest basis function ``A (1 - (x/L)^2)(1 - (y/L)^2)`` on the interior.

    Built as an outer product of the 1D factor with itself so the sampled
    field carries the square's symmetries exactly in floating point.
    """
    xi = grid.points[1:-1] / grid.half_width
    factor = 1.0 - xi**2
    return Field2D(grid=grid, interior=amplitude * np.outer(factor, factor))


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


def solve_2d(lam: float, nonlinearity: Nonlinearity, grid: Grid1D, guess: Field2D,
             config: NewtonConfig | None = None) -> Field2D:
    """Newton-Kantorovich solution of ``Lap(u) + lam f(u) = 0``.

    :func:`~chebratu.newton.solve_semilinear` on the Kronecker-sum
    Laplacian.  For ``lam`` beyond the fold of the diagram the iteration
    fails and the Newton error propagates with its trace.
    """
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidArgumentError(f"lam must be nonnegative, got {lam!r}")
    if guess.grid.n != grid.n or guess.grid.half_width != grid.half_width:
        raise InvalidArgumentError("guess and solve grids differ")
    op = assemble_laplacian(grid)
    solution, trace = solve_semilinear(op.matrix, lam, nonlinearity, guess.as_vector(), config)
    return Field2D.from_vector(grid, solution, lam=float(lam), trace=trace)
