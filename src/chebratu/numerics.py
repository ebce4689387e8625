"""Linear-algebra kernels: QR and GMRES solves, real eigendecompositions.

Thin, contract-enforcing wrappers over LAPACK, through NumPy alone: a
Householder QR with an explicit near-singularity check for the dense
Newton inner solves, a preconditioned GMRES of one cycle, with no
restart, for the matrix-free ones (its least-squares step is LAPACK's,
as the QR solve's is), and a deterministically sorted and normalized
eigendecomposition for the stability verdicts and the fast
diagonalization of the 2D Laplacian.
Both of those spectra are real (the Dirichlet Chebyshev ``D2`` has real,
negative, distinct eigenvalues; Gottlieb & Lustman, 1983), so the
eigendecomposition is real and treats a complex spectrum as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError, SingularMatrixError

__all__ = ["EigenResult", "qr_solve", "gmres", "eig_general"]

# pivots (diagonal entries of R) below this multiple of the matrix norm are
# treated as zero
_PIVOT_RTOL = 1e-14
# GMRES stops when its residual estimate is below _GMRES_RTOL * ||b||_2 and
# the recomputed residual b - A x below _GMRES_CHECK_RTOL * ||b||_2: the
# recomputation carries rounding of order eps ||A|| ||x||, which at n = 64
# is already about 5e-14 ||b|| for the 2D Laplacian.  It declares the
# operator singular when one cycle of _GMRES_MAXITER steps misses either.
_GMRES_RTOL = 1e-13
_GMRES_CHECK_RTOL = 1e-10
_GMRES_MAXITER = 40
# a spectrum counts as real when no imaginary part exceeds this multiple of
# the largest real part
_IMAG_RTOL = 1e-10


@dataclass(frozen=True)
class EigenResult:
    """Real eigendecomposition with a deterministic ordering.

    Attributes
    ----------
    values : ndarray of float
        All eigenvalues, ascending (ties keep LAPACK's order).
    vectors : ndarray of float or None
        Right eigenvectors, column ``k`` paired with ``values[k]``,
        normalized to unit sup-norm with the first significant component
        positive.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None


def _as_square(a) -> np.ndarray:
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise InvalidArgumentError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidArgumentError("matrix entries must be finite")
    return A


def qr_solve(a, b) -> np.ndarray:
    """Solve ``A x = b`` by Householder QR, ``x = R^-1 Q^T b``.

    Raises
    ------
    SingularMatrixError
        If any pivot, a diagonal entry of ``R``, falls below ``1e-14 * ||A||_inf``.
    InvalidArgumentError
        On shape mismatch or non-finite entries.
    """
    A = _as_square(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape != (A.shape[0],):
        raise InvalidArgumentError(
            f"right-hand side has shape {rhs.shape}, expected ({A.shape[0]},)"
        )
    if not np.all(np.isfinite(rhs)):
        raise InvalidArgumentError("right-hand side entries must be finite")
    norm = np.max(np.sum(np.abs(A), axis=1))
    q, r = np.linalg.qr(A)
    if np.min(np.abs(np.diag(r))) <= _PIVOT_RTOL * norm:
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot <= {_PIVOT_RTOL} * ||A||)"
        )
    return np.linalg.solve(r, q.T @ rhs)


@np.errstate(over="ignore", invalid="ignore")
def gmres(apply, b, precondition):
    """Solve ``A x = b`` by right-preconditioned GMRES, one cycle from ``x = 0``.

    ``apply(v)`` returns ``A v`` and ``precondition(v)`` returns ``M^-1 v``
    for an approximate inverse ``M^-1`` of ``A``.  The cycle of at most
    ``_GMRES_MAXITER`` steps minimizes the true residual ``||b - A x||_2``
    over the Krylov space of ``A M^-1`` (classical Gram-Schmidt, applied
    twice, Givens rotations, and ``np.linalg.solve`` for the triangular
    system they leave); it ends once the residual estimate falls below
    ``_GMRES_RTOL * ||b||_2``, and the recomputed residual, one more
    product, must confirm it.  There is no restart: a regular Newton
    Jacobian converges well inside one cycle.  Returns ``(x, iterations)``;
    ``x = 0`` with no iterations for ``b = 0``.

    Raises
    ------
    SingularMatrixError
        If the cycle ends with either residual above its bound, if the
        Krylov space closes without containing the solution, or if
        ``||b||_2`` or a product becomes non-finite.
    InvalidArgumentError
        If ``b`` has non-finite entries.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise InvalidArgumentError("right-hand side entries must be finite")
    bnorm = math.sqrt(b @ b)
    if not math.isfinite(bnorm):
        raise SingularMatrixError("GMRES cannot scale a right-hand side whose 2-norm overflows")
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    q = np.empty((_GMRES_MAXITER + 1, b.size))
    # the rotated Hessenberg matrix, upper triangular; the rotations and the
    # rotated right-hand side g are Python floats
    h = np.zeros((_GMRES_MAXITER, _GMRES_MAXITER))
    rot, g = [], [bnorm]
    q[0] = b / bnorm
    for j in range(_GMRES_MAXITER):
        w = apply(precondition(q[j]))
        column = np.zeros(j + 1)
        for _ in range(2):
            c = q[:j + 1] @ w
            w = w - c @ q[:j + 1]
            column += c
        wnorm = math.sqrt(w @ w)
        column = column.tolist() + [wnorm]
        for i, (cs, sn) in enumerate(rot):
            a, e = column[i], column[i + 1]
            column[i], column[i + 1] = cs * a + sn * e, cs * e - sn * a
        rho = float(np.hypot(column[j], column[j + 1]))
        if not (math.isfinite(rho) and rho > 0.0):
            raise SingularMatrixError(
                "matrix is singular to working precision (GMRES breakdown)"
            )
        cs, sn = column[j] / rho, column[j + 1] / rho
        rot.append((cs, sn))
        column[j] = rho
        h[:j + 1, j] = column[:j + 1]
        g[j:] = cs * g[j], -sn * g[j]
        if abs(g[j + 1]) <= _GMRES_RTOL * bnorm:
            break
        q[j + 1] = w / wnorm
    y = np.linalg.solve(h[:j + 1, :j + 1], g[:j + 1])
    x = precondition(y @ q[:j + 1])
    r = b - apply(x)
    if not (abs(g[j + 1]) <= _GMRES_RTOL * bnorm
            and math.sqrt(r @ r) <= _GMRES_CHECK_RTOL * bnorm):
        raise SingularMatrixError(
            f"matrix is singular to working precision (GMRES residual above "
            f"{_GMRES_RTOL} * ||b|| after {j + 1} iterations)"
        )
    return x, j + 1


def eig_general(a, want_vectors: bool = True) -> EigenResult:
    """All eigenvalues (and optionally right eigenvectors) of a real matrix
    with a real spectrum.

    Eigenvalues are sorted ascending; vectors are normalized
    deterministically (see :class:`EigenResult`).

    Raises
    ------
    NumericalFailureError
        If the underlying QR iteration fails to converge, or if an
        eigenvalue has an imaginary part above ``1e-10`` times the largest
        real part.
    """
    A = _as_square(a)
    try:
        if want_vectors:
            values, vectors = np.linalg.eig(A)
        else:
            values = np.linalg.eigvals(A)
            vectors = None
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue iteration failed: {exc}") from exc
    if np.max(np.abs(values.imag)) > _IMAG_RTOL * np.max(np.abs(values.real)):
        raise NumericalFailureError("spectrum is not real")
    order = np.argsort(values.real, kind="stable")
    if vectors is not None:
        vectors = vectors.real[:, order]
        vectors /= np.max(np.abs(vectors), axis=0)
        lead = np.argmax(np.abs(vectors) > 1e-12, axis=0)
        vectors *= np.sign(vectors[lead, np.arange(A.shape[0])])
    return EigenResult(values=values.real[order], vectors=vectors)
