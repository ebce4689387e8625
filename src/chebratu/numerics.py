"""Linear-algebra kernels: LU and GMRES solves, real eigendecompositions.

Thin, contract-enforcing wrappers over LAPACK: partial pivoting with an
explicit near-singularity check for the dense Newton inner solves (SciPy's
LU, imported on the first call, so a process that never calls it never
loads SciPy), a preconditioned GMRES for the matrix-free ones, and a
deterministically sorted and normalized eigendecomposition for the
stability verdicts and the fast diagonalization of the 2D Laplacian.
Both of those spectra are real (the Dirichlet Chebyshev ``D2`` has real,
negative, distinct eigenvalues; Gottlieb & Lustman, 1983), so the
eigendecomposition is real and treats a complex spectrum as a failure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError, SingularMatrixError

__all__ = ["EigenResult", "lu_solve", "gmres", "eig_general"]

# pivots below this multiple of the matrix norm are treated as zero
_PIVOT_RTOL = 1e-14
# GMRES stops when its residual estimate is below _GMRES_RTOL * ||b||_2 and
# the recomputed residual b - A x below _GMRES_CHECK_RTOL * ||b||_2: the
# recomputation carries rounding of order eps ||A|| ||x||, which at n = 64
# is already about 5e-14 ||b|| for the 2D Laplacian.  It restarts after
# _GMRES_RESTART steps and declares the operator singular after _GMRES_MAXITER.
_GMRES_RTOL = 1e-13
_GMRES_CHECK_RTOL = 1e-10
_GMRES_RESTART = 40
_GMRES_MAXITER = 200
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


def lu_solve(a, b) -> np.ndarray:
    """Solve ``A x = b`` by LU factorization with partial pivoting.

    Raises
    ------
    SingularMatrixError
        If any pivot falls below ``1e-14 * ||A||_inf``.
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
    import scipy.linalg

    norm = np.max(np.sum(np.abs(A), axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    if np.min(np.abs(np.diag(lu))) <= _PIVOT_RTOL * norm:
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot <= {_PIVOT_RTOL} * ||A||)"
        )
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def _back_substitute(r, g) -> np.ndarray:
    """Solve ``R y = g`` for upper-triangular ``R`` with nonzero diagonal,
    row by row from the last; the tests check it against
    ``scipy.linalg.solve_triangular`` bit for bit."""
    y = np.empty(len(g))
    for i in range(len(g) - 1, -1, -1):
        y[i] = (g[i] - r[i, i + 1:] @ y[i + 1:]) / r[i, i]
    return y


@np.errstate(over="ignore", invalid="ignore")
def gmres(apply, b, precondition):
    """Solve ``A x = b`` by right-preconditioned restarted GMRES.

    ``apply(v)`` returns ``A v`` and ``precondition(v)`` returns ``M^-1 v``
    for an approximate inverse ``M^-1`` of ``A``.  Each cycle of at most
    ``_GMRES_RESTART`` steps minimizes the true residual ``||b - A x||_2``
    over the Krylov space of ``A M^-1`` (classical Gram-Schmidt, applied
    twice, and Givens rotations); a cycle ends once the residual estimate
    falls below ``_GMRES_RTOL * ||b||_2``, and the solve ends when the
    recomputed residual confirms it.  Returns ``(x, iterations)``, the
    iteration count summed over cycles; ``x = 0`` with no iterations for
    ``b = 0``.

    Raises
    ------
    SingularMatrixError
        If the solve has not ended within ``_GMRES_MAXITER`` iterations,
        if the Krylov space closes without containing the solution, or if
        a product becomes non-finite.
    InvalidArgumentError
        If ``b`` has non-finite entries.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    bnorm = np.linalg.norm(b)
    if not np.isfinite(bnorm):
        raise InvalidArgumentError("right-hand side entries must be finite")
    r, done = b, 0
    while bnorm > 0.0:
        beta = np.linalg.norm(r)
        if done >= _GMRES_MAXITER or not np.isfinite(beta):
            raise SingularMatrixError(
                f"matrix is singular to working precision (GMRES residual above "
                f"{_GMRES_RTOL} * ||b|| after {done} iterations)"
            )
        q = np.empty((_GMRES_RESTART + 1, b.size))
        h = np.zeros((_GMRES_RESTART + 1, _GMRES_RESTART))
        rot = np.zeros((_GMRES_RESTART, 2))
        g = np.zeros(_GMRES_RESTART + 1)
        q[0], g[0] = r / beta, beta
        for j in range(min(_GMRES_RESTART, _GMRES_MAXITER - done)):
            w = apply(precondition(q[j]))
            for _ in range(2):
                c = q[:j + 1] @ w
                w = w - c @ q[:j + 1]
                h[:j + 1, j] += c
            h[j + 1, j] = np.linalg.norm(w)
            for i, (cs, sn) in enumerate(rot[:j]):
                a, e = h[i, j], h[i + 1, j]
                h[i, j], h[i + 1, j] = cs * a + sn * e, cs * e - sn * a
            rho = np.hypot(h[j, j], h[j + 1, j])
            if not (np.isfinite(rho) and rho > 0.0):
                raise SingularMatrixError(
                    "matrix is singular to working precision (GMRES breakdown)"
                )
            rot[j] = h[j, j] / rho, h[j + 1, j] / rho
            h[j, j], g[j + 1], g[j] = rho, -rot[j, 1] * g[j], rot[j, 0] * g[j]
            done += 1
            if abs(g[j + 1]) <= _GMRES_RTOL * bnorm:
                break
            q[j + 1] = w / h[j + 1, j]
        y = _back_substitute(h[:j + 1, :j + 1], g[:j + 1])
        x = x + precondition(y @ q[:j + 1])
        r = b - apply(x)
        if (abs(g[j + 1]) <= _GMRES_RTOL * bnorm
                and np.linalg.norm(r) <= _GMRES_CHECK_RTOL * bnorm):
            break
    return x, done


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
