"""Linear-algebra kernels: LU and GMRES solves, general eigendecompositions.

Thin, contract-enforcing wrappers over LAPACK (via numpy/scipy): partial
pivoting with an explicit near-singularity check for the dense Newton
inner solves, a preconditioned GMRES for the matrix-free ones, and a
deterministically sorted and normalized eigendecomposition for the
stability verdicts and the fast diagonalization of the 2D Laplacian.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


@dataclass(frozen=True)
class EigenResult:
    """Eigendecomposition with a deterministic ordering.

    Attributes
    ----------
    values : ndarray of complex
        All eigenvalues, sorted by ascending real part (ties by ascending
        imaginary part).
    vectors : ndarray or None
        Right eigenvectors, column ``k`` paired with ``values[k]``,
        normalized to unit sup-norm with the first significant component
        rotated to the positive real axis.
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
    norm = np.max(np.sum(np.abs(A), axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    if np.min(np.abs(np.diag(lu))) <= _PIVOT_RTOL * norm:
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot <= {_PIVOT_RTOL} * ||A||)"
        )
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


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
        y = scipy.linalg.solve_triangular(h[:j + 1, :j + 1], g[:j + 1], check_finite=False)
        x = x + precondition(y @ q[:j + 1])
        r = b - apply(x)
        if (abs(g[j + 1]) <= _GMRES_RTOL * bnorm
                and np.linalg.norm(r) <= _GMRES_CHECK_RTOL * bnorm):
            break
    return x, done


def _normalize_vectors(vectors: np.ndarray) -> np.ndarray:
    """Unit sup-norm columns, first significant component made real positive."""
    out = np.array(vectors, dtype=complex, copy=True)
    for k in range(out.shape[1]):
        v = out[:, k]
        v /= np.abs(v).max()
        mags = np.abs(v)
        lead = int(np.argmax(mags > 1e-12 * mags.max()))
        phase = v[lead] / abs(v[lead])
        out[:, k] = v / phase
    return out


def eig_general(a, want_vectors: bool = True) -> EigenResult:
    """All eigenvalues (and optionally right eigenvectors) of a real matrix.

    Eigenvalues are sorted by ascending real part so that the smallest
    one is well-defined even when complex pairs occur; vectors are
    normalized deterministically (see :class:`EigenResult`).

    Raises
    ------
    NumericalFailureError
        If the underlying QR iteration fails to converge.
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
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    if vectors is not None:
        vectors = _normalize_vectors(vectors[:, order])
    return EigenResult(values=values, vectors=vectors)
