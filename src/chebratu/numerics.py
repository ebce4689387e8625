"""Dense linear-algebra kernels: LU solves and general eigendecompositions.

Thin, contract-enforcing wrappers over LAPACK (via numpy/scipy): partial
pivoting with an explicit near-singularity check for the Newton inner
solves, and a deterministically sorted and normalized eigendecomposition
for the stability verdicts and the linear eigenproblem.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidArgumentError, NumericalFailureError, SingularMatrixError

__all__ = ["EigenResult", "lu_solve", "eig_general"]

# pivots below this multiple of the matrix norm are treated as zero
_PIVOT_RTOL = 1e-14


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
