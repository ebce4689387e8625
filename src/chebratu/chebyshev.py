"""Chebyshev-Gauss-Lobatto grids, differentiation matrices and transforms.

This module provides the collocation machinery of the solvers: Lobatto
grids on ``[-L, L]``, first- and second-order differentiation matrices,
forward/inverse Chebyshev coefficient transforms and barycentric
resampling of grid data at arbitrary points.  The transforms and the
resampler act along every axis of their input, so one function serves a
vector and a tensor-grid array of any number of axes alike.

Conventions
-----------
* Grid points are stored in the classical descending order
  ``x_j = L cos(j pi / n)``, from ``+L`` down to ``-L``.
* Differentiation matrices follow Trefethen (2000), *Spectral Methods in
  MATLAB*, chapter 6, with diagonals fixed by the negative-row-sum rule.
* Matrices for half-width ``L`` are the reference ``[-1, 1]`` matrices
  scaled by ``(1/L)**order``, exactly.
* Coefficients are those of the interpolant ``sum_k a_k T_k(x / L)``.

All returned objects are immutable; every function here is pure and safe
to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Grid1D",
    "cheb_points",
    "diff_matrix",
    "second_diff_matrix",
    "cheb_transform",
    "inverse_cheb_transform",
    "barycentric_resample",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid1D:
    """Chebyshev-Gauss-Lobatto grid on ``[-half_width, half_width]``.

    Attributes
    ----------
    n : int
        Polynomial order; the grid has ``n + 1`` points.
    half_width : float
        Half-width ``L`` of the domain.
    points : ndarray, shape (n + 1,)
        Nodes ``L cos(j pi / n)`` in descending order, symmetrized so that
        ``points[j] == -points[n - j]`` exactly and the endpoints are
        exactly ``+L`` and ``-L``.
    """

    n: int
    half_width: float
    points: np.ndarray


def _unit_points(n: int) -> np.ndarray:
    """Lobatto nodes ``cos(j pi / n)`` on ``[-1, 1]``, exactly symmetrized.

    The upper half is mirrored onto the lower half so that
    ``x_j == -x_{n-j}`` holds exactly in floating point, with
    ``x_{n/2} == 0`` exactly for even ``n``; this keeps parity checks and
    center-value lookups free of rounding slack.
    """
    x = np.cos(np.pi * np.arange(n + 1) / n)
    half = n // 2
    x[0] = 1.0
    x[n - half:] = -x[:half + 1][::-1]
    if n % 2 == 0:
        x[half] = 0.0
    return x


def _check_half_width(half_width: float) -> float:
    """``half_width`` as a float, if it is positive and its square and that
    square's reciprocal are finite nonzero floats (the second derivative
    and the closed-form curve divide by the square)."""
    L = float(half_width)
    if not (L > 0.0 and 0.0 < L * L < np.inf and 1.0 / (L * L) < np.inf):
        raise InvalidArgumentError(
            f"half-width must be positive with a finite nonzero square and reciprocal "
            f"square, got {half_width!r}"
        )
    return L


def cheb_points(n: int, half_width: float = 1.0) -> Grid1D:
    """Construct the Chebyshev-Gauss-Lobatto grid of order ``n``.

    Parameters
    ----------
    n : int
        Polynomial order, at least 1; the grid has ``n + 1`` points.
    half_width : float
        Half-width ``L > 0`` of the domain ``[-L, L]``, with ``L**2`` and
        ``1 / L**2`` finite nonzero floats.

    Returns
    -------
    Grid1D
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"grid order must be an integer >= 1, got {n!r}")
    L = _check_half_width(half_width)
    return Grid1D(n=int(n), half_width=L, points=_readonly(L * _unit_points(n)))


def _diff_matrix_reference(n: int) -> np.ndarray:
    """First-derivative matrix on the unit Lobatto grid (Trefethen ch. 6)."""
    x = _unit_points(n)
    c = np.ones(n + 1)
    c[0] = 2.0
    c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    X = np.tile(x[:, None], (1, n + 1))
    D = np.outer(c, 1.0 / c) / (X - X.T + np.eye(n + 1))
    # negative-sum trick: rows of D annihilate constants exactly
    D -= np.diag(D.sum(axis=1))
    return D


def diff_matrix(grid: Grid1D) -> np.ndarray:
    """First-order differentiation matrix for ``grid``, read-only.

    The returned matrix ``D`` maps samples of a function at the grid
    points to samples of the derivative of its degree-``n`` interpolant;
    it is exact for polynomials of degree up to ``n``.  It is built on
    the unit grid and scaled by ``1/L``, so grids of different widths
    share bitwise-identical reference entries.
    """
    D = _diff_matrix_reference(grid.n)
    return _readonly(D / grid.half_width)


def second_diff_matrix(grid: Grid1D) -> np.ndarray:
    """Second-order differentiation matrix, as the square of the first,
    read-only; an entry that overflows (a half-width too small for the
    grid order) raises :class:`~chebratu.errors.InvalidArgumentError`."""
    if grid.n < 2:
        raise InvalidArgumentError("second derivative needs grid order >= 2")
    D = _diff_matrix_reference(grid.n)
    with np.errstate(over="ignore"):
        D2 = (D @ D) / grid.half_width**2
    if not np.all(np.isfinite(D2)):
        raise InvalidArgumentError(
            f"half-width {grid.half_width!r} is too small for grid order {grid.n}: "
            f"the second-derivative matrix overflows"
        )
    return _readonly(D2)


# ---------------------------------------------------------------------------
# Coefficient transforms
#
# With values v_j at the Lobatto nodes x_j = L cos(j pi / n) the
# interpolant is sum_k a_k T_k(x / L) and
#
#     a_k = (d_k / n) [ v_0 + (-1)^k v_n + 2 sum_{j=1}^{n-1} v_j cos(pi j k / n) ]
#
# with d_k = 1/2 for k in {0, n} and 1 otherwise; the bracket is the
# type-I discrete cosine transform, the real FFT of size 2n of the even
# extension (Trefethen 2000, ch. 8).  The tests check it against a direct
# O(n^2) summation to 1e-13.
# ---------------------------------------------------------------------------


def _dct1(v: np.ndarray, axis: int) -> np.ndarray:
    """Type-I DCT along ``axis``: the real FFT of the even extension
    ``v_0, ..., v_n, v_{n-1}, ..., v_1``, built along ``axis`` itself."""
    sl = [slice(None)] * v.ndim
    sl[axis] = slice(-2, 0, -1)
    return np.fft.rfft(np.concatenate([v, v[tuple(sl)]], axis=axis), axis=axis).real


def _forward_1d(values: np.ndarray, axis: int) -> np.ndarray:
    n = values.shape[axis] - 1
    a = _dct1(values, axis) / n
    sl = [slice(None)] * values.ndim
    for end in (0, n):
        sl[axis] = end
        a[tuple(sl)] /= 2.0
    return a


def _inverse_1d(coeffs: np.ndarray, axis: int) -> np.ndarray:
    w = np.array(coeffs, dtype=float, copy=True)
    sl = [slice(None)] * w.ndim
    sl[axis] = slice(1, -1)
    w[tuple(sl)] /= 2.0
    return _dct1(w, axis)


def _tensor(grid: Grid1D, a, what: str) -> np.ndarray:
    """``a`` as a float array of one or more axes of ``n + 1`` entries each."""
    a = np.asarray(a, dtype=float)
    m = grid.n + 1
    if a.ndim == 0 or a.shape != (m,) * a.ndim:
        raise InvalidArgumentError(
            f"expected {what} with {m} entries along each axis for grid order {grid.n}, "
            f"got shape {a.shape}"
        )
    return a


def cheb_transform(grid: Grid1D, values) -> np.ndarray:
    """Coefficients of the interpolant of ``values`` on ``grid``.

    Parameters
    ----------
    grid : Grid1D
    values : array_like, shape (n + 1,) * ndim, ndim >= 1
        Samples at the grid points (descending order along each axis);
        ``values[i, j, ...]`` is the sample at ``(x_i, x_j, ...)``.

    Returns
    -------
    ndarray, read-only, same shape as ``values``
        Coefficients ``a_k`` of ``sum_k a_k T_k(x / L)``, index 0..n; in
        2D ``a[k, l]`` multiplies ``T_k(. / L) T_l(. / L)`` with ``k``
        attached to axis 0 and ``l`` to axis 1, and so on for more axes.
    """
    a = _tensor(grid, values, "samples")
    for axis in range(a.ndim):
        a = _forward_1d(a, axis)
    return _readonly(a)


def inverse_cheb_transform(grid: Grid1D, coeffs) -> np.ndarray:
    """Grid values of the series with the given coefficients (adjoint of
    :func:`cheb_transform`; the round trip is the identity to rounding)."""
    v = _tensor(grid, coeffs, "coefficients")
    for axis in range(v.ndim):
        v = _inverse_1d(v, axis)
    return _readonly(v)


# ---------------------------------------------------------------------------
# Barycentric resampling
# ---------------------------------------------------------------------------


def _resample_matrix(grid: Grid1D, targets: np.ndarray) -> np.ndarray:
    """Rows evaluate the degree-n interpolant at each target point.

    Uses the analytic barycentric weights for Lobatto points,
    w_j = (-1)^j * (1/2 at the endpoints, 1 otherwise); see Berrut &
    Trefethen (2004), SIAM Review 46.
    """
    L = grid.half_width
    tol = L * (1.0 + 1e-12)
    if np.any(np.abs(targets) > tol) or not np.all(np.isfinite(targets)):
        raise InvalidArgumentError(
            f"resample targets must lie within [-{L}, {L}]"
        )
    w = (-1.0) ** np.arange(grid.n + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    diff = targets[:, None] - grid.points[None, :]
    E = np.empty((len(targets), grid.n + 1))
    for i in range(len(targets)):
        hit = np.nonzero(diff[i] == 0.0)[0]
        if hit.size:
            E[i] = 0.0
            E[i, hit[0]] = 1.0
        else:
            r = w / diff[i]
            E[i] = r / r.sum()
    return E


def barycentric_resample(grid: Grid1D, values, *targets) -> np.ndarray:
    """Evaluate the interpolant of ``values`` at arbitrary points.

    ``values`` is a tensor-grid array of any number of axes and
    ``targets`` holds one array of points per axis; the result has shape
    ``(len(targets[0]), len(targets[1]), ...)``.  Targets coinciding with
    grid points reproduce the input values exactly; other targets use the
    barycentric formula, which is backward-stable on Lobatto points.
    """
    v = _tensor(grid, values, "samples")
    if len(targets) != v.ndim:
        raise InvalidArgumentError(
            f"expected one target array per axis ({v.ndim}), got {len(targets)}"
        )
    for t in targets:
        E = _resample_matrix(grid, np.atleast_1d(np.asarray(t, dtype=float)))
        # resample the leading axis and rotate it to the back: after one
        # pass per axis every axis is resampled and back in its place
        v = (E @ v.reshape(len(v), -1)).T.reshape(*v.shape[1:], len(E))
    return v
