"""Spectral-quality diagnostics: coefficient decay, parity and symmetry.

Smoothness of a converged solution shows up as exponential decay of its
Chebyshev coefficients; evenness in each variable shows up as odd-index
coefficients at rounding level; invariance of the square problem under
the dihedral symmetries shows up directly in the field values.  These
reports quantify all three: the decay report for samples of any number
of axes, the symmetry report for a square array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import Grid1D, cheb_transform
from .errors import InvalidArgumentError

__all__ = [
    "DecayReport",
    "SymmetryReport",
    "decay_report",
    "symmetry_report",
]

_TINY = 1e-300
# a coefficient at or below this multiple of the largest is rounding noise
_NOISE_RTOL = 1e-13


@dataclass(frozen=True)
class DecayReport:
    """Coefficient-decay profile of a solution.

    ``coeffs`` holds the coefficient magnitudes, one axis per axis of
    the samples.  ``even_floor``/``odd_floor`` are the largest of them
    over even and odd indices: "odd" means any index odd and "even"
    means every index even, the origin excluded.  ``fit_rate`` is the
    least-squares slope of ``log10 |a|`` against ``k`` along the even
    diagonal ``a_{k,...,k}`` (``a_k`` in 1D), over its pre-plateau range
    (None when fewer than four points precede the plateau); ``plateau``
    estimates the rounding floor.
    """

    coeffs: np.ndarray
    even_floor: float
    odd_floor: float
    fit_rate: float | None
    plateau: float


@dataclass(frozen=True)
class SymmetryReport:
    """Sup-norm deviations of a square field from its symmetry images."""

    rot90_dev: float
    transpose_dev: float
    reflect_x_dev: float
    reflect_y_dev: float


def _fit_and_plateau(indices: np.ndarray, mags: np.ndarray):
    """Slope of the pre-plateau decay and the plateau level.

    The plateau starts where a forward-looking 5-point moving maximum of
    ``log10 |a|`` stops decreasing by at least 0.1 per index, or at the
    first coefficient at or below ``1e-13`` times the largest if that comes
    first (an exact zero among them): at rounding level a coefficient's
    logarithm carries no decay rate.  The first two entries are excluded
    (low-order coefficients carry no decay information).
    """
    levels = np.log10(np.maximum(mags, _TINY))
    moving = np.array([levels[i: i + 5].max() for i in range(len(levels))])
    noise = _NOISE_RTOL * mags.max()
    start = len(indices)
    for i in range(2, len(indices)):
        step = indices[i] - indices[i - 1]
        if mags[i] <= noise or moving[i] - moving[i - 1] > -0.1 * step:
            start = i
            break
    plateau = float(mags[start:].max()) if start < len(indices) else float(mags[-1])
    fit_rate = None
    if start >= 4:
        k = indices[:start].astype(float)
        s = levels[:start]
        fit_rate = float(np.polyfit(k, s, 1)[0])
    return fit_rate, plateau


def decay_report(grid: Grid1D, values) -> DecayReport:
    """Decay/parity report of tensor-grid samples of any number of axes.

    A :class:`~chebratu.newton.Solution` passes ``values.T``: its full-grid
    samples, with ``x`` on axis 0 (``.T`` leaves a vector as it is).
    """
    mags = np.abs(cheb_transform(grid, values))
    odd = np.logical_or.reduce(np.indices(mags.shape) % 2 == 1)
    even = ~odd
    even[(0,) * mags.ndim] = False
    diag_idx = np.arange(0, grid.n + 1, 2)
    fit_rate, plateau = _fit_and_plateau(diag_idx, mags[(diag_idx,) * mags.ndim])
    return DecayReport(coeffs=mags, even_floor=float(mags[even].max(initial=0.0)),
                       odd_floor=float(mags[odd].max(initial=0.0)),
                       fit_rate=fit_rate, plateau=plateau)


def symmetry_report(interior) -> SymmetryReport:
    """Deviations of a square array, such as the ``interior`` of a 2D
    :class:`~chebratu.newton.Solution`, from 90-degree rotation,
    transposition and reflections."""
    u = np.asarray(interior, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidArgumentError("symmetry report needs a square interior matrix")
    return SymmetryReport(
        rot90_dev=float(np.max(np.abs(u - np.rot90(u)))),
        transpose_dev=float(np.max(np.abs(u - u.T))),
        reflect_x_dev=float(np.max(np.abs(u - u[:, ::-1]))),
        reflect_y_dev=float(np.max(np.abs(u - u[::-1, :]))),
    )
