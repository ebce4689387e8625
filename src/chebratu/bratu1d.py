"""The one-dimensional Bratu problem on ``[-L, L]``.

Steady states of ``u'' + lam * exp(u) = 0`` with ``u(+-L) = 0``.  The
problem has a classical closed-form solution family (Gelfand): with
center amplitude ``A = u(0)``,

    u(x) = A - 2 log cosh(B x),      B = sqrt(lam * exp(A) / 2),

and the boundary condition ties the amplitude to the parameter through
``exp(A/2) = cosh(B L)``, i.e.

    lam(A) = 2 * arccosh(exp(A/2))**2 / (L**2 * exp(A)).

``lam(A)`` rises to a fold (the Frank-Kamenetskii critical value
``lam*``) and decays again: below the fold every ``lam`` admits a small
and a big solution.  This module provides the closed-form curve and its
fold, amplitude lookups on both branches, collocation solutions of the
discrete problem, and the linearized-stability verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .chebyshev import Grid1D, barycentric_resample, second_diff_matrix
from .errors import InvalidArgumentError, NoSolutionError
from .newton import NewtonConfig, NewtonTrace, make_nonlinearity, solve_semilinear
from .numerics import EigenResult, eig_general

__all__ = [
    "BifurcationCurve",
    "Solution1D",
    "lambda_of_amplitude",
    "lambda_slope",
    "exact_solution",
    "critical_point",
    "branch_amplitudes",
    "bifurcation_curve",
    "solve_1d",
    "stability_1d",
]


@dataclass(frozen=True)
class BifurcationCurve:
    """Sampled closed-form curve ``(A, lam(A))`` with its fold.

    ``samples`` is a list of ``(amplitude, lam)`` pairs with amplitudes
    increasing; ``fold`` is the critical point ``(A*, lam*)``.
    """

    half_width: float
    samples: list[tuple[float, float]]
    fold: tuple[float, float]


@dataclass(frozen=True)
class Solution1D:
    """A converged collocation solution of the 1D problem.

    ``values`` covers all ``n + 1`` grid points with exact zeros at the
    boundary entries; ``branch`` is "small", "big" or "unknown".
    """

    grid: Grid1D
    values: np.ndarray
    lam: float
    branch: str
    trace: NewtonTrace

    def center_value(self) -> float:
        """Interpolated ``u(0)``."""
        return float(barycentric_resample(self.grid, self.values, [0.0])[0])


def _check_amplitude(amplitude) -> np.ndarray:
    A = np.asarray(amplitude, dtype=float)
    if np.any(A <= 0.0) or not np.all(np.isfinite(A)):
        raise InvalidArgumentError("amplitude must be positive and finite")
    return A


def _check_half_width(half_width: float) -> float:
    if not np.isfinite(half_width) or half_width <= 0.0:
        raise InvalidArgumentError(f"half-width must be positive, got {half_width!r}")
    return float(half_width)


def lambda_of_amplitude(amplitude, half_width: float = 1.0):
    """Parameter value admitting a solution of center amplitude ``A``.

    Evaluates ``lam(A) = 2 arccosh(exp(A/2))**2 / (L**2 exp(A))``, the
    closed-form inversion of the boundary condition. Accepts scalars or
    arrays of amplitudes.
    """
    A = _check_amplitude(amplitude)
    L = _check_half_width(half_width)
    lam = 2.0 * np.arccosh(np.exp(A / 2.0)) ** 2 / (L**2 * np.exp(A))
    return float(lam) if np.isscalar(amplitude) or np.ndim(amplitude) == 0 else lam


def lambda_slope(amplitude: float, half_width: float = 1.0) -> float:
    """Analytic derivative ``d lam / dA`` of the closed-form curve."""
    A = float(_check_amplitude(amplitude))
    L = _check_half_width(half_width)
    g = math.acosh(math.exp(A / 2.0))
    gp = math.exp(A / 2.0) / (2.0 * math.sqrt(math.expm1(A)))
    return 2.0 * math.exp(-A) / L**2 * g * (2.0 * gp - g)


def exact_solution(amplitude: float, half_width: float, x) -> np.ndarray:
    """Closed-form solution with center value ``A``, sampled at ``x``.

    ``u(x) = A - 2 log cosh(B x)`` with ``B = sqrt(lam(A) exp(A) / 2)``;
    ``u(+-L) = 0`` holds by construction of ``lam(A)``.
    """
    A = float(_check_amplitude(amplitude))
    L = _check_half_width(half_width)
    lam = lambda_of_amplitude(A, L)
    B = math.sqrt(lam * math.exp(A) / 2.0)
    z = np.abs(B * np.asarray(x, dtype=float))
    # log cosh(z) = z + log1p(exp(-2z)) - log 2, overflow-free
    return A - 2.0 * (z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0))


def _fold_amplitude() -> float:
    """``A* = 2 ln cosh B`` with ``B tanh B = 1``, by scalar Newton from 1.2.

    With ``B = sqrt(lam exp(A) / 2)`` the boundary condition reads
    ``A = 2 ln cosh B`` and ``lam L**2 = 2 B**2 / cosh(B)**2``; both rise
    with ``A`` up to the fold, where the latter peaks at ``B tanh B = 1``.
    """
    b = 1.2
    for _ in range(50):
        t = math.tanh(b)
        step = (b * t - 1.0) / (t + b / math.cosh(b) ** 2)
        b -= step
        if abs(step) <= 1e-16 * b:
            break
    return 2.0 * math.log(math.cosh(b))


_FOLD_AMPLITUDE = _fold_amplitude()


def critical_point(half_width: float = 1.0) -> tuple[float, float]:
    """Fold ``(A*, lam*)`` of the closed-form curve.

    ``A*`` does not depend on the half-width and is computed once, at
    import; ``lam* = lam(A*, L)`` scales as ``1 / L**2``.
    """
    L = _check_half_width(half_width)
    return _FOLD_AMPLITUDE, lambda_of_amplitude(_FOLD_AMPLITUDE, L)


def branch_amplitudes(lam: float, half_width: float = 1.0) -> tuple[float, float]:
    """The two amplitudes solving ``lam(A) = lam`` below the fold.

    Returns ``(A_small, A_big)``, bracketed by ``(0, A*)`` and
    ``(A*, ...)`` with the upper bracket grown geometrically, then
    located by Brent's method and polished by Newton so that
    ``|lam(A) - lam| <= 1e-12``.

    Raises
    ------
    NoSolutionError
        For ``lam >= lam*`` (no pair of solutions exists).
    InvalidArgumentError
        For ``lam <= 0`` (outside the two-solution regime).
    """
    L = _check_half_width(half_width)
    if not np.isfinite(lam) or lam <= 0.0:
        raise InvalidArgumentError("branch amplitudes exist only for 0 < lam < lam*")
    a_star, lam_star = critical_point(L)
    if lam >= lam_star:
        raise NoSolutionError(
            f"no solutions for lam = {lam!r} at or above the fold lam* = {lam_star!r}"
        )

    def shifted(A: float) -> float:
        return lambda_of_amplitude(A, L) - lam

    def polish(A: float) -> float:
        for _ in range(8):
            err = shifted(A)
            if abs(err) <= 1e-13 * max(1.0, lam):
                break
            A -= err / lambda_slope(A, L)
        return A

    a_small = polish(brentq(shifted, 1e-18, a_star, xtol=1e-15, rtol=8.9e-16))
    hi = 2.0 * a_star
    while shifted(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise NoSolutionError("failed to bracket the big branch")
    a_big = polish(brentq(shifted, a_star, hi, xtol=1e-15, rtol=8.9e-16))
    return a_small, a_big


def bifurcation_curve(half_width: float = 1.0, samples: int = 400,
                      max_amplitude: float | None = None) -> BifurcationCurve:
    """Sample the closed-form curve uniformly in amplitude.

    ``max_amplitude`` defaults to ``A* + 6``, well past the fold.
    """
    L = _check_half_width(half_width)
    if samples < 2:
        raise InvalidArgumentError("need at least two curve samples")
    fold = critical_point(L)
    a_max = fold[0] + 6.0 if max_amplitude is None else float(max_amplitude)
    if a_max <= 0.0:
        raise InvalidArgumentError("max amplitude must be positive")
    amps = a_max * np.arange(1, samples + 1) / samples
    lams = lambda_of_amplitude(amps, L)
    return BifurcationCurve(
        half_width=L,
        samples=[(float(a), float(v)) for a, v in zip(amps, lams)],
        fold=fold,
    )


def _initial_vector(grid: Grid1D, guess, amplitude: float) -> np.ndarray:
    interior = grid.points[1:-1]
    if isinstance(guess, str):
        if guess == "zero":
            return np.zeros(grid.n - 1)
        if guess == "onepoint":
            return amplitude * (1.0 - (interior / grid.half_width) ** 2)
        raise InvalidArgumentError(f"unknown guess {guess!r}")
    vec = np.asarray(guess, dtype=float)
    if vec.shape == (grid.n + 1,):
        return vec[1:-1].copy()
    if vec.shape == (grid.n - 1,):
        return vec.copy()
    raise InvalidArgumentError(
        f"custom guess must have {grid.n + 1} (full) or {grid.n - 1} (interior) "
        f"entries, got shape {vec.shape}"
    )


_EXP = make_nonlinearity("exp")


def solve_1d(lam: float, grid: Grid1D, guess="zero", amplitude: float = 6.0,
             config: NewtonConfig | None = None) -> Solution1D:
    """Newton-Kantorovich solution of the collocation system.

    The interior system ``D2 u + lam exp(u) = 0`` goes to
    :func:`~chebratu.newton.solve_semilinear`; ``guess`` is ``"zero"``,
    ``"onepoint"`` (``amplitude * (1 - (x/L)**2)``, the lowest Galerkin
    basis function) or a custom vector.  The result is labeled small/big by comparing the
    interpolated center value against the closed-form branch amplitudes
    when ``0 < lam < lam*``, and "unknown" otherwise.

    For ``lam`` above the fold the iteration has nothing to converge to
    and the Newton error propagates with its trace.
    """
    if grid.n < 4:
        raise InvalidArgumentError("1D solves need grid order >= 4")
    if not np.isfinite(lam):
        raise InvalidArgumentError("lam must be finite")
    d2 = second_diff_matrix(grid).interior
    u0 = _initial_vector(grid, guess, amplitude)
    solution, trace = solve_semilinear(d2, lam, _EXP, u0, config)

    values = np.zeros(grid.n + 1)
    values[1:-1] = solution
    sol = Solution1D(grid=grid, values=values, lam=float(lam), branch="unknown",
                     trace=trace)
    if 0.0 < lam < critical_point(grid.half_width)[1]:
        a_small, a_big = branch_amplitudes(lam, grid.half_width)
        center = sol.center_value()
        sol = replace(sol, branch="small" if abs(center - a_small) <= abs(center - a_big)
                      else "big")
    return sol


def stability_1d(sol: Solution1D) -> tuple[bool, float, EigenResult]:
    """Linear stability of a converged solution.

    Forms the linearization ``M = -D2 - lam diag(exp(u))`` on the
    interior points and returns ``(stable, mu_min, spectrum)`` where
    ``mu_min`` is the smallest real part of the spectrum and the solution
    is stable iff ``mu_min > 0``.
    """
    if not sol.trace.converged:
        raise InvalidArgumentError("stability verdict requires a converged solution")
    d2 = second_diff_matrix(sol.grid).interior
    interior = sol.values[1:-1]
    m = -d2 - sol.lam * np.diag(np.exp(interior))
    spectrum = eig_general(m, want_vectors=False)
    mu_min = float(spectrum.values[0].real)
    return mu_min > 0.0, mu_min, spectrum
