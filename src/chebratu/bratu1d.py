"""The one-dimensional Bratu problem on ``[-L, L]``.

Steady states of ``u'' + lam * exp(u) = 0`` with ``u(+-L) = 0``.  The
problem has a classical closed-form solution family (Gelfand): with
center amplitude ``A = u(0)``,

    u(x) = A - 2 log cosh(B x),      B = sqrt(lam * exp(A) / 2),

and the boundary condition ties the amplitude to the parameter through
``exp(A/2) = cosh(B L)``, i.e.

    lam(A) = 2 * arccosh(exp(A/2))**2 / (L**2 * exp(A)).

In ``b = B L`` the curve reads ``A = 2 ln cosh b``, ``lam L**2 =
2 (b sech b)**2``: ``A`` rises with ``b`` while ``lam`` rises to a fold
(the Frank-Kamenetskii critical value ``lam*``) at ``b* tanh b* = 1`` and
decays again, so below the fold every ``lam`` admits a small and a big
solution, with amplitudes on either side of ``A*``.  This module provides
the closed-form curve and its fold, amplitude lookups on both branches,
collocation solutions of the discrete problem, and the linearized-stability
verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chebyshev import Grid1D, barycentric_resample, second_diff_matrix
from .errors import InvalidArgumentError, NoSolutionError
from .newton import NewtonConfig, NewtonTrace, linearization, make_nonlinearity, solve_semilinear
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

    ``u(x) = A - 2 log cosh(B x)`` with ``B = arccosh(exp(A/2)) / L``, so
    that ``u(+-L) = 0``.
    """
    A = float(_check_amplitude(amplitude))
    L = _check_half_width(half_width)
    B = math.acosh(math.exp(A / 2.0)) / L
    z = np.abs(B * np.asarray(x, dtype=float))
    # log cosh(z) = z + log1p(exp(-2z)) - log 2, overflow-free
    return A - 2.0 * (z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0))


def _fold_parameter() -> float:
    """``b*`` solving ``b tanh b = 1``, by scalar Newton from 1.2."""
    b = 1.2
    for _ in range(50):
        t = math.tanh(b)
        step = (b * t - 1.0) / (t + b / math.cosh(b) ** 2)
        b -= step
        if abs(step) <= 1e-16 * b:
            break
    return b


_FOLD_B = _fold_parameter()
_FOLD_AMPLITUDE = 2.0 * math.log(math.cosh(_FOLD_B))


def critical_point(half_width: float = 1.0) -> tuple[float, float]:
    """Fold ``(A*, lam*)`` of the closed-form curve.

    ``A*`` does not depend on the half-width and is computed once, at
    import; ``lam* = lam(A*, L)`` scales as ``1 / L**2``.
    """
    L = _check_half_width(half_width)
    return _FOLD_AMPLITUDE, lambda_of_amplitude(_FOLD_AMPLITUDE, L)


def _solve_b_sech_b(s: float, lo: float, hi: float) -> float:
    """``b`` in ``[lo, hi]`` with ``b sech b = s``, bisected to adjacent floats.

    ``b sech b``, evaluated as ``2 b e^-b / (1 + e^-2b)`` so that it cannot
    overflow, rises below ``b*`` and falls above it.
    """
    rising = hi <= _FOLD_B
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        e = math.exp(-mid)
        if (2.0 * mid * e / (1.0 + e * e) > s) == rising:
            hi = mid
        else:
            lo = mid


def branch_amplitudes(lam: float, half_width: float = 1.0) -> tuple[float, float]:
    """The two amplitudes solving ``lam(A) = lam`` below the fold.

    ``b sech b = s = sqrt(lam L**2 / 2)`` has one root on each side of the
    fold ``b*``: the small one in ``[s, s cosh b*]``, the big one in
    ``[b*, 2 ln(2/s) + 2]``, both found by bisection.  Returns
    ``(A_small, A_big)`` from ``A = 2 log1p(2 sinh(b/2)**2)``, accurate to
    rounding even as ``lam -> 0``.

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
    lam_star = critical_point(L)[1]
    if lam >= lam_star:
        raise NoSolutionError(
            f"no solutions for lam = {lam!r} at or above the fold lam* = {lam_star!r}"
        )
    s = L * math.sqrt(lam) / math.sqrt(2.0)
    b_small = _solve_b_sech_b(s, s, min(s * math.cosh(_FOLD_B), _FOLD_B))
    b_big = _solve_b_sech_b(s, _FOLD_B, 2.0 * math.log(2.0 / s) + 2.0)
    return tuple(2.0 * math.log1p(2.0 * math.sinh(b / 2.0) ** 2) for b in (b_small, b_big))


def bifurcation_curve(half_width: float = 1.0, samples: int = 400) -> BifurcationCurve:
    """Sample the closed-form curve uniformly in amplitude up to ``A* + 6``,
    well past the fold."""
    L = _check_half_width(half_width)
    if samples < 2:
        raise InvalidArgumentError("need at least two curve samples")
    fold = critical_point(L)
    a_max = fold[0] + 6.0
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
    basis function) or a custom vector.  For ``0 < lam < lam*`` the result
    is labeled "small" when its interpolated center value lies below the
    fold amplitude ``A*``, else "big"; otherwise "unknown".

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
    a_star, lam_star = critical_point(grid.half_width)
    if 0.0 < lam < lam_star:
        sol = replace(sol, branch="small" if sol.center_value() < a_star else "big")
    return sol


def stability_1d(sol: Solution1D) -> tuple[bool, float, EigenResult]:
    """Linear stability of a converged solution.

    Forms ``M = -(D2 + lam diag(exp(u)))``, the negated
    :func:`~chebratu.newton.linearization` on the interior points, and
    returns ``(stable, mu_min, spectrum)`` where ``mu_min`` is the
    smallest real part of the spectrum and the solution is stable iff
    ``mu_min > 0``.
    """
    if not sol.trace.converged:
        raise InvalidArgumentError("stability verdict requires a converged solution")
    d2 = second_diff_matrix(sol.grid).interior
    m = -linearization(d2, sol.lam, _EXP, sol.values[1:-1])
    spectrum = eig_general(m, want_vectors=False)
    mu_min = float(spectrum.values[0].real)
    return mu_min > 0.0, mu_min, spectrum
