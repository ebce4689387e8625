"""The one-dimensional Bratu problem on ``[-L, L]``.

Steady states of ``u'' + lam * f(u) = 0`` with ``u(+-L) = 0``.  For
``f = exp`` the problem has a classical closed-form solution family
(Gelfand): with center amplitude ``A = u(0)``,

    u(x) = A - 2 log cosh(B x),      B = sqrt(lam * exp(A) / 2),

and the boundary condition ties the amplitude to the parameter through
``exp(A/2) = cosh(B L)``, i.e.

    lam(A) = 2 * arccosh(exp(A/2))**2 / (L**2 * exp(A)).

``b = B L = arccosh(exp(A/2))`` is evaluated as ``2 asinh(sqrt(expm1(A/2)
/ 2))`` (from ``cosh b = 1 + 2 sinh(b/2)**2``), which does not cancel as
``A -> 0``.

In ``b = B L`` the curve reads ``A = 2 ln cosh b``, ``lam L**2 =
2 (b sech b)**2``: ``A`` rises with ``b`` while ``lam`` rises to a fold
(the Frank-Kamenetskii critical value ``lam*``) at ``b* tanh b* = 1`` and
decays again, so below the fold every ``lam`` admits a small and a big
solution, with amplitudes on either side of ``A*``.  This module provides
the closed-form curve and its fold, amplitude lookups on both branches,
the branch label of a collocation solution (solved by the shared
:func:`~chebratu.newton.solve`), and the linearized-stability verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import _check_half_width
from .errors import InvalidArgumentError
from .newton import Solution, laplacian, make_nonlinearity
from .numerics import EigenResult, eig_general

__all__ = [
    "BifurcationCurve",
    "lambda_of_amplitude",
    "lambda_slope",
    "exact_solution",
    "critical_point",
    "branch_amplitudes",
    "bifurcation_curve",
    "branch_label",
    "stability_1d",
]


@dataclass(frozen=True)
class BifurcationCurve:
    """Sampled closed-form curve ``(A, lam(A))`` with its fold.

    ``amplitudes`` are increasing and ``lams`` are their ``lam(A)``;
    ``fold`` is the critical point ``(A*, lam*)``.
    """

    amplitudes: np.ndarray
    lams: np.ndarray
    fold: tuple[float, float]


def _check_amplitude(amplitude) -> np.ndarray:
    A = np.asarray(amplitude, dtype=float)
    if np.any(A <= 0.0) or not np.all(np.isfinite(A)):
        raise InvalidArgumentError("amplitude must be positive and finite")
    return A


def _b_of_amplitude(A):
    """``b = B L = arccosh(exp(A/2))``, without cancellation as ``A -> 0``."""
    return 2.0 * np.arcsinh(np.sqrt(np.expm1(A / 2.0) / 2.0))


def lambda_of_amplitude(amplitude, half_width: float = 1.0):
    """Parameter value admitting a solution of center amplitude ``A``.

    Evaluates ``lam(A) = 2 b**2 / (L**2 exp(A))`` with ``b = B L =
    arccosh(exp(A/2))``, the closed-form inversion of the boundary
    condition.  Accepts scalars or arrays of amplitudes.
    """
    A = _check_amplitude(amplitude)
    L = _check_half_width(half_width)
    b = _b_of_amplitude(A)
    with np.errstate(over="ignore"):  # past the float range, lam underflows to 0
        lam = 2.0 * b**2 / (L**2 * np.exp(A))
    return float(lam) if np.isscalar(amplitude) or np.ndim(amplitude) == 0 else lam


def lambda_slope(amplitude: float, half_width: float = 1.0) -> float:
    """Analytic derivative ``d lam / dA`` of the closed-form curve."""
    A = float(_check_amplitude(amplitude))
    L = _check_half_width(half_width)
    g = float(_b_of_amplitude(A))
    gp = math.exp(A / 2.0) / (2.0 * math.sqrt(math.expm1(A)))
    return 2.0 * math.exp(-A) / L**2 * g * (2.0 * gp - g)


def exact_solution(amplitude: float, half_width: float, x) -> np.ndarray:
    """Closed-form solution with center value ``A``, sampled at ``x``.

    ``u(x) = A - 2 log cosh(B x)`` with ``B = arccosh(exp(A/2)) / L``, so
    that ``u(+-L) = 0``.
    """
    A = float(_check_amplitude(amplitude))
    L = _check_half_width(half_width)
    B = _b_of_amplitude(A) / L
    z = np.abs(B * np.asarray(x, dtype=float))
    # log cosh z = log1p(2 sinh(z/2)**2), which does not cancel for small z;
    # above z = 1, z + log1p(exp(-2z)) - log 2, which does not overflow
    small = np.log1p(2.0 * np.sinh(np.minimum(z, 1.0) / 2.0) ** 2)
    large = z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0)
    return A - 2.0 * np.where(z < 1.0, small, large)


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
    import; ``lam* = 2 b*^2 / (L**2 exp(A*))`` scales as ``1 / L**2``.
    """
    L = _check_half_width(half_width)
    return _FOLD_AMPLITUDE, 2.0 * _FOLD_B**2 / (L**2 * math.exp(_FOLD_AMPLITUDE))


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
    InvalidArgumentError
        Unless ``0 < lam < lam*`` (outside the two-solution regime; this
        includes a non-finite ``lam``).
    """
    L = _check_half_width(half_width)
    lam_star = critical_point(L)[1]
    if not 0.0 < lam < lam_star:
        raise InvalidArgumentError(
            f"branch amplitudes exist only for 0 < lam < lam* = {lam_star!r}, got {lam!r}"
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
    return BifurcationCurve(amplitudes=amps, lams=lambda_of_amplitude(amps, L), fold=fold)


_EXP = make_nonlinearity("exp")


def branch_label(sol: Solution) -> str:
    """The branch of the closed-form curve that ``sol`` lies on.

    A 1D solution of the exp term with ``0 < lam < lam*`` is "small" when
    its interpolated center value lies below the fold amplitude ``A*``,
    else "big"; every other solution is "unknown" (the closed form covers
    only exp in 1D).
    """
    a_star, lam_star = critical_point(sol.grid.half_width)
    if sol.values.ndim != 1 or sol.nonlinearity is not _EXP or not 0.0 < sol.lam < lam_star:
        return "unknown"
    return "small" if sol.center_value() < a_star else "big"


def stability_1d(sol: Solution) -> tuple[bool, float, EigenResult]:
    """Linear stability of a converged 1D solution.

    Forms ``M = -(D2 + lam diag(f'(u)))`` on the interior points, with
    ``f`` the solution's reaction term: the negated Newton Jacobian
    :meth:`~chebratu.newton.Laplacian.shifted`.  Returns ``(stable,
    mu_min, spectrum)`` where ``mu_min`` is the smallest eigenvalue of the
    (real) spectrum and the solution is stable iff ``mu_min > 0``.
    """
    if not sol.trace.converged:
        raise InvalidArgumentError("stability verdict requires a converged solution")
    m = -laplacian(sol.grid, 1).shifted(sol.nonlinearity.derivative(sol.lam, sol.interior))
    spectrum = eig_general(m, want_vectors=False)
    mu_min = float(spectrum.values[0])
    return mu_min > 0.0, mu_min, spectrum
