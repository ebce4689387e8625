"""Newton-Kantorovich driver and the semilinear collocation solve.

Full undamped steps, ``J(u_k) d_k = -F(u_k)``, ``u_{k+1} = u_k + d_k``.
Each completed iteration records the sup-norm of its update and of the
residual at the new iterate; the iteration stops as soon as either drops
below its tolerance.  Failures raise with the partial trace attached so
callers can inspect how far the iteration got.

The 1D and 2D problems share one discrete form, ``Lap u + lam f(u) = 0``
on the interior unknowns: :func:`solve_semilinear` solves it for any
reaction term of :func:`make_nonlinearity` and any interior operator that
applies ``Lap`` and solves ``Lap + diag(d)``: a :class:`DenseOperator` by
LU in 1D, the fast-diagonalized tensor Laplacian by GMRES in 2D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergenceError,
    InsufficientDataError,
    InvalidArgumentError,
    NonConvergenceError,
    SingularJacobianError,
    SingularMatrixError,
    SingularNonlinearityError,
)
from .numerics import lu_solve

__all__ = [
    "DenseOperator",
    "NewtonConfig",
    "NewtonTrace",
    "Nonlinearity",
    "newton_kantorovich",
    "convergence_order_estimate",
    "make_nonlinearity",
    "linearization",
    "solve_semilinear",
]

# update norms at or below this level are rounding noise, not contraction data
_ORDER_FLOOR = 1e-14


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping parameters for :func:`newton_kantorovich`.

    ``tol_update`` is the primary criterion (sup-norm of the Newton
    update); ``tol_residual`` is a secondary guard on the post-step
    residual.
    """

    tol_update: float = 1e-12
    tol_residual: float = 1e-10
    max_iter: int = 25

    def __post_init__(self):
        if not (self.tol_update > 0.0 and self.tol_residual > 0.0):
            raise InvalidArgumentError("tolerances must be positive")
        if self.max_iter < 1:
            raise InvalidArgumentError("max_iter must be at least 1")


@dataclass(frozen=True)
class NewtonTrace:
    """Per-iteration record of a Newton run.

    ``update_norms[k]`` is ``||d_k||_inf`` of iteration ``k``;
    ``residual_norms[k]`` is ``||F||_inf`` at the iterate produced by that
    iteration; ``linear_iterations[k]`` counts the inner iterations of its
    linear solve (1 for a direct LU solve, the GMRES steps otherwise).
    The lists have length ``iterations``.
    """

    update_norms: list[float] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    linear_iterations: list[int] = field(default_factory=list)


def _lu_step(jacobian, rhs):
    return lu_solve(jacobian, rhs), 1


def newton_kantorovich(residual, jacobian, u0, config: NewtonConfig | None = None,
                       solve=None):
    """Solve ``F(u) = 0`` by undamped Newton iteration.

    Parameters
    ----------
    residual : callable
        ``u -> F(u)``, mapping a length-m vector to a length-m vector.
    jacobian : callable
        ``u -> J(u)``, the derivative of ``F`` in the form ``solve`` takes:
        by default the dense m-by-m matrix.
    u0 : array_like
        Starting vector.
    config : NewtonConfig, optional
    solve : callable, optional
        ``(J, b) -> (x, linear_iterations)`` solving ``J x = b``; raises
        :class:`~chebratu.errors.SingularMatrixError` when it cannot.  The
        default is a dense LU solve, counted as one linear iteration.

    Returns
    -------
    (solution, trace) : (ndarray, NewtonTrace)

    Raises
    ------
    SingularJacobianError
        If an inner solve meets a singular Jacobian; carries the trace.
    NonConvergenceError
        If ``max_iter`` is exhausted; carries the trace.
    DivergenceError
        If an iterate or residual becomes non-finite; carries the trace.
    """
    cfg = config if config is not None else NewtonConfig()
    solve = solve if solve is not None else _lu_step
    u = np.array(u0, dtype=float, copy=True)
    if u.ndim != 1 or u.size == 0:
        raise InvalidArgumentError("initial guess must be a nonempty vector")

    update_norms: list[float] = []
    residual_norms: list[float] = []
    linear_iterations: list[int] = []

    def trace(converged: bool = False) -> NewtonTrace:
        return NewtonTrace(
            update_norms=list(update_norms),
            residual_norms=list(residual_norms),
            iterations=len(update_norms),
            converged=converged,
            linear_iterations=list(linear_iterations),
        )

    def evaluate(fun, what: str) -> np.ndarray:
        out = np.asarray(fun(u), dtype=float)
        if out.shape[0] != u.shape[0]:
            raise InvalidArgumentError(
                f"{what} shape {out.shape} inconsistent with iterate of length {u.shape[0]}"
            )
        return out

    F = evaluate(residual, "residual")
    if not np.all(np.isfinite(F)):
        raise DivergenceError("residual is not finite at the initial guess", trace())

    for _ in range(cfg.max_iter):
        J = evaluate(jacobian, "jacobian")
        try:
            delta, inner = solve(J, -F)
        except SingularMatrixError as exc:
            raise SingularJacobianError(str(exc), trace()) from exc
        u = u + delta
        update_norms.append(float(np.max(np.abs(delta))))
        linear_iterations.append(int(inner))
        if not np.all(np.isfinite(u)):
            residual_norms.append(float("inf"))
            raise DivergenceError("iterate became non-finite", trace())
        F = evaluate(residual, "residual")
        if not np.all(np.isfinite(F)):
            residual_norms.append(float("inf"))
            raise DivergenceError("residual became non-finite", trace())
        residual_norms.append(float(np.max(np.abs(F))))
        if update_norms[-1] <= cfg.tol_update or residual_norms[-1] <= cfg.tol_residual:
            return u, trace(converged=True)

    raise NonConvergenceError(
        f"no convergence within {cfg.max_iter} iterations "
        f"(last update {update_norms[-1]:.3e}, residual {residual_norms[-1]:.3e})",
        trace(),
    )


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term ``lam * f(u)`` and its ``u``-derivative.

    ``value(lam, u)`` and ``derivative(lam, u)`` act elementwise on
    arrays; ``params`` records named constants such as the Gelfand
    perturbation ``epsilon``.
    """

    name: str
    value: object
    derivative: object
    params: dict = field(default_factory=dict)


def _scaled(f):
    """``(lam, u) -> lam * f(u)``, overflowing to inf without a warning."""
    def term(lam, u):
        with np.errstate(over="ignore"):
            return lam * f(u)
    return term


# name -> (f, f'); the gelfand pair depends on epsilon and is built per call
_TERMS = {"exp": (np.exp, np.exp), "cosh": (np.cosh, np.sinh), "sinh": (np.sinh, np.cosh)}


def _gelfand_terms(eps: float):
    def pole_free(u):
        d = 1.0 + eps * np.asarray(u)
        if np.any(d <= 1e-8):
            raise SingularNonlinearityError(
                "gelfand nonlinearity evaluated at a pole (1 + eps*u <= 1e-8)"
            )
        return d

    def derivative(lam, u):
        d = pole_free(u)
        with np.errstate(over="ignore"):
            return lam * np.exp(u / d) / d**2

    return _scaled(lambda u: np.exp(u / pole_free(u))), derivative


def make_nonlinearity(name: str, epsilon: float | None = None) -> Nonlinearity:
    """Construct one of the shipped reaction terms.

    ``"exp"`` is the classical Bratu term ``exp(u)``; ``"gelfand"`` the
    perturbed ``exp(u / (1 + eps u))`` for ``0 < eps < 1``; ``"cosh"``
    and ``"sinh"`` the hyperbolic variants.
    """
    if name == "gelfand":
        if epsilon is None or not (0.0 < epsilon < 1.0):
            raise InvalidArgumentError(
                f"gelfand perturbation requires 0 < epsilon < 1, got {epsilon!r}"
            )
        eps = float(epsilon)
        return Nonlinearity(name, *_gelfand_terms(eps), {"epsilon": eps})
    if name not in _TERMS:
        raise InvalidArgumentError(f"unknown nonlinearity {name!r}")
    f, df = _TERMS[name]
    return Nonlinearity(name, _scaled(f), _scaled(df))


def linearization(lap, lam: float, nonlinearity: Nonlinearity, u) -> np.ndarray:
    """``lap + diag(derivative(lam, u))``, the Jacobian of ``lap u + lam f(u)``
    at ``u``; its negation is the operator of the linear stability problem."""
    return lap + np.diag(nonlinearity.derivative(lam, u))


@dataclass(frozen=True)
class DenseOperator:
    """An interior operator held as a dense matrix, for small systems.

    ``apply(u)`` is ``matrix @ u``; ``solve_shifted(d, b)`` solves
    ``(matrix + diag(d)) x = b`` by LU and returns ``(x, 1)``.
    """

    matrix: np.ndarray

    def apply(self, u) -> np.ndarray:
        return self.matrix @ u

    def solve_shifted(self, d, b):
        return lu_solve(self.matrix + np.diag(d), b), 1


def solve_semilinear(operator, lam: float, nonlinearity: Nonlinearity, u0,
                     config: NewtonConfig | None = None):
    """Newton-Kantorovich solution of ``Lap u + lam f(u) = 0``.

    ``operator`` is the interior ``Lap`` (Dirichlet conditions already
    imposed), with ``apply(u)`` and ``solve_shifted(d, b)`` as on
    :class:`DenseOperator`.  The residual is ``apply(u) + value(lam, u)``;
    the Jacobian ``Lap + diag(derivative(lam, u))`` is passed on as its
    diagonal and solved by ``solve_shifted``.  Returns and raises as
    :func:`newton_kantorovich`.
    """
    def residual(u):
        return operator.apply(u) + nonlinearity.value(lam, u)

    def jacobian(u):
        return nonlinearity.derivative(lam, u)

    return newton_kantorovich(residual, jacobian, u0, config, solve=operator.solve_shifted)


def convergence_order_estimate(trace: NewtonTrace) -> float:
    """Estimate the convergence order from the last admissible update triple.

    Using the final three update norms above the rounding floor,
    ``p = log(||d_{k+1}|| / ||d_k||) / log(||d_k|| / ||d_{k-1}||)``.

    Raises
    ------
    InsufficientDataError
        If fewer than three update norms exceed the floor.
    """
    usable = [v for v in trace.update_norms if v > _ORDER_FLOOR]
    if len(usable) < 3:
        raise InsufficientDataError(
            "need at least three update norms above 1e-14 to estimate an order"
        )
    a, b, c = usable[-3:]
    return float(np.log(c / b) / np.log(b / a))
