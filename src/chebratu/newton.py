"""Newton-Kantorovich driver and the semilinear collocation solve.

Full undamped steps, ``J(u_k) d_k = -F(u_k)``, ``u_{k+1} = u_k + d_k``.
Each completed iteration records the sup-norm of its update and of the
residual at the new iterate; the iteration stops as soon as either drops
below its tolerance (see :class:`NewtonConfig`: in practice the residual
test ends it).  Failures raise with the partial trace attached so callers
can inspect how far the iteration got.

The problems in any number of dimensions share one discrete form,
``Lap u + lam f(u) = 0`` on the interior unknowns, and everything around
its solve: one interior operator (:class:`Laplacian`, for any number of
axes), one starting field (:func:`initial_guess`), one Newton solve
(:func:`solve`, for any reaction term of :func:`make_nonlinearity`) and
one result (:class:`Solution`).  The dimension only picks how the Newton
steps are solved: by LU in 1D, by preconditioned GMRES otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .chebyshev import Grid1D, _readonly, barycentric_resample, second_diff_matrix
from .errors import (
    DivergenceError,
    InvalidArgumentError,
    NonConvergenceError,
    SingularJacobianError,
    SingularMatrixError,
    SingularNonlinearityError,
)
from .numerics import eig_general, gmres, lu_solve

__all__ = [
    "Laplacian",
    "NewtonConfig",
    "NewtonTrace",
    "Nonlinearity",
    "Solution",
    "newton_kantorovich",
    "convergence_order_estimate",
    "make_nonlinearity",
    "laplacian",
    "initial_guess",
    "solve",
]

# update norms at or below this level are rounding noise, not contraction data
_ORDER_FLOOR = 1e-14
# an iteration also stops once the sup-norm of the post-step residual is here
_TOL_RESIDUAL = 1e-10


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping parameters for :func:`newton_kantorovich`.

    The iteration stops after the first step whose update has sup-norm at
    most ``tol_update`` or whose post-step residual has sup-norm at most
    ``1e-10``, and fails after ``max_iter`` steps.  With the default
    ``tol_update`` the residual test is the one that ends a solve, often
    while the last update is still well above ``1e-10``.
    """

    tol_update: float = 1e-12
    max_iter: int = 25

    def __post_init__(self):
        if not self.tol_update > 0.0:
            raise InvalidArgumentError("tol_update must be positive")
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
    converged: bool = False
    linear_iterations: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """The number of completed iterations, ``len(update_norms)``."""
        return len(self.update_norms)


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
        if update_norms[-1] <= cfg.tol_update or residual_norms[-1] <= _TOL_RESIDUAL:
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
    arrays.
    """

    value: object
    derivative: object


def _scaled(f):
    """``(lam, u) -> lam * f(u)``, overflowing to inf without a warning."""
    def term(lam, u):
        with np.errstate(over="ignore"):
            return lam * f(u)
    return term


# one shared object per named term; gelfand depends on epsilon, built per call
_TERMS = {name: Nonlinearity(_scaled(f), _scaled(df)) for name, f, df in
          (("exp", np.exp, np.exp), ("cosh", np.cosh, np.sinh), ("sinh", np.sinh, np.cosh))}


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
    and ``"sinh"`` the hyperbolic variants.  Each call with the same
    name returns the same object, except for ``"gelfand"``, the only term
    that takes an ``epsilon``.
    """
    if name == "gelfand":
        if epsilon is None or not (0.0 < epsilon < 1.0):
            raise InvalidArgumentError(
                f"gelfand perturbation requires 0 < epsilon < 1, got {epsilon!r}"
            )
        return Nonlinearity(*_gelfand_terms(float(epsilon)))
    if name not in _TERMS:
        raise InvalidArgumentError(f"unknown nonlinearity {name!r}")
    if epsilon is not None:
        raise InvalidArgumentError(f"epsilon applies only to gelfand, not to {name!r}")
    return _TERMS[name]


def _along(a, u, axis: int, ndim: int) -> np.ndarray:
    """``a`` applied along ``axis`` of the x-fastest ``ndim``-axis field
    ``u``, flattened: a plain product for the leading axis, ``U a^T`` for
    the last, and one product per leading index for an axis in between."""
    m = len(a)
    if axis == 0:
        return (a @ u.reshape(m, -1)).reshape(-1)
    if axis == ndim - 1:
        return (u.reshape(-1, m) @ a.T).reshape(-1)
    return (a @ u.reshape(m**axis, m, -1)).reshape(-1)


@dataclass(frozen=True)
class FastDiagonalization:
    """``D2 = vectors diag(values) inverse``, with ``values`` descending
    (the ground state first) and the columns of ``vectors`` of unit
    sup-norm; ``sums`` holds ``values[i] + values[j] + ...`` over every
    index tuple of the ``ndim``-axis grid, flattened x-fastest.  Only the
    preconditioner reads ``inverse`` and ``sums``, so each is computed on
    first use and the eigenfunction guess never inverts ``vectors``."""

    vectors: np.ndarray
    values: np.ndarray
    ndim: int

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.vectors)

    @cached_property
    def sums(self) -> np.ndarray:
        return reduce(np.add.outer, [self.values] * self.ndim).reshape(-1)


@dataclass(frozen=True)
class Laplacian:
    """The Dirichlet Laplacian on the interior of an ``ndim``-axis tensor
    grid, matrix-free.

    ``d2`` is the ``M x M`` interior second-derivative block, ``M = n - 1``.
    Methods take and return interior vectors of length ``M**ndim``, the
    row-major flattening of the field ``U[..., iy, ix]``, so x is the
    fastest index: in 2D entry ``k = iy * M + ix`` and ``Lap U = D2 U +
    U D2^T``, never assembled as an ``M^2 x M^2`` matrix.

    Fast diagonalization (Lynch, Rice & Thomas, 1964; Haidvogel & Zang,
    1979): one eigendecomposition ``D2 = V diag(w) V^-1`` gives the whole
    Dirichlet spectrum, ``-(w_i + w_j + ...)`` with eigenvectors the outer
    products of columns of ``V``, and solves ``(Lap + c I) U = R`` exactly
    by applying ``V^-1`` along every axis, dividing by ``w_i + w_j + ...
    + c`` and applying ``V`` along every axis.  It is computed on first
    use (:attr:`fd`), so a 1D solve, which never needs it, never pays
    for the eigendecomposition.
    """

    d2: np.ndarray
    ndim: int

    @cached_property
    def fd(self) -> FastDiagonalization:
        """The fast diagonalization of ``d2``.

        Raises
        ------
        NumericalFailureError
            From :func:`~chebratu.numerics.eig_general`, if the computed
            spectrum of ``D2`` is not real (it is real and negative for
            Chebyshev collocation).
        """
        eig = eig_general(self.d2)
        return FastDiagonalization(vectors=eig.vectors[:, ::-1], values=eig.values[::-1],
                                   ndim=self.ndim)

    def apply(self, u) -> np.ndarray:
        """``Lap u``, ``D2`` along each axis, summed."""
        out = _along(self.d2, u, 0, self.ndim)
        for axis in range(1, self.ndim):
            out += _along(self.d2, u, axis, self.ndim)
        return out

    def shifted(self, d) -> np.ndarray:
        """The dense 1D ``D2 + diag(d)``: the Jacobian of ``D2 u + lam f(u)``
        when ``d = lam f'(u)`` and, negated, the operator of the linear
        stability problem."""
        return self.d2 + np.diag(d)

    def shifted_inverse(self, c: float, r) -> np.ndarray:
        """``(Lap + c I)^-1 r`` by fast diagonalization."""
        fd = self.fd
        for axis in range(self.ndim):
            r = _along(fd.inverse, r, axis, self.ndim)
        r = r / (fd.sums + c)
        for axis in range(self.ndim):
            r = _along(fd.vectors, r, axis, self.ndim)
        return r

    def solve_shifted(self, d, b):
        """Solve ``(Lap + diag(d)) x = b``; returns ``(x, linear_iterations)``.

        In 1D by LU of :meth:`shifted`, one iteration; otherwise by GMRES
        preconditioned with ``(Lap + mean(d) I)^-1``, counting its steps.
        """
        if self.ndim == 1:
            return lu_solve(self.shifted(d), b), 1
        c = float(np.mean(d))
        return gmres(lambda x: self.apply(x) + d * x, b,
                     lambda r: self.shifted_inverse(c, r))


def laplacian(grid: Grid1D, ndim: int) -> Laplacian:
    """The interior Laplacian of the ``ndim``-axis tensor grid of ``grid``,
    which must have order at least 3.  Its ``d2`` is :func:`second_diff_matrix`
    without the first and last rows and columns (homogeneous Dirichlet
    conditions), as a contiguous read-only copy."""
    if grid.n < 3:
        raise InvalidArgumentError(f"grid order must be at least 3, got {grid.n}")
    return Laplacian(d2=_readonly(second_diff_matrix(grid)[1:-1, 1:-1]), ndim=ndim)


@dataclass(frozen=True)
class Solution:
    """A converged collocation solution in any number of dimensions.

    ``values`` holds the full grid, one axis per dimension, with exact
    zeros on the boundary; a 2D field is indexed ``values[iy, ix]``.
    ``branch``, for the reaction term ``nonlinearity``, is "small", "big"
    or "unknown" (always "unknown" above 1D and for terms other than exp).
    """

    grid: Grid1D
    values: np.ndarray
    lam: float
    nonlinearity: Nonlinearity
    branch: str
    trace: NewtonTrace

    @property
    def interior(self) -> np.ndarray:
        """The values off the boundary, shape ``(n - 1,) * ndim``."""
        return self.values[(slice(1, -1),) * self.values.ndim]

    @property
    def u_max(self) -> float:
        return float(self.values.max())

    def center_value(self) -> float:
        """Interpolated value at the center of the domain."""
        center = barycentric_resample(self.grid, self.values, *[[0.0]] * self.values.ndim)
        return float(center.reshape(-1)[0])


def initial_guess(grid: Grid1D, operator: Laplacian, guess,
                  amplitude: float | None = None) -> np.ndarray:
    """Interior starting field, shape ``(n - 1,) * operator.ndim``, of a
    solve on ``grid`` with the interior Laplacian ``operator``.

    ``guess`` is an array of full-grid or interior shape, or a name:

    * ``"zero"``, the zero field;
    * ``"onepoint"``, the lowest polynomial basis function, ``amplitude``
      times the product of ``1 - (x/L)**2`` over the axes (an outer product
      of the 1D factor, so it carries the domain's symmetries exactly);
    * ``"eigenfunction"``, the ground state of ``operator``, the outer
      product over its axes of the ground state ``v0`` of ``operator.fd``
      (computed for this guess only), scaled so its maximum equals
      ``amplitude`` exactly.

    ``amplitude=None`` means 6 for ``onepoint`` and 0.1 for
    ``eigenfunction``; an amplitude must be finite, and positive for
    ``eigenfunction``.  The eigenfunction guess targets the small branch,
    the one-point guess the big one.
    """
    ndim = operator.ndim
    shape = (grid.n - 1,) * ndim
    if not isinstance(guess, str):
        u = np.asarray(guess, dtype=float)
        if u.shape == (grid.n + 1,) * ndim:
            return u[(slice(1, -1),) * ndim].copy()
        if u.shape == shape:
            return u.copy()
        raise InvalidArgumentError(
            f"custom guess must have full-grid shape {(grid.n + 1,) * ndim} or interior "
            f"shape {shape}, got {u.shape}"
        )
    if guess == "zero":
        return np.zeros(shape)
    if amplitude is not None and not np.isfinite(amplitude):
        raise InvalidArgumentError("guess amplitude must be finite")
    if guess == "onepoint":
        amplitude = 6.0 if amplitude is None else amplitude
        factor = 1.0 - (grid.points[1:-1] / grid.half_width) ** 2
        return amplitude * reduce(np.multiply.outer, [factor] * ndim)
    if guess == "eigenfunction":
        amplitude = 0.1 if amplitude is None else amplitude
        if amplitude <= 0.0:
            raise InvalidArgumentError("guess amplitude must be positive")
        field = reduce(np.multiply.outer, [operator.fd.vectors[:, 0]] * ndim)
        return field * (amplitude / field.max())
    raise InvalidArgumentError(f"unknown {ndim}D guess {guess!r}")


def solve(lam: float, nonlinearity: Nonlinearity, grid: Grid1D, ndim: int, guess="zero",
          amplitude: float | None = None, config: NewtonConfig | None = None) -> Solution:
    """Newton-Kantorovich solution of ``Lap u + lam f(u) = 0`` on the
    ``ndim``-axis tensor grid of ``grid``.

    ``lam`` must be finite and nonnegative and the grid order at least 3.
    The residual is ``Lap u + lam f(u)`` on the interior unknowns of the
    :func:`laplacian` (Dirichlet conditions already imposed); each Newton
    step solves ``Lap + diag(lam f'(u))`` by
    :meth:`Laplacian.solve_shifted`.  The iteration starts from
    :func:`initial_guess` of ``guess`` and ``amplitude``.  Returns a
    :class:`Solution` labelled "unknown".  For ``lam`` beyond the fold of
    the diagram the iteration fails (in 2D a GMRES solve that stalls
    reports a singular Jacobian) and the Newton error of
    :func:`newton_kantorovich` propagates with its trace.
    """
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidArgumentError(f"lam must be finite and nonnegative, got {lam!r}")
    operator = laplacian(grid, ndim)
    u0 = initial_guess(grid, operator, guess, amplitude)

    # Lap u of a huge iterate overflows to inf or nan without a warning, as
    # the reaction term does; the Newton finiteness checks report it (GMRES
    # evaluates Lap under the same state)
    @np.errstate(over="ignore", invalid="ignore")
    def residual(u):
        return operator.apply(u) + nonlinearity.value(lam, u)

    def jacobian(u):
        return nonlinearity.derivative(lam, u)

    u, trace = newton_kantorovich(residual, jacobian, np.ravel(u0), config,
                                  solve=operator.solve_shifted)
    return Solution(grid=grid, values=np.pad(u.reshape(np.shape(u0)), 1), lam=float(lam),
                    nonlinearity=nonlinearity, branch="unknown", trace=trace)


def convergence_order_estimate(trace: NewtonTrace) -> float | None:
    """Estimate the convergence order from the last admissible update triple.

    Using the final three update norms above the rounding floor ``1e-14``,
    ``p = log(||d_{k+1}|| / ||d_k||) / log(||d_k|| / ||d_{k-1}||)``; None
    if fewer than three update norms exceed the floor or if ``p`` is not
    finite (two equal update norms).
    """
    usable = [v for v in trace.update_norms if v > _ORDER_FLOOR]
    if len(usable) < 3:
        return None
    a, b, c = usable[-3:]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = float(np.log(c / b) / np.log(b / a))
    return p if np.isfinite(p) else None
