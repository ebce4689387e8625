"""Chebyshev spectral collocation solvers for Bratu-type boundary value
problems: closed-form 1D bifurcation curves and folds, dual-branch
Newton-Kantorovich solutions in 1D and 2D, linear-stability verdicts, and
spectral-accuracy diagnostics."""

from .chebyshev import (
    DiffMatrix,
    Grid1D,
    barycentric_resample,
    cheb_points,
    cheb_transform,
    diff_matrix,
    inverse_cheb_transform,
    second_diff_matrix,
)
from .numerics import EigenResult, eig_general, lu_solve
from .newton import (
    NewtonConfig,
    NewtonTrace,
    Nonlinearity,
    convergence_order_estimate,
    make_nonlinearity,
    newton_kantorovich,
    solve_semilinear,
)
from .bratu1d import (
    BifurcationCurve,
    Solution1D,
    bifurcation_curve,
    branch_amplitudes,
    critical_point,
    exact_solution,
    lambda_of_amplitude,
    lambda_slope,
    solve_1d,
    stability_1d,
)
from .pde2d import (
    Field2D,
    assemble_laplacian,
    guess_eigenfunction,
    guess_onepoint,
    laplacian_eigs,
    onepoint_lambda,
    solve_2d,
)
from .diagnostics import (
    DecayReport,
    SymmetryReport,
    decay_report,
    symmetry_report,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Grid1D", "DiffMatrix", "cheb_points", "diff_matrix",
    "second_diff_matrix", "cheb_transform", "inverse_cheb_transform",
    "barycentric_resample",
    "EigenResult", "lu_solve", "eig_general",
    "NewtonConfig", "NewtonTrace", "newton_kantorovich", "convergence_order_estimate",
    "Nonlinearity", "make_nonlinearity", "solve_semilinear",
    "BifurcationCurve", "Solution1D", "lambda_of_amplitude", "lambda_slope",
    "exact_solution", "critical_point", "branch_amplitudes", "bifurcation_curve",
    "solve_1d", "stability_1d",
    "Field2D", "assemble_laplacian", "laplacian_eigs",
    "guess_eigenfunction", "guess_onepoint", "solve_2d", "onepoint_lambda",
    "DecayReport", "SymmetryReport", "decay_report", "symmetry_report",
    "errors",
]
