"""Chebyshev spectral collocation solvers for Bratu-type boundary value
problems: closed-form 1D bifurcation curves and folds, dual-branch
Newton-Kantorovich solutions in 1D and 2D, linear-stability verdicts, and
spectral-accuracy diagnostics."""

from .chebyshev import (
    ChebCoeffs,
    DiffMatrix,
    Grid1D,
    barycentric_resample,
    barycentric_resample_2d,
    cheb_points,
    cheb_transform,
    cheb_transform_2d,
    diff_matrix,
    inverse_cheb_transform,
    inverse_cheb_transform_2d,
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
    Operator2D,
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
    decay_report_1d,
    decay_report_2d,
    symmetry_report,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Grid1D", "DiffMatrix", "ChebCoeffs", "cheb_points", "diff_matrix",
    "second_diff_matrix", "cheb_transform", "inverse_cheb_transform",
    "cheb_transform_2d", "inverse_cheb_transform_2d", "barycentric_resample",
    "barycentric_resample_2d",
    "EigenResult", "lu_solve", "eig_general",
    "NewtonConfig", "NewtonTrace", "newton_kantorovich", "convergence_order_estimate",
    "Nonlinearity", "make_nonlinearity", "solve_semilinear",
    "BifurcationCurve", "Solution1D", "lambda_of_amplitude", "lambda_slope",
    "exact_solution", "critical_point", "branch_amplitudes", "bifurcation_curve",
    "solve_1d", "stability_1d",
    "Operator2D", "Field2D", "assemble_laplacian", "laplacian_eigs",
    "guess_eigenfunction", "guess_onepoint", "solve_2d", "onepoint_lambda",
    "DecayReport", "SymmetryReport", "decay_report_1d", "decay_report_2d",
    "symmetry_report",
    "errors",
]
