"""Kronecker Laplacian, linear eigenproblem, 2D solves and nonlinearities."""

import math

import numpy as np
import pytest

from chebratu import (
    Field2D,
    assemble_laplacian,
    barycentric_resample,
    cheb_points,
    guess_eigenfunction,
    guess_onepoint,
    laplacian_eigs,
    make_nonlinearity,
    onepoint_lambda,
    second_diff_matrix,
    solve_2d,
)
from chebratu.errors import (
    InvalidArgumentError,
    NewtonError,
    SingularNonlinearityError,
)
from oracles import fd_center_richardson

# collocation values for lam = 0.5 on [-1,1]^2; the small-branch centre is
# also checked against Richardson-extrapolated finite differences computed
# in tests/oracles.py (agreement ~7e-11 at n = 16)
UMAX_SMALL_N16 = 0.16689576438605538
UMAX_SMALL_N20 = 0.16689576432834707
UMAX_BIG_N16 = 5.084415865283538


@pytest.fixture(scope="module")
def grid16():
    return cheb_points(16, 1.0)


@pytest.fixture(scope="module")
def exp_nl():
    return make_nonlinearity("exp")


@pytest.fixture(scope="module")
def small16(grid16, exp_nl):
    return solve_2d(0.5, exp_nl, grid16, guess_eigenfunction(grid16, 0.1))


@pytest.fixture(scope="module")
def big16(grid16, exp_nl):
    return solve_2d(0.5, exp_nl, grid16, guess_onepoint(grid16, 6.0))


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------


def test_kronecker_identity_property():
    """matrix @ vec(U) == vec(U D2^T + D2 U) under x-fastest ordering."""
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        grid = cheb_points(n, float(rng.choice([0.5, 1.0, 2.0])))
        d2 = second_diff_matrix(grid).interior
        lap = assemble_laplacian(grid)
        u = rng.uniform(-1.0, 1.0, (n - 1, n - 1))
        lhs = lap @ u.reshape(-1)
        rhs = (u @ d2.T + d2 @ u).reshape(-1)
        scale = np.max(np.abs(rhs)) + np.max(np.abs(lap))
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale


def test_laplacian_biquadratic_exact():
    for n in (4, 6, 8):
        grid = cheb_points(n, 1.0)
        xi = grid.points[1:-1]
        X, Y = np.meshgrid(xi, xi)
        u = (1.0 - X**2) * (1.0 - Y**2)
        expect = -2.0 * (1.0 - Y**2) - 2.0 * (1.0 - X**2)
        out = assemble_laplacian(grid) @ u.reshape(-1)
        assert np.max(np.abs(out - expect.reshape(-1))) < 1e-11


def test_laplacian_on_trimmed_constant_is_not_zero(grid16):
    # the Dirichlet restriction sees the implied zero boundary ring
    out = assemble_laplacian(grid16) @ np.ones(15 * 15)
    assert np.max(np.abs(out)) > 1.0


def test_laplacian_axis_swap_invariance(grid16):
    m = 15
    op = assemble_laplacian(grid16)
    perm = np.arange(m * m).reshape(m, m).T.reshape(-1)
    assert np.array_equal(op[np.ix_(perm, perm)], op)


def test_assemble_validation():
    with pytest.raises(InvalidArgumentError):
        assemble_laplacian(cheb_points(2, 1.0))


# ---------------------------------------------------------------------------
# linear eigenproblem
# ---------------------------------------------------------------------------


def test_smallest_eigenvalue_unit_square():
    res = laplacian_eigs(cheb_points(24, 1.0), 4)
    expect = np.pi**2 / 4.0 * np.array([2.0, 5.0, 5.0, 8.0])
    assert np.max(np.abs(res.values.real - expect)) < 1e-8
    assert np.max(np.abs(res.values.imag)) < 1e-8


def test_eigenvalues_side_pi_domain():
    # on [0, pi]^2 (half-width pi/2) the spectrum is m^2 + n^2
    res = laplacian_eigs(cheb_points(24, np.pi / 2.0), 10)
    expect = np.array([2, 5, 5, 8, 10, 10, 13, 13, 17, 17], dtype=float)
    assert np.max(np.abs(res.values.real - expect)) < 1e-8


def test_eigenvalue_multiplicity_pairs():
    res = laplacian_eigs(cheb_points(20, np.pi / 2.0), 10)
    vals = res.values.real
    for i, j in ((1, 2), (4, 5), (6, 7), (8, 9)):
        assert abs(vals[i] - vals[j]) < 1e-8


def test_eig_count_validation(grid16):
    with pytest.raises(InvalidArgumentError):
        laplacian_eigs(grid16, 0)
    with pytest.raises(InvalidArgumentError):
        laplacian_eigs(grid16, 15 * 15 + 1)


# ---------------------------------------------------------------------------
# initial guesses
# ---------------------------------------------------------------------------


def test_eigenfunction_guess_positive_and_scaled(grid16):
    f = guess_eigenfunction(grid16, 0.1)
    assert np.all(f.interior > 0.0)
    assert f.interior.max() == 0.1


def test_eigenfunction_guess_shape():
    grid = cheb_points(20, 1.0)
    f = guess_eigenfunction(grid, 1.0)
    xi = grid.points[1:-1]
    X, Y = np.meshgrid(xi, xi)
    expect = np.cos(np.pi * X / 2.0) * np.cos(np.pi * Y / 2.0)
    assert np.max(np.abs(f.interior - expect)) < 1e-6


def test_eigenfunction_guess_validation(grid16):
    with pytest.raises(InvalidArgumentError):
        guess_eigenfunction(grid16, 0.0)


def test_onepoint_guess(grid16):
    f = guess_onepoint(grid16, 6.0)
    # n is even, so the center point is on the grid
    assert f.interior[7, 7] == 6.0
    assert np.max(np.abs(f.interior - np.rot90(f.interior))) == 0.0
    full = f.embed()
    assert np.max(np.abs(full[0, :])) == 0.0
    assert np.max(np.abs(full[:, -1])) == 0.0


# ---------------------------------------------------------------------------
# nonlinear solves
# ---------------------------------------------------------------------------


def test_small_solution_value_and_effort(small16):
    assert small16.trace.converged
    assert abs(small16.u_max - UMAX_SMALL_N16) < 1e-9
    assert small16.trace.iterations <= 6


def test_small_solution_grid_independent(exp_nl):
    grid = cheb_points(20, 1.0)
    sol = solve_2d(0.5, exp_nl, grid, guess_eigenfunction(grid, 0.1))
    assert abs(sol.u_max - UMAX_SMALL_N20) < 1e-9
    assert abs(sol.u_max - UMAX_SMALL_N16) < 1e-9


def test_small_solution_center_matches_finite_difference_oracle(small16):
    assert abs(small16.center_value() - fd_center_richardson(0.5)) < 1e-8


def test_big_solution_value_and_effort(big16):
    assert big16.trace.converged
    assert abs(big16.u_max - UMAX_BIG_N16) < 1e-9
    assert big16.trace.iterations <= 10


def test_small_big_ordering(small16, big16):
    assert small16.u_max < big16.u_max
    assert small16.trace.iterations < big16.trace.iterations


def test_solutions_inherit_square_symmetries(small16, big16):
    for sol in (small16, big16):
        u = sol.interior
        assert np.max(np.abs(u - u.T)) < 1e-9
        assert np.max(np.abs(u - np.rot90(u))) < 1e-9
        assert np.max(np.abs(u - u[:, ::-1])) < 1e-9
        assert np.max(np.abs(u - u[::-1, :])) < 1e-9


def test_sinh_zero_solution(grid16):
    nl = make_nonlinearity("sinh")
    sol = solve_2d(0.5, nl, grid16, Field2D(grid=grid16, interior=np.zeros((15, 15))))
    assert sol.trace.iterations == 1
    assert np.max(np.abs(sol.interior)) == 0.0


def test_sinh_from_eigenfunction_guess_falls_to_zero(grid16):
    nl = make_nonlinearity("sinh")
    sol = solve_2d(0.5, nl, grid16, guess_eigenfunction(grid16, 0.1))
    assert np.max(np.abs(sol.interior)) < 1e-12


def test_cosh_solution(grid16):
    nl = make_nonlinearity("cosh")
    sol = solve_2d(0.5, nl, grid16, Field2D(grid=grid16, interior=np.zeros((15, 15))))
    assert sol.trace.converged
    assert abs(sol.u_max - 0.14833064246019098) < 1e-9
    assert np.max(np.abs(sol.interior - np.rot90(sol.interior))) < 1e-9


def test_gelfand_approaches_exp(grid16, exp_nl, small16):
    nl = make_nonlinearity("gelfand", 1e-6)
    sol = solve_2d(0.5, nl, grid16, guess_eigenfunction(grid16, 0.1))
    assert np.max(np.abs(sol.interior - small16.interior)) < 1e-5


def test_solve_above_fold_fails(grid16, exp_nl):
    # the one-point diagram peaks near 1.84; lam = 5 is far beyond the fold
    with pytest.raises(NewtonError) as info:
        solve_2d(5.0, exp_nl, grid16, guess_eigenfunction(grid16, 0.1))
    assert info.value.trace is not None


def test_solve_validation(grid16, exp_nl):
    with pytest.raises(InvalidArgumentError):
        solve_2d(-0.1, exp_nl, grid16, guess_eigenfunction(grid16, 0.1))
    other = cheb_points(12, 1.0)
    with pytest.raises(InvalidArgumentError):
        solve_2d(0.5, exp_nl, grid16, guess_eigenfunction(other, 0.1))


# ---------------------------------------------------------------------------
# cross-grid consistency
# ---------------------------------------------------------------------------


def _cross_grid_residual(sol, n_extra=6):
    """Sup-norm of Lap u + lam e^u at the nodes of a finer grid."""
    fine = cheb_points(sol.grid.n + n_extra, sol.grid.half_width)
    interior = fine.points[1:-1]
    # embed() is [iy, ix]; resampling both axes at the same targets keeps
    # that orientation, so the row-major flatten matches the operator
    vals = barycentric_resample(sol.grid, sol.embed(), interior, interior)
    lap = assemble_laplacian(fine)
    vec = vals.reshape(-1)
    resid = lap @ vec + sol.lam * np.exp(vec)
    return np.max(np.abs(resid)), np.abs(resid).reshape(len(interior), len(interior))


def test_cross_grid_residual_consistency(exp_nl):
    """The inter-node residual shrinks with n and is small away from the
    corners; the corner neighborhoods converge slowly (r^2 log r)."""
    sups = {}
    for n in (14, 20):
        grid = cheb_points(n, 1.0)
        sol = solve_2d(0.5, exp_nl, grid, guess_eigenfunction(grid, 0.1))
        sups[n], field = _cross_grid_residual(sol)
        if n == 20:
            m = field.shape[0]
            central = field[m // 4: 3 * m // 4, m // 4: 3 * m // 4]
            assert central.max() < 1e-4
    assert sups[20] < sups[14]
    assert sups[20] < 0.2


@pytest.mark.xfail(
    strict=True,
    reason="inter-node residual is corner-dominated and plateaus near 8e-2 "
    "at n=20; a 1e-4 sup-norm bound is unattainable for this problem class",
)
def test_cross_grid_residual_tight_bound(exp_nl):
    grid = cheb_points(20, 1.0)
    sol = solve_2d(0.5, exp_nl, grid, guess_eigenfunction(grid, 0.1))
    sup, _ = _cross_grid_residual(sol)
    assert sup <= 1e-4


# ---------------------------------------------------------------------------
# nonlinearities and the one-point diagram
# ---------------------------------------------------------------------------


def test_nonlinearity_values_at_zero():
    nl = make_nonlinearity("exp")
    assert nl.value(1.0, 0.0) == 1.0
    assert nl.derivative(1.0, 0.0) == 1.0


def test_gelfand_continuity_in_epsilon():
    nl = make_nonlinearity("gelfand", 1e-8)
    assert abs(nl.value(1.0, 1.0) - math.e) < 1e-7


def test_nonlinearity_derivative_finite_differences():
    h = 1e-6
    for name, eps in (("exp", None), ("gelfand", 1e-3), ("cosh", None), ("sinh", None)):
        nl = make_nonlinearity(name, eps)
        for u in (-1.0, 0.0, 1.0, 3.0):
            fd = (nl.value(2.0, u + h) - nl.value(2.0, u - h)) / (2.0 * h)
            d = nl.derivative(2.0, u)
            assert abs(fd - d) <= 1e-6 * max(1.0, abs(d))


def test_gelfand_validation_and_pole():
    for eps in (None, 0.0, 1.0, -0.5):
        with pytest.raises(InvalidArgumentError):
            make_nonlinearity("gelfand", eps)
    nl = make_nonlinearity("gelfand", 0.5)
    with pytest.raises(SingularNonlinearityError):
        nl.value(1.0, -3.0)
    with pytest.raises(InvalidArgumentError):
        make_nonlinearity("tanh")


def test_onepoint_lambda():
    assert onepoint_lambda(0.0) == 0.0
    assert abs(onepoint_lambda(1.0) - 3.2 * math.exp(-0.64)) < 1e-15
    peak_a = 1.0 / 0.64
    peak = onepoint_lambda(peak_a)
    assert abs(peak - 5.0 / math.e) < 1e-14
    assert onepoint_lambda(peak_a - 1e-4) < peak
    assert onepoint_lambda(peak_a + 1e-4) < peak
    with pytest.raises(InvalidArgumentError):
        onepoint_lambda(-1.0)


# ---------------------------------------------------------------------------
# field views
# ---------------------------------------------------------------------------


def test_field_vector_matrix_round_trip(grid16):
    rng = np.random.default_rng(55)
    u = rng.uniform(-1.0, 1.0, (15, 15))
    f = Field2D(grid=grid16, interior=u)
    back = Field2D.from_vector(grid16, f.as_vector())
    assert np.array_equal(back.interior, u)
    full = f.embed()
    assert np.array_equal(full[1:-1, 1:-1], u)
    assert np.max(np.abs(full[[0, -1], :])) == 0.0
    assert np.max(np.abs(full[:, [0, -1]])) == 0.0
    with pytest.raises(InvalidArgumentError):
        Field2D.from_vector(grid16, np.zeros(7))
