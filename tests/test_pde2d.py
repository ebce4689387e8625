"""Matrix-free Laplacian, linear eigenproblem, 2D solves and nonlinearities."""

import math

import numpy as np
import pytest

import chebratu.newton
from chebratu import (
    barycentric_resample,
    cheb_points,
    decay_report,
    initial_guess,
    laplacian,
    make_nonlinearity,
    onepoint_lambda,
    solve,
)
from chebratu.errors import (
    InvalidArgumentError,
    NewtonError,
    SingularNonlinearityError,
)
from chebratu.numerics import _GMRES_MAXITER
from oracles import cheb, collocation_newton_2d, fd_center_richardson, kron_laplacian

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
    return solve(0.5, exp_nl, grid16, 2, "eigenfunction", 0.1)


@pytest.fixture(scope="module")
def big16(grid16, exp_nl):
    return solve(0.5, exp_nl, grid16, 2, "onepoint", 6.0)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------


def _operator_matrix(op, size):
    """Columns ``op.apply(e_k)``: exact, since each unit field picks single
    entries of ``D2``."""
    return np.stack([op.apply(e) for e in np.eye(size)], axis=1)


def test_kronecker_identity_property():
    """Oracle Kronecker matrix @ vec(U) == matrix-free apply, x-fastest, on
    random fields and column by column, for one, two and three axes."""
    rng = np.random.default_rng(41)
    for ndim, cases, n_max in ((1, 100, 13), (2, 100, 13), (3, 10, 7)):
        for _ in range(cases):
            n = int(rng.integers(3, n_max))
            half_width = float(rng.choice([0.5, 1.0, 2.0]))
            lap = kron_laplacian(n, half_width, ndim)
            op = laplacian(cheb_points(n, half_width), ndim)
            u = rng.uniform(-1.0, 1.0, (n - 1,) * ndim)
            lhs = lap @ u.reshape(-1)
            rhs = op.apply(u.reshape(-1))
            scale = np.max(np.abs(rhs)) + np.max(np.abs(lap))
            assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale
            assert np.max(np.abs(_operator_matrix(op, lap.shape[0]) - lap)) < 1e-11 * scale


@pytest.mark.parametrize("ndim", [1, 2])
def test_solve_shifted_by_dimension(ndim):
    """``Lap + diag(d)`` is solved by QR in 1D (one linear iteration, the
    dense ``shifted`` matrix) and by GMRES otherwise."""
    rng = np.random.default_rng(47)
    op = laplacian(cheb_points(12, 1.0), ndim)
    lap = kron_laplacian(12, 1.0, ndim)
    d = rng.uniform(0.0, 2.0, lap.shape[0])
    b = rng.uniform(-1.0, 1.0, lap.shape[0])
    x, iterations = op.solve_shifted(d, b)
    assert np.max(np.abs(lap @ x + d * x - b)) < 1e-10
    if ndim == 1:
        assert iterations == 1
        assert np.max(np.abs(op.shifted(d) - lap - np.diag(d))) < 1e-12 * np.max(np.abs(lap))
    else:
        assert 1 < iterations <= _GMRES_MAXITER


def test_laplacian_biquadratic_exact():
    for n in (4, 6, 8):
        grid = cheb_points(n, 1.0)
        xi = grid.points[1:-1]
        X, Y = np.meshgrid(xi, xi)
        u = (1.0 - X**2) * (1.0 - Y**2)
        expect = -2.0 * (1.0 - Y**2) - 2.0 * (1.0 - X**2)
        out = laplacian(grid, 2).apply(u.reshape(-1))
        assert np.max(np.abs(out - expect.reshape(-1))) < 1e-11


def test_laplacian_on_trimmed_constant_is_not_zero(grid16):
    # the Dirichlet restriction sees the implied zero boundary ring
    out = laplacian(grid16, 2).apply(np.ones(15 * 15))
    assert np.max(np.abs(out)) > 1.0


def test_laplacian_axis_swap_invariance(grid16):
    m = 15
    op = _operator_matrix(laplacian(grid16, 2), m * m)
    perm = np.arange(m * m).reshape(m, m).T.reshape(-1)
    assert np.array_equal(op[np.ix_(perm, perm)], op)


def test_laplacian_validation():
    with pytest.raises(InvalidArgumentError):
        laplacian(cheb_points(2, 1.0), 2)


def test_fast_diagonalization_shifted_inverse():
    """(Lap + c I)^-1 by fast diagonalization inverts the oracle matrix, on
    two and three axes."""
    rng = np.random.default_rng(43)
    for n, ndim in ((16, 2), (7, 3)):
        op = laplacian(cheb_points(n, 1.0), ndim)
        lap = kron_laplacian(n, 1.0, ndim)
        for c in (0.0, 0.7, 40.0):
            r = rng.uniform(-1.0, 1.0, lap.shape[0])
            x = op.shifted_inverse(c, r)
            assert np.max(np.abs(lap @ x + c * x - r)) < 1e-11 * np.max(np.abs(lap))


# ---------------------------------------------------------------------------
# linear eigenproblem
# ---------------------------------------------------------------------------


def test_smallest_eigenvalue_unit_square():
    res = laplacian(cheb_points(24, 1.0), 2).eigenpairs(4)
    expect = np.pi**2 / 4.0 * np.array([2.0, 5.0, 5.0, 8.0])
    assert np.max(np.abs(res.values - expect)) < 1e-8


def test_eigenvalues_side_pi_domain():
    # on [0, pi]^2 (half-width pi/2) the spectrum is m^2 + n^2
    res = laplacian(cheb_points(24, np.pi / 2.0), 2).eigenpairs(10)
    expect = np.array([2, 5, 5, 8, 10, 10, 13, 13, 17, 17], dtype=float)
    assert np.max(np.abs(res.values - expect)) < 1e-8


def test_eigenvalue_multiplicity_pairs():
    res = laplacian(cheb_points(20, np.pi / 2.0), 2).eigenpairs(10)
    vals = res.values
    for i, j in ((1, 2), (4, 5), (6, 7), (8, 9)):
        assert abs(vals[i] - vals[j]) < 1e-8


def test_eigenvalues_match_dense_kronecker_spectrum():
    for n in (4, 5, 8, 11, 16):
        for half_width in (1.0, np.pi / 2.0):
            m2 = (n - 1) ** 2
            res = laplacian(cheb_points(n, half_width), 2).eigenpairs(m2)
            dense = np.sort(np.linalg.eigvals(-kron_laplacian(n, half_width)).real)
            assert res.values.dtype == res.vectors.dtype == np.float64
            assert np.max(np.abs(res.values - dense) / np.abs(dense)) < 1e-10


@pytest.mark.parametrize("n", [3, 7, 12, 13, 32])
def test_eigenvectors_are_eigenpairs(n):
    grid = cheb_points(n, 1.0)
    res = laplacian(grid, 2).eigenpairs((n - 1) ** 2)
    op = laplacian(grid, 2)
    for k in range((n - 1) ** 2):
        v = res.vectors[:, k]
        assert abs(np.max(np.abs(v)) - 1.0) < 1e-13
        assert v[np.argmax(np.abs(v) > 1e-12)] > 0.0
        assert np.max(np.abs(op.apply(v) + res.values[k] * v)) < 1e-9 * res.values[k]


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_eigenpairs_in_three_axes(n):
    """Every eigenpair of the three-axis operator against the dense
    Kronecker matrix: the values its spectrum, ascending, each field an
    eigenvector with unit sup-norm and a positive lead entry.  The ground
    state is even in every axis; the first excited value is triple, its
    fields odd along one axis each.  Each sum of ``mu`` adds its terms in
    ascending order, so the three tie exactly and come in index order: odd
    along x (the fastest axis), then y, then z."""
    m = n - 1
    for half_width in (1.0, np.pi / 2.0):
        res = laplacian(cheb_points(n, half_width), 3).eigenpairs(m**3)
        lap = kron_laplacian(n, half_width, 3)
        dense = np.sort(np.linalg.eigvals(-lap).real)
        assert np.all(np.diff(res.values) >= 0.0)
        assert np.max(np.abs(res.values - dense) / np.abs(dense)) < 1e-10
        for value, v in zip(res.values, res.vectors.T):
            assert abs(np.max(np.abs(v)) - 1.0) < 1e-13
            assert v[np.argmax(np.abs(v) > 1e-12)] > 0.0
            assert np.max(np.abs(lap @ v + value * v)) < 1e-9 * value
        fields = res.vectors.T.reshape(-1, m, m, m)
        assert np.allclose(np.flip(fields[0], (0, 1, 2)), fields[0], atol=1e-12)
        assert res.values[1] == res.values[2] == res.values[3] < res.values[4]
        odd = [[np.allclose(np.flip(f, axis), -f, atol=1e-12) for axis in range(3)]
               for f in fields[1:4]]
        assert odd == [[False, False, True], [False, True, False], [True, False, False]]


def test_eig_count_validation(grid16):
    with pytest.raises(InvalidArgumentError):
        laplacian(grid16, 2).eigenpairs(0)
    with pytest.raises(InvalidArgumentError):
        laplacian(grid16, 2).eigenpairs(15 * 15 + 1)
    grid4 = cheb_points(4, 1.0)
    assert len(laplacian(grid4, 3).eigenpairs(27).values) == 27
    for k in (0, 28):
        with pytest.raises(InvalidArgumentError, match=r"\[1, 27\]"):
            laplacian(grid4, 3).eigenpairs(k)


# ---------------------------------------------------------------------------
# initial guesses
# ---------------------------------------------------------------------------


def _eigenfunction_guess(grid, amplitude):
    return initial_guess(grid, laplacian(grid, 2), "eigenfunction", amplitude)


def test_eigenfunction_guess_positive_and_scaled(grid16):
    f = _eigenfunction_guess(grid16, 0.1)
    assert f.shape == (15, 15)
    assert np.all(f > 0.0)
    assert f.max() == 0.1
    # the default amplitude is the CLI's 0.1
    assert np.array_equal(initial_guess(grid16, laplacian(grid16, 2), "eigenfunction"), f)


def test_eigenfunction_guess_shape():
    grid = cheb_points(20, 1.0)
    f = _eigenfunction_guess(grid, 1.0)
    xi = grid.points[1:-1]
    X, Y = np.meshgrid(xi, xi)
    expect = np.cos(np.pi * X / 2.0) * np.cos(np.pi * Y / 2.0)
    assert np.max(np.abs(f - expect)) < 1e-6


def test_eigenfunction_guess_validation(grid16):
    for amplitude in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(InvalidArgumentError):
            _eigenfunction_guess(grid16, amplitude)
        with pytest.raises(InvalidArgumentError):
            solve(0.5, make_nonlinearity("exp"), grid16, 2, "eigenfunction", amplitude)


def test_onepoint_guess(grid16):
    f = initial_guess(grid16, laplacian(grid16, 2), "onepoint", 6.0)
    # n is even, so the center point is on the grid
    assert f[7, 7] == 6.0
    assert np.max(np.abs(f - np.rot90(f))) == 0.0
    # the default amplitude is the CLI's 6
    assert np.array_equal(initial_guess(grid16, laplacian(grid16, 2), "onepoint"), f)
    for amplitude in (np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            solve(0.5, make_nonlinearity("exp"), grid16, 2, "onepoint", amplitude)


@pytest.fixture
def eig_calls(monkeypatch):
    """The matrix sizes of every ``eig_general`` call the operator makes."""
    calls = []
    eig = chebratu.newton.eig_general

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eig(*args, **kwargs)

    monkeypatch.setattr(chebratu.newton, "eig_general", counting)
    return calls


@pytest.mark.parametrize("guess", ["zero", "onepoint"])
def test_1d_solve_never_factors_d2(exp_nl, eig_calls, guess):
    """QR solves need no fast diagonalization, so a 1D solve from any guess
    but the eigenfunction computes none."""
    sol = solve(0.25, exp_nl, cheb_points(32, 1.0), 1, guess)
    assert sol.trace.converged and sol.trace.linear_iterations == [1] * sol.trace.iterations
    assert eig_calls == []


def test_eigenfunction_guess_solve_factors_d2_once(grid16, exp_nl, eig_calls, monkeypatch):
    """The eigenfunction guess takes its ground state from the solve's own
    fast diagonalization, which every GMRES step reuses: one eig and one
    inverse per 2D solve, of the 8 x 8 even half of D2 from every named
    guess and of the whole 15 x 15 D2 from an array guess, and one eig per
    1D eigenfunction solve, which never inverts the eigenvectors (only the
    preconditioner does)."""
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
    onepoint = initial_guess(grid16, laplacian(grid16, 2), "onepoint", 1.0)
    for guess, amplitude, shape in (("eigenfunction", 0.1, (8, 8)), ("onepoint", 1.0, (8, 8)),
                                    ("zero", None, (8, 8)), (onepoint, None, (15, 15))):
        eig_calls.clear()
        sol = solve(0.5, exp_nl, grid16, 2, guess, amplitude)
        assert eig_calls == [shape] and inverted == [shape], guess
        assert abs(sol.u_max - UMAX_SMALL_N16) < 1e-9
        inverted.clear()
    eig_calls.clear()
    sol = solve(0.25, exp_nl, cheb_points(32, 1.0), 1, "eigenfunction")
    assert sol.trace.converged and sol.trace.linear_iterations == [1] * sol.trace.iterations
    assert eig_calls == [(16, 16)] and inverted == []


def test_eigenpairs_factors_d2_once(grid16, eig_calls):
    op = laplacian(grid16, 2)
    op.eigenpairs(10)
    assert eig_calls == [(15, 15)]
    # the guess and a second request read the same decomposition
    initial_guess(grid16, op, "eigenfunction")
    op.eigenpairs(3)
    assert eig_calls == [(15, 15)]


# ---------------------------------------------------------------------------
# nonlinear solves
# ---------------------------------------------------------------------------


def test_small_solution_value_and_effort(small16):
    assert small16.trace.converged
    assert abs(small16.u_max - UMAX_SMALL_N16) < 1e-9
    assert small16.trace.iterations <= 6
    # full-grid values [iy, ix] with an exact zero ring around the interior
    assert small16.values.shape == (17, 17)
    assert np.array_equal(small16.values[1:-1, 1:-1], small16.interior)
    assert not small16.values[[0, -1], :].any() and not small16.values[:, [0, -1]].any()
    assert small16.branch == "unknown" and small16.lam == 0.5


def test_small_solution_grid_independent(exp_nl):
    grid = cheb_points(20, 1.0)
    sol = solve(0.5, exp_nl, grid, 2, "eigenfunction", 0.1)
    assert abs(sol.u_max - UMAX_SMALL_N20) < 1e-9
    assert abs(sol.u_max - UMAX_SMALL_N16) < 1e-9


def test_small_solution_center_matches_finite_difference_oracle(small16):
    assert abs(small16.center_value() - fd_center_richardson(0.5)) < 1e-8


def test_big_solution_value_and_effort(big16):
    assert big16.trace.converged
    assert abs(big16.u_max - UMAX_BIG_N16) < 1e-9
    assert big16.trace.iterations <= 10


@pytest.mark.parametrize("n", [12, 13, 16, 24, 32])
@pytest.mark.parametrize("name", ["exp", "gelfand", "cosh", "sinh"])
def test_solve_matches_dense_reference(n, name):
    """Matrix-free Newton-GMRES reproduces dense-LU Newton from the dense
    ground state: every interior value and the iteration count."""
    eps = 0.1 if name == "gelfand" else None
    ref, iterations = collocation_newton_2d(0.5, n, name, eps)
    grid = cheb_points(n, 1.0)
    sol = solve(0.5, make_nonlinearity(name, eps), grid, 2, "eigenfunction", 0.1)
    assert np.max(np.abs(sol.interior - ref)) <= 1e-10
    assert sol.trace.iterations == iterations


def test_big_solve_matches_dense_reference(big16):
    ref, iterations = collocation_newton_2d(0.5, 16, "exp", None, 6.0)
    assert np.max(np.abs(big16.interior - ref)) <= 1e-10
    assert big16.trace.iterations == iterations
    linear = big16.trace.linear_iterations
    assert len(linear) == big16.trace.iterations
    assert all(1 <= k <= _GMRES_MAXITER for k in linear)


def _gmres_headroom_cases():
    for n in (16, 32, 64):
        grid = cheb_points(n, 1.0)
        yield from ((0.5, grid, 2, "eigenfunction", 0.1), (1.7, grid, 2, "eigenfunction", 0.1),
                    (0.5, grid, 2, "onepoint", 5.5), (1.0, grid, 2, "onepoint", 4.0))
    for n in (16, 48):
        yield 0.5, cheb_points(n, 1.0), 2, "onepoint", 6.0
    for n in (32, 64):
        grid = cheb_points(n, 1.0)
        x = grid.points
        yield 0.5, grid, 2, 0.1 * np.outer(np.cos(np.pi * x / 2.0), np.cos(np.pi * x / 2.0)), None
        yield 0.5, grid, 2, 5.5 * np.outer(1.0 - x**2, 1.0 - x**2)[1:-1, 1:-1], None
    yield 1.0, cheb_points(16, 1.0), 3, "eigenfunction", 0.1


def test_converged_solves_leave_gmres_headroom(exp_nl):
    """GMRES runs one cycle of _GMRES_MAXITER steps with no restart, so every
    linear solve of a converged Newton run must end well inside it: at most
    20 steps on the even half and 22 on the whole interior today."""
    for lam, grid, ndim, guess, amplitude in _gmres_headroom_cases():
        sol = solve(lam, exp_nl, grid, ndim, guess, amplitude)
        label = (lam, grid.n, ndim, guess if isinstance(guess, str) else "array", amplitude)
        assert sol.trace.converged, label
        assert max(sol.trace.linear_iterations) <= 30, label


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
    sol = solve(0.5, nl, grid16, 2, "zero")
    assert sol.trace.iterations == 1
    assert np.max(np.abs(sol.interior)) == 0.0


def test_sinh_from_eigenfunction_guess_falls_to_zero(grid16):
    nl = make_nonlinearity("sinh")
    sol = solve(0.5, nl, grid16, 2, "eigenfunction", 0.1)
    assert np.max(np.abs(sol.interior)) < 1e-12


def test_cosh_solution(grid16):
    nl = make_nonlinearity("cosh")
    sol = solve(0.5, nl, grid16, 2, np.zeros((15, 15)))
    assert sol.trace.converged
    assert abs(sol.u_max - 0.14833064246019098) < 1e-9
    assert np.max(np.abs(sol.interior - np.rot90(sol.interior))) < 1e-9


def test_gelfand_approaches_exp(grid16, exp_nl, small16):
    nl = make_nonlinearity("gelfand", 1e-6)
    sol = solve(0.5, nl, grid16, 2, "eigenfunction", 0.1)
    assert np.max(np.abs(sol.interior - small16.interior)) < 1e-5


def test_solve_above_fold_fails(grid16, exp_nl):
    # the one-point diagram peaks near 1.84; lam = 5 is far beyond the fold
    with pytest.raises(NewtonError) as info:
        solve(5.0, exp_nl, grid16, 2, "eigenfunction", 0.1)
    assert info.value.trace is not None


def _residual_3d(sol):
    """Sup-norm of ``Lap u + lam e^u`` on the interior of a 3D solution, the
    oracle's ``D2`` applied along each axis: the product of
    ``kron_laplacian(n, L, 3)`` with the interior vector, without its
    ``(n - 1)^6`` entries (1.2 GB at n = 24)."""
    d, _ = cheb(sol.grid.n)
    d2 = (d @ d)[1:-1, 1:-1] / sol.grid.half_width**2
    u = sol.interior
    lap = (np.einsum("ai,ijk->ajk", d2, u) + np.einsum("bj,ijk->ibk", d2, u)
           + np.einsum("ck,ijk->ijc", d2, u))
    return np.max(np.abs(lap + sol.lam * np.exp(u)))


def test_3d_small_branch_through_the_library(exp_nl):
    """The 3D problem needs no 3D-specific code: the eigenfunction guess,
    the centre value and the decay report all take three axes."""
    u_max = {}
    for n in (12, 16, 24):
        grid = cheb_points(n, 1.0)
        sol = solve(1.0, exp_nl, grid, 3, "eigenfunction")
        assert sol.values.shape == (n + 1,) * 3
        assert sol.trace.converged and sol.trace.iterations <= 4, n
        assert sol.center_value() == sol.u_max
        residual = _residual_3d(sol)
        if n == 12:  # the dense oracle matrix itself, where it takes 14 MB
            vec = sol.interior.reshape(-1)
            residual = max(residual, np.max(np.abs(kron_laplacian(n, 1.0, 3) @ vec + np.exp(vec))))
        assert residual <= 1e-11, n
        assert decay_report(grid, sol.values.T).odd_floor <= 1e-14, n
        u_max[n] = sol.u_max
    assert abs(u_max[16] - u_max[24]) <= 1e-9


def test_solve_validation(grid16, exp_nl):
    with pytest.raises(InvalidArgumentError):
        solve(-0.1, exp_nl, grid16, 2, "eigenfunction", 0.1)
    # a guess sampled on another grid
    other = cheb_points(12, 1.0)
    with pytest.raises(InvalidArgumentError):
        solve(0.5, exp_nl, grid16, 2, _eigenfunction_guess(other, 0.1))


# ---------------------------------------------------------------------------
# cross-grid consistency
# ---------------------------------------------------------------------------


def _cross_grid_residual(sol, n_extra=6):
    """Sup-norm of Lap u + lam e^u at the nodes of a finer grid."""
    fine = cheb_points(sol.grid.n + n_extra, sol.grid.half_width)
    interior = fine.points[1:-1]
    # values is [iy, ix]; resampling both axes at the same targets keeps
    # that orientation, so the row-major flatten matches the operator
    vals = barycentric_resample(sol.grid, sol.values, interior, interior)
    lap = kron_laplacian(fine.n, fine.half_width)
    vec = vals.reshape(-1)
    resid = lap @ vec + sol.lam * np.exp(vec)
    return np.max(np.abs(resid)), np.abs(resid).reshape(len(interior), len(interior))


def test_cross_grid_residual_consistency(exp_nl):
    """The inter-node residual shrinks with n and is small away from the
    corners; the corner neighborhoods converge slowly (r^2 log r)."""
    sups = {}
    for n in (14, 20):
        grid = cheb_points(n, 1.0)
        sol = solve(0.5, exp_nl, grid, 2, "eigenfunction", 0.1)
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
    sol = solve(0.5, exp_nl, grid, 2, "eigenfunction", 0.1)
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
    # only gelfand takes an epsilon
    for name in ("exp", "cosh", "sinh"):
        with pytest.raises(InvalidArgumentError, match="epsilon"):
            make_nonlinearity(name, 0.5)
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

