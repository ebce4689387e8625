"""Newton-Kantorovich driver tests, including the shipped-Jacobian checks."""

import warnings
from functools import reduce

import numpy as np
import pytest

from chebratu import (
    Laplacian,
    NewtonConfig,
    NewtonTrace,
    Solution,
    cheb_points,
    convergence_order_estimate,
    initial_guess,
    laplacian,
    make_nonlinearity,
    newton_kantorovich,
    qr_solve,
    second_diff_matrix,
    solve,
)
from chebratu.errors import (
    DivergenceError,
    InvalidArgumentError,
    NewtonError,
    NonConvergenceError,
    SingularJacobianError,
)
from chebratu.newton import _fold, _unfold


def _dense(J, b):
    """A dense Newton step: one QR solve, counted as one linear iteration."""
    return qr_solve(J, b), 1


def test_scalar_quadratic():
    sol, trace = newton_kantorovich(
        lambda u: u**2 - 4.0,
        lambda u: np.array([[2.0 * u[0]]]),
        np.array([3.0]),
        solve=_dense,
    )
    assert abs(sol[0] - 2.0) < 1e-10
    assert trace.converged
    assert trace.linear_iterations == [1] * trace.iterations
    assert convergence_order_estimate(trace) > 1.8


def test_affine_converges_in_one_iteration():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1.0, 1.0, (5, 5)) + 5.0 * np.eye(5)
    b = rng.uniform(-1.0, 1.0, 5)
    sol, trace = newton_kantorovich(lambda u: a @ u - b, lambda u: a, np.zeros(5), solve=_dense)
    assert trace.converged
    assert trace.iterations == 1
    assert np.max(np.abs(a @ sol - b)) < 1e-12


def test_root_free_problem_fails():
    # x^2 + 1 has no real root; from x0 = 1 the iteration hits the
    # singular point x = 0 exactly
    with pytest.raises(NewtonError) as info:
        newton_kantorovich(
            lambda u: u**2 + 1.0,
            lambda u: np.array([[2.0 * u[0]]]),
            np.array([1.0]),
            solve=_dense,
        )
    assert info.value.trace is not None


def test_zero_residual_at_start_counts_one_iteration():
    sol, trace = newton_kantorovich(
        lambda u: u.copy(), lambda u: np.eye(3), np.zeros(3), solve=_dense
    )
    assert trace.converged
    assert trace.iterations == 1
    assert trace.update_norms == [0.0]


def test_singular_jacobian_error_carries_trace():
    with pytest.raises(SingularJacobianError) as info:
        newton_kantorovich(
            lambda u: u**2 + 1.0,
            lambda u: np.array([[0.0]]),
            np.array([1.0]),
            solve=_dense,
        )
    assert info.value.trace.iterations == 0


def test_nonconvergence_carries_trace():
    # deltas halve each step (linear contraction), far from tolerance in 8 steps
    with pytest.raises(NonConvergenceError) as info:
        newton_kantorovich(
            lambda u: -(u**2),
            lambda u: np.array([[-2.0 * u[0]]]),
            np.array([1.0]),
            NewtonConfig(max_iter=8),
            solve=_dense,
        )
    trace = info.value.trace
    assert trace.iterations == 8
    assert not trace.converged
    assert len(trace.residual_norms) == 8


# the callbacks below overflow with no np.errstate of their own: the driver
# evaluates them with overflow silent (and the test run turns a RuntimeWarning
# into an error)


def test_divergence_on_initial_residual():
    with pytest.raises(DivergenceError):
        newton_kantorovich(lambda u: np.exp(u), lambda u: np.diag(np.exp(u)),
                           np.array([800.0]), solve=_dense)


def test_divergence_mid_iteration():
    # tiny Jacobian at the start throws the iterate to 1e260, where the
    # residual overflows
    with pytest.raises(DivergenceError) as info:
        newton_kantorovich(lambda u: np.exp(u) - 3.0, lambda u: np.diag(np.exp(u)),
                           np.array([-600.0]), solve=_dense)
    assert info.value.trace.iterations == 1
    assert info.value.trace.residual_norms[-1] == np.inf


def test_driver_silences_overflow_in_residual_and_jacobian():
    # the logistic residual is finite at u = -800 although exp(800) overflows
    # in it; its derivative is inf / inf there: a divergence with its trace,
    # and no warning
    def residual(u):
        return 1.0 / (1.0 + np.exp(-u)) - 0.75

    def jacobian(u):
        return np.diag(np.exp(-u) / (1.0 + np.exp(-u)) ** 2)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="jacobian is not finite") as info:
            newton_kantorovich(residual, jacobian, np.array([-800.0]), solve=_dense)
        # from u = 0 the same callbacks converge to log 3
        sol, _ = newton_kantorovich(residual, jacobian, np.array([0.0]), solve=_dense)
    assert info.value.trace.iterations == 0
    assert info.value.trace.residual_norms == []
    assert abs(sol[0] - np.log(3.0)) < 1e-12


def test_iterate_residual_shape_checks():
    with pytest.raises(InvalidArgumentError):
        newton_kantorovich(lambda u: np.ones(3), lambda u: np.eye(2), np.zeros(2), solve=_dense)
    with pytest.raises(InvalidArgumentError):
        newton_kantorovich(lambda u: u, lambda u: np.eye(2), np.zeros((2, 2)), solve=_dense)


def test_config_validation():
    # an infinite tolerance would accept the first update, however large
    for tol in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InvalidArgumentError):
            NewtonConfig(tol_update=tol)
    with pytest.raises(InvalidArgumentError):
        NewtonConfig(max_iter=0)


def test_order_estimate_examples():
    t = NewtonTrace(update_norms=[1e-1, 1e-2, 1e-4], residual_norms=[0, 0, 0],
                    converged=True)
    assert abs(convergence_order_estimate(t) - 2.0) < 1e-12
    t = NewtonTrace(update_norms=[1e-1, 1e-3, 1e-9], residual_norms=[0, 0, 0],
                    converged=True)
    assert abs(convergence_order_estimate(t) - 3.0) < 1e-12


def test_order_estimate_insufficient_data():
    t = NewtonTrace(update_norms=[1e-1, 1e-15, 1e-16], residual_norms=[0, 0, 0],
                    converged=True)
    assert t.iterations == 3
    assert convergence_order_estimate(t) is None
    assert NewtonTrace().iterations == 0
    assert convergence_order_estimate(NewtonTrace()) is None
    # equal norms make the quotient 0/0 or x/0: None, with no numpy warning
    for norms in ([1.0, 1.0, 1.0], [1.0, 1.0, 0.5]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert convergence_order_estimate(NewtonTrace(update_norms=norms)) is None


def test_shipped_jacobians_match_finite_differences():
    """Directional finite differences vs J(u) v for every shipped system."""
    rng = np.random.default_rng(31)
    h = 1e-6

    def check(residual, jacobian, u):
        v = rng.uniform(-1.0, 1.0, u.shape)
        jv = jacobian(u) @ v
        fd = (residual(u + h * v) - residual(u - h * v)) / (2.0 * h)
        norm_j = np.max(np.sum(np.abs(jacobian(u)), axis=1))
        assert np.max(np.abs(fd - jv)) <= 1e-6 * norm_j

    # 1D collocation system
    grid = cheb_points(16, 1.0)
    d2 = second_diff_matrix(grid)[1:-1, 1:-1]
    for _ in range(25):
        lam = float(rng.uniform(0.05, 0.8))
        u = rng.uniform(-1.0, 2.0, 15)
        check(lambda w: d2 @ w + lam * np.exp(w),
              lambda w: d2 + lam * np.diag(np.exp(w)), u)

    # 2D collocation systems for every shipped nonlinearity
    grid2 = cheb_points(8, 1.0)
    d2b = second_diff_matrix(grid2)[1:-1, 1:-1]
    eye = np.eye(7)
    lap = np.kron(eye, d2b) + np.kron(d2b, eye)
    for name, eps in (("exp", None), ("gelfand", 1e-2), ("cosh", None), ("sinh", None)):
        nl = make_nonlinearity(name, eps)
        for _ in range(25):
            lam = float(rng.uniform(0.05, 0.8))
            u = rng.uniform(-1.0, 2.0, 49)
            check(lambda w: lap @ w + nl.value(lam, w),
                  lambda w: lap + np.diag(nl.derivative(lam, w)), u)


# ---------------------------------------------------------------------------
# the shared starting field and result
# ---------------------------------------------------------------------------


def _tensor(factor, ndim):
    return reduce(np.multiply.outer, [factor] * ndim)


@pytest.mark.parametrize("ndim", [1, 2])
def test_initial_guess_names_and_arrays(ndim):
    grid = cheb_points(12, 2.0)
    op = laplacian(grid, ndim)
    interior = (slice(1, -1),) * ndim
    zero = initial_guess(grid, op, "zero")
    assert zero.shape == (11,) * ndim
    assert not zero.any()

    factor = 1.0 - (grid.points[1:-1] / 2.0) ** 2
    assert np.array_equal(initial_guess(grid, op, "onepoint", 3.0), 3.0 * _tensor(factor, ndim))
    assert np.array_equal(initial_guess(grid, op, "onepoint"), 6.0 * _tensor(factor, ndim))
    assert np.array_equal(initial_guess(grid, op, "onepoint", -1.0), -_tensor(factor, ndim))
    assert not initial_guess(grid, op, "onepoint", 0.0).any()

    full = np.random.default_rng(7).uniform(-1.0, 1.0, (13,) * ndim)
    from_full = initial_guess(grid, op, full)
    assert np.array_equal(from_full, full[interior])
    from_interior = initial_guess(grid, op, full[interior])
    assert np.array_equal(from_interior, full[interior])
    from_full[...] = 0.0
    from_interior[...] = 0.0
    assert full[interior].all()


def test_initial_guess_eigenfunction_scales_the_ground_state():
    """The field of the operator's first eigenpair, the outer product of
    the ground state of ``D2`` over its axes, in any number of axes, with
    its maximum set to the amplitude."""
    grid = cheb_points(13, 1.0)
    ground = laplacian(grid, 1).eigenpairs(1).vectors[:, 0]
    for ndim in (1, 2, 3):
        op = laplacian(grid, ndim)
        first = op.eigenpairs(1)
        field = first.vectors[:, 0].reshape((12,) * ndim)
        guess = initial_guess(grid, op, "eigenfunction", 0.3)
        assert guess.shape == (12,) * ndim and guess.max() == 0.3
        assert np.array_equal(guess, field * (0.3 / field.max()))
        expect = 0.3 * _tensor(ground, ndim) / ground.max() ** ndim
        assert np.max(np.abs(guess - expect)) < 1e-15
        assert np.array_equal(initial_guess(grid, op, "eigenfunction", None),
                              initial_guess(grid, op, "eigenfunction", 0.1))
        # scaling leaves the operator's cached eigenvectors as they were
        assert np.array_equal(op.eigenpairs(1).vectors, first.vectors)


@pytest.mark.parametrize("ndim", [1, 2])
def test_initial_guess_rejects(ndim):
    grid = cheb_points(12, 1.0)
    op = laplacian(grid, ndim)
    bad = [np.zeros(5), np.zeros((13,) * (3 - ndim)), np.zeros((11,) * (ndim + 1)), "mystery"]
    bad += [np.zeros((11, 13))] if ndim == 2 else []
    for guess in bad:
        with pytest.raises(InvalidArgumentError):
            initial_guess(grid, op, guess)
    # an amplitude must be finite whatever the guess, one that ignores it too
    for amplitude in (np.nan, np.inf, -np.inf):
        for guess in ("onepoint", "eigenfunction", "zero", np.zeros((11,) * ndim)):
            with pytest.raises(InvalidArgumentError, match="finite"):
                initial_guess(grid, op, guess, amplitude)
    for amplitude in (0.0, -1.0):
        with pytest.raises(InvalidArgumentError, match="positive"):
            initial_guess(grid, op, "eigenfunction", amplitude)
    # an array is held to the rule for an amplitude: finite, in either shape
    for shape in ((13,) * ndim, (11,) * ndim):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidArgumentError, match="finite"):
                initial_guess(grid, op, np.full(shape, value))


@pytest.mark.parametrize("n", [12, 13])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_solution_views(n, ndim):
    """``interior``, ``u_max`` and ``center_value`` in any dimension; the
    center is a node for even n and interpolated for odd n."""
    grid = cheb_points(n, 2.0)
    values = 3.0 * _tensor(1.0 - (grid.points / 2.0) ** 2, ndim)
    sol = Solution(grid=grid, values=values, lam=0.5, nonlinearity=make_nonlinearity("exp"),
                   branch="unknown", trace=NewtonTrace())
    assert np.array_equal(sol.interior, values[(slice(1, -1),) * ndim])
    assert sol.u_max == values.max()
    if n % 2 == 0:
        assert sol.center_value() == 3.0
    else:
        assert sol.u_max < 3.0
        assert abs(sol.center_value() - 3.0) <= 1e-14


# ---------------------------------------------------------------------------
# named-guess solves on the even half of each axis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 7, 8, 16, 40])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_folded_apply_matches_full_apply_on_even_fields(n, ndim):
    """``_fold`` keeps the first ``ceil(m/2)`` rows and adds each mirrored
    column to its partner, so on an even field the folded operator gives
    the first half of the full one, for odd and even ``m = n - 1``."""
    grid = cheb_points(n, 1.0)
    full = laplacian(grid, ndim)
    m = n - 1
    folded = Laplacian(_fold(full.d2), ndim)
    assert folded.d2.shape == ((m + 1) // 2,) * 2 and not folded.d2.flags.writeable
    half = np.random.default_rng(n + ndim).uniform(-1.0, 1.0, ((m + 1) // 2,) * ndim)
    u = _unfold(half, m)
    assert u.shape == (m,) * ndim
    assert all(np.array_equal(u, np.flip(u, axis)) for axis in range(ndim))
    expect = full.apply(u.reshape(-1)).reshape(u.shape)
    got = _unfold(folded.apply(half.reshape(-1)).reshape(half.shape), m)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("ndim, n, guesses", [
    (1, 31, (("zero", None), ("onepoint", 6.0), ("eigenfunction", None))),
    (1, 32, (("zero", None), ("onepoint", 6.0), ("eigenfunction", None))),
    (2, 15, (("zero", None), ("onepoint", 1.0), ("eigenfunction", None))),
    (2, 16, (("zero", None), ("onepoint", 6.0), ("eigenfunction", None))),
    (3, 9, (("zero", None), ("onepoint", 1.0), ("eigenfunction", None))),
])
def test_named_guess_solve_is_exactly_even(ndim, n, guesses):
    """A named guess solves on the even half and mirrors the result back:
    the values are even bit for bit, and agree with the solve on the whole
    interior from the same field passed as an array, in the same number
    of Newton steps, and their full-grid residual vanishes."""
    grid = cheb_points(n, 1.0)
    exp, lam = make_nonlinearity("exp"), 0.25 if ndim == 1 else 0.5
    full = laplacian(grid, ndim)
    folded = Laplacian(_fold(full.d2), ndim)
    for guess, amplitude in guesses:
        sol = solve(lam, exp, grid, ndim, guess, amplitude)
        assert sol.trace.converged, guess
        assert all(np.array_equal(sol.values, np.flip(sol.values, axis))
                   for axis in range(ndim)), guess
        field = _unfold(initial_guess(grid, folded, guess, amplitude), n - 1)
        ref = solve(lam, exp, grid, ndim, field)
        assert ref.trace.iterations == sol.trace.iterations, guess
        assert np.max(np.abs(sol.values - ref.values)) <= 1e-12 * sol.u_max, guess
        u = sol.interior.reshape(-1)
        assert np.max(np.abs(full.apply(u) + exp.value(lam, u))) <= 1e-10, guess


# a solve on [-L, L] at lam / L**2 is the L = 1 solve at lam: D2 scales by 1 / L**2
_SCALING_LAM = 0.2


def _scaled_solve(n, ndim, half_width, guess):
    return solve(_SCALING_LAM / half_width**2, make_nonlinearity("exp"),
                 cheb_points(n, half_width), ndim, guess)


@pytest.mark.parametrize("n", [16, 24, 32])
def test_half_width_scaling_relation_1d(n):
    ref = _scaled_solve(n, 1, 1.0, "zero")
    for half_width in (0.5, 2.0, 3.0):
        sol = _scaled_solve(n, 1, half_width, "zero")
        assert np.max(np.abs(sol.values - ref.values)) <= 1e-14, half_width
        assert sol.trace.iterations == ref.trace.iterations, half_width


@pytest.mark.xfail(strict=True, reason=(
    "the absolute residual test (1e-10) is not scale-invariant: at L = 0.5 the 2D solve "
    "takes 3 Newton steps against 2 and differs by 6.6e-12 (ROADMAP item 5)"))
def test_half_width_scaling_relation_2d():
    ref = _scaled_solve(16, 2, 1.0, "eigenfunction")
    sol = _scaled_solve(16, 2, 0.5, "eigenfunction")
    assert sol.trace.iterations == ref.trace.iterations
    assert np.max(np.abs(sol.values - ref.values)) <= 1e-14
