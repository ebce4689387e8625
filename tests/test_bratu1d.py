"""Closed-form curve, fold, dual-branch solves, stability."""

import math

import numpy as np
import pytest

from chebratu import (
    NewtonTrace,
    Nonlinearity,
    Solution,
    bifurcation_curve,
    branch_amplitudes,
    branch_label,
    cheb_points,
    convergence_order_estimate,
    critical_point,
    exact_solution,
    lambda_of_amplitude,
    lambda_slope,
    make_nonlinearity,
    second_diff_matrix,
    solve,
    stability_1d,
)
from chebratu.errors import (
    InvalidArgumentError,
    NewtonError,
)
from oracles import shooting_center_1d

EXP = make_nonlinearity("exp")

# fold of the closed-form curve, from 40-digit arithmetic: the argmax of
# lam(A) = 2 arccosh(exp(A/2))^2 / exp(A), equivalently the solution of
# B tanh B = 1 through A = 2 log cosh B
A_STAR = 1.1868421686343891
LAM_STAR = 0.8784576797812903


def test_curve_satisfies_boundary_relation():
    # exp(A/2) / cosh(sqrt(lam exp(A) / 2) L) = 1 for every (A, lam(A))
    for L in (0.5, 1.0, 2.0):
        for A in np.linspace(0.05, 8.0, 60):
            lam = lambda_of_amplitude(A, L)
            ratio = math.exp(A / 2.0) / math.cosh(math.sqrt(lam * math.exp(A) / 2.0) * L)
            assert abs(ratio - 1.0) < 1e-12


def test_curve_small_amplitude_limit():
    vals = [lambda_of_amplitude(10.0**-k) for k in range(1, 9)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-7


def test_curve_is_accurate_at_tiny_amplitude():
    # lam(A) = 2 A + O(A^2): arccosh(exp(A/2)) would cancel here
    assert abs(lambda_of_amplitude(1e-30) - 2e-30) <= 4e-46
    assert abs(lambda_slope(1e-12) - 2.0) < 1e-10


def test_small_amplitude_round_trip():
    for lam in np.logspace(-300, -3, 298):
        a_small = branch_amplitudes(float(lam))[0]
        assert abs(lambda_of_amplitude(a_small) - lam) <= 1e-14 * lam


def test_curve_at_quoted_fold_amplitude():
    # the curve value at the older reported fold amplitude agrees with the
    # commonly quoted lam* only to ~8e-8; pin both facts
    val = lambda_of_amplitude(1.187331536443172, 1.0)
    assert abs(val - 0.8784576041077618) < 1e-12
    assert abs(val - 0.8784576797812903) < 1e-7


def test_curve_scaling_is_exact():
    for A in (0.3, 1.2, 4.5):
        assert lambda_of_amplitude(A, 2.0) == lambda_of_amplitude(A, 1.0) / 4.0


def test_curve_validation():
    with pytest.raises(InvalidArgumentError):
        lambda_of_amplitude(0.0)
    with pytest.raises(InvalidArgumentError):
        lambda_of_amplitude(-1.0)
    with pytest.raises(InvalidArgumentError):
        lambda_of_amplitude(1.0, 0.0)


def test_slope_matches_finite_differences():
    h = 1e-7
    for A in (0.2, 0.9, A_STAR, 2.5, 5.0):
        fd = (lambda_of_amplitude(A + h) - lambda_of_amplitude(A - h)) / (2.0 * h)
        assert abs(lambda_slope(A) - fd) < 1e-6 * max(1.0, abs(fd))


def test_exact_solution_center_and_boundary():
    for A in (0.2, 1.0, 4.0):
        for L in (0.5, 1.0, 2.0):
            w = exact_solution(A, L, np.array([0.0, L, -L]))
            assert abs(w[0] - A) < 1e-13
            assert abs(w[1]) < 1e-12
            assert abs(w[2]) < 1e-12


def test_exact_solution_ode_residual():
    # (w(x-h) - 2 w(x) + w(x+h)) / h^2 + lam exp(w(x)) -> 0
    h = 1e-4
    A, L = 1.5, 1.0
    lam = lambda_of_amplitude(A, L)
    for x in (-0.7, -0.2, 0.0, 0.4, 0.9):
        w = exact_solution(A, L, np.array([x - h, x, x + h]))
        second = (w[0] - 2.0 * w[1] + w[2]) / h**2
        assert abs(second + lam * math.exp(w[1])) < 1e-5


def test_exact_solution_is_accurate_at_tiny_amplitude():
    # u(x) = A (1 - x^2) - A^2 x^2 (1 - x^2) / 6 + O(A^3) on [-1, 1]; at
    # A = 1e-12 the second term is still 4e-14 of the first at x = 1/2
    A = 1e-12
    x = np.array([0.1, 0.5, 0.9])
    series = A * (1.0 - x**2) - A**2 * x**2 * (1.0 - x**2) / 6.0
    got = exact_solution(A, 1.0, x)
    assert np.max(np.abs(got - series) / series) <= 1e-14


def test_exact_solution_validation():
    with pytest.raises(InvalidArgumentError):
        exact_solution(0.0, 1.0, np.array([0.0]))
    with pytest.raises(InvalidArgumentError):
        exact_solution(-1.0, 1.0, np.array([0.0]))


def test_critical_point_values():
    a, lam = critical_point(1.0)
    assert abs(a - A_STAR) < 1e-10
    assert abs(lam - LAM_STAR) < 1e-12
    assert abs(lambda_slope(a)) <= 1e-12


def test_critical_point_scaling():
    a1, lam1 = critical_point(1.0)
    a_half, lam_half = critical_point(0.5)
    a2, lam2 = critical_point(2.0)
    assert abs(a_half - a1) < 1e-12 and abs(a2 - a1) < 1e-12
    assert abs(lam_half - 4.0 * lam1) < 1e-10
    assert abs(lam2 - lam1 / 4.0) < 1e-10
    assert abs(lam2 - 0.21961442) < 1e-6


def test_critical_point_amplitude_is_independent_of_half_width():
    # A* solves B tanh B = 1 whatever L is, so it is the same float on every domain
    amplitudes = {critical_point(L)[0] for L in (0.3, 0.5, 1.0, 2.0, 10.0)}
    assert len(amplitudes) == 1


def test_critical_point_matches_dense_sweep():
    # argmax over a 1e4-point sweep agrees within the sweep spacing
    amps = np.linspace(1e-3, 4.0, 10_000)
    lams = lambda_of_amplitude(amps, 1.0)
    a_sweep = amps[np.argmax(lams)]
    a, _ = critical_point(1.0)
    assert abs(a - a_sweep) <= amps[1] - amps[0]


def test_branch_amplitudes_basic():
    a_small, a_big = branch_amplitudes(0.25, 1.0)
    assert 0.0 < a_small < A_STAR < a_big
    assert abs(lambda_of_amplitude(a_small) - 0.25) < 1e-12
    assert abs(lambda_of_amplitude(a_big) - 0.25) < 1e-12


def test_branch_amplitudes_fold_coalescence():
    lam = LAM_STAR - 1e-12
    a_small, a_big = branch_amplitudes(lam, 1.0)
    assert a_small <= A_STAR <= a_big
    assert a_big - a_small < 1e-3


def test_branch_amplitudes_tiny_lambda_series():
    # A = lam L^2 / 2 + (5/24) (lam L^2)^2 + O((lam L^2)^3) as lam -> 0
    for L in (0.5, 1.0, 2.0):
        for x in (1e-12, 1e-9, 1e-6):
            a_small = branch_amplitudes(x / L**2, L)[0]
            series = x / 2.0 + 5.0 / 24.0 * x**2
            assert abs(a_small - series) <= 1e-12 * series


def test_branch_amplitudes_errors():
    for lam in (1.0, LAM_STAR, 0.0, -0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError):
            branch_amplitudes(lam, 1.0)


def test_bifurcation_curve_shape():
    curve = bifurcation_curve(1.0, samples=200)
    amps, lams = curve.amplitudes, curve.lams
    assert amps.shape == lams.shape == (200,)
    assert np.all(np.diff(amps) > 0)
    a_star, lam_star = curve.fold
    assert abs(a_star - A_STAR) < 1e-10
    rising = lams[amps < a_star]
    falling = lams[amps > a_star]
    assert np.all(np.diff(rising) > 0)
    assert np.all(np.diff(falling) < 0)
    for A, lam in zip(amps[::19].tolist(), lams[::19].tolist()):
        ratio = math.exp(A / 2.0) / math.cosh(math.sqrt(lam * math.exp(A) / 2.0))
        assert abs(ratio - 1.0) < 1e-12
    with pytest.raises(InvalidArgumentError):
        bifurcation_curve(1.0, samples=1)


# ---------------------------------------------------------------------------
# collocation solves
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid32():
    return cheb_points(32, 1.0)


@pytest.fixture(scope="module")
def dual_solutions(grid32):
    small = solve(0.25, EXP, grid32, 1, guess="zero")
    big = solve(0.25, EXP, grid32, 1, guess="onepoint", amplitude=6.0)
    return small, big


def test_solve_dual_branches_match_oracle(grid32, dual_solutions):
    small, big = dual_solutions
    a_small, a_big = branch_amplitudes(0.25, 1.0)
    assert branch_label(small) == "small"
    assert branch_label(big) == "big"
    assert abs(small.center_value() - a_small) < 1e-8
    assert abs(big.center_value() - a_big) < 1e-8
    assert np.max(np.abs(small.values - exact_solution(a_small, 1.0, grid32.points))) < 1e-8
    assert np.max(np.abs(big.values - exact_solution(a_big, 1.0, grid32.points))) < 1e-8


def test_solution_invariants(grid32, dual_solutions):
    d2 = second_diff_matrix(grid32)[1:-1, 1:-1]
    for sol in dual_solutions:
        assert sol.values[0] == 0.0 and sol.values[-1] == 0.0
        assert np.max(np.abs(sol.values - sol.values[::-1])) < 1e-10
        interior = sol.values[1:-1]
        resid = d2 @ interior + sol.lam * np.exp(interior)
        assert np.max(np.abs(resid)) < 1e-8


def test_update_norms_contract_at_the_end(dual_solutions):
    for sol in dual_solutions:
        tail = sol.trace.update_norms[-3:]
        assert tail[0] > tail[1] > tail[2]


@pytest.mark.parametrize("n", [200, 256])
def test_update_test_ends_solves_whose_residual_floor_is_above_its_tolerance(n):
    # on fine 1D grids the rounding floor of ||F||_inf lies above 1e-10, so
    # only the update test (default 1e-12) can end the solve: without it
    # these run all 25 steps and fail
    sol = solve(0.05, EXP, cheb_points(n, 1.0), 1, "onepoint")
    assert sol.trace.converged
    assert sol.trace.residual_norms[-1] > 1e-10
    assert sol.trace.update_norms[-1] <= 1e-12
    assert abs(sol.center_value() - branch_amplitudes(0.05)[1]) < 1e-10


def test_small_branch_convergence_order(dual_solutions):
    small, _ = dual_solutions
    assert convergence_order_estimate(small.trace) >= 1.8


def test_solve_lambda_zero_one_iteration(grid32):
    sol = solve(0.0, EXP, grid32, 1, guess="zero")
    assert sol.trace.iterations == 1
    assert np.max(np.abs(sol.values)) == 0.0
    assert branch_label(sol) == "unknown"


def test_solve_above_fold_fails(grid32):
    with pytest.raises(NewtonError) as info:
        solve(1.0, EXP, grid32, 1, guess="zero")
    assert info.value.trace is not None


def test_solve_custom_guess(grid32):
    a_small, a_big = branch_amplitudes(0.25, 1.0)
    guess = exact_solution(a_big, 1.0, grid32.points)
    sol = solve(0.25, EXP, grid32, 1, guess=guess)
    assert branch_label(sol) == "big"
    assert sol.trace.iterations <= 3


@pytest.mark.parametrize("n", [16, 32, 48])
def test_eigenfunction_guess_lands_on_the_small_branch(n):
    """The paper's small-branch start, the first eigenvector of the linear
    problem, in 1D as in 2D."""
    grid = cheb_points(n, 1.0)
    for lam in (0.1, 0.5, 0.87):
        sol = solve(lam, EXP, grid, 1, "eigenfunction")
        assert sol.trace.converged and sol.trace.iterations <= 6, lam
        assert branch_label(sol) == "small"
        assert abs(sol.center_value() - branch_amplitudes(lam)[0]) <= 1e-8


def test_solve_validation(grid32):
    with pytest.raises(InvalidArgumentError):
        solve(0.25, EXP, cheb_points(2, 1.0), 1)
    for lam in (-1.0, -1e-300, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="lam"):
            solve(lam, EXP, grid32, 1)
    with pytest.raises(InvalidArgumentError):
        solve(0.25, EXP, grid32, 1, guess="mystery")
    with pytest.raises(InvalidArgumentError):
        solve(0.25, EXP, grid32, 1, guess=np.zeros(5))
    for amplitude in (np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            solve(0.25, EXP, grid32, 1, guess="onepoint", amplitude=amplitude)
    for amplitude in (np.nan, 0.0, -1.0):
        with pytest.raises(InvalidArgumentError):
            solve(0.25, EXP, grid32, 1, guess="eigenfunction", amplitude=amplitude)


def test_branch_dichotomy_sweep():
    """Zero guess always lands small; the one-point guess lands big or
    fails outright, never small (its basin has gaps below the fold).
    Every label, within 1e-12 of the fold too, is the branch whose
    closed-form amplitude lies nearest the center value."""
    sweep = [frac * LAM_STAR for frac in np.linspace(0.05, 0.95, 19)]
    near_fold = [LAM_STAR - 10.0**-k for k in range(6, 13)]
    labelled = 0
    for n in (16, 32, 48):
        grid = cheb_points(n, 1.0)
        for lam in sweep + near_fold:
            a_small, a_big = branch_amplitudes(lam, 1.0)
            for guess, amplitude in (("zero", 0.0), ("onepoint", 6.0), ("onepoint", A_STAR)):
                try:
                    sol = solve(lam, EXP, grid, 1, guess=guess, amplitude=amplitude)
                except NewtonError:
                    assert guess == "onepoint" or lam in near_fold
                    continue
                center = sol.center_value()
                nearest = "small" if abs(center - a_small) <= abs(center - a_big) else "big"
                assert branch_label(sol) == nearest, (n, lam, guess, amplitude)
                if lam in sweep and amplitude != A_STAR:
                    assert branch_label(sol) == ("small" if guess == "zero" else "big")
                labelled += 1
    assert labelled >= 200


def test_stability_verdicts(grid32, dual_solutions):
    small, big = dual_solutions
    stable_s, mu_s, _ = stability_1d(small)
    stable_b, mu_b, _ = stability_1d(big)
    assert stable_s and mu_s > 0.0
    assert not stable_b and mu_b < 0.0


def test_stability_spectrum_at_zero_solution():
    # u = 0, lam = 0: the spectrum of -d^2/dx^2 is (k pi / 2L)^2
    grid = cheb_points(16, 1.0)
    sol = solve(0.0, EXP, grid, 1, guess="zero")
    _, mu_min, spectrum = stability_1d(sol)
    expect = (np.arange(1, 4) * np.pi / 2.0) ** 2
    assert abs(mu_min - expect[0]) < 1e-8
    assert np.max(np.abs(spectrum.values[:3].real - expect)) < 1e-8


def test_stability_sign_flip_at_fold():
    """Both branches lose their stability margin approaching the fold."""
    grid = cheb_points(32, 1.0)

    def mu_pair(lam):
        a_small, a_big = branch_amplitudes(lam, 1.0)
        small = solve(lam, EXP, grid, 1, guess="zero")
        big = solve(lam, EXP, grid, 1, guess=exact_solution(a_big, 1.0, grid.points))
        return stability_1d(small)[1], stability_1d(big)[1]

    mu_s_mid, mu_b_mid = mu_pair(0.5 * LAM_STAR)
    mu_s_near, mu_b_near = mu_pair(0.99 * LAM_STAR)
    assert mu_s_mid > 0.0 and mu_s_near > 0.0
    assert mu_b_mid < 0.0 and mu_b_near < 0.0
    assert abs(mu_s_near) < abs(mu_s_mid)
    assert abs(mu_b_near) < abs(mu_b_mid)


def test_stability_requires_convergence(grid32):
    fake = Solution(grid=grid32, values=np.zeros(33), lam=0.25, nonlinearity=EXP,
                    trace=NewtonTrace())
    with pytest.raises(InvalidArgumentError):
        stability_1d(fake)


# ---------------------------------------------------------------------------
# the other reaction terms, against an independent shooting oracle
# ---------------------------------------------------------------------------

NON_EXP = [("cosh", None), ("sinh", None), ("gelfand", 0.1)]
# u(L) changes sign once in each bracket at lam = 0.3 (for sinh the small
# solution is u = 0, the bracket's left end)
BRACKETS = {"zero": (0.0, 1.0), "onepoint": (1.0, 20.0)}


@pytest.fixture(scope="module")
def non_exp_solutions():
    grid = cheb_points(64, 1.0)
    return {(name, guess): solve(0.3, make_nonlinearity(name, eps), grid, 1, guess)
            for name, eps in NON_EXP for guess in BRACKETS}


@pytest.mark.parametrize("lam, half_width", [(0.3, 1.0), (2.0, 0.5)])
def test_shooting_oracle_matches_exp_closed_form(lam, half_width):
    expect = branch_amplitudes(lam, half_width)
    got = [shooting_center_1d(lam, "exp", None, BRACKETS[guess], half_width)
           for guess in ("zero", "onepoint")]
    assert np.max(np.abs(np.subtract(got, expect))) < 1e-13


@pytest.mark.parametrize("guess", list(BRACKETS))
@pytest.mark.parametrize("name, eps", NON_EXP)
def test_non_exp_centres_match_shooting_oracle(non_exp_solutions, name, eps, guess):
    sol = non_exp_solutions[name, guess]
    assert sol.nonlinearity is not EXP
    assert branch_label(sol) == "unknown"
    expect = shooting_center_1d(0.3, name, eps, BRACKETS[guess])
    assert abs(sol.center_value() - expect) < 1e-12
    assert sol.center_value() > 1.0 if guess == "onepoint" else sol.center_value() < 1.0


@pytest.mark.parametrize("name", ["cosh", "sinh", "gelfand"])
def test_non_exp_stability_verdicts(non_exp_solutions, name):
    stable_s, mu_s, _ = stability_1d(non_exp_solutions[name, "zero"])
    stable_b, mu_b, _ = stability_1d(non_exp_solutions[name, "onepoint"])
    assert stable_s and mu_s > 0.0
    assert not stable_b and mu_b < 0.0
    if name == "sinh":
        # about u = 0 the operator is -d^2/dx^2 - lam cosh(0)
        assert abs(mu_s - (np.pi**2 / 4.0 - 0.3)) < 1e-8


def test_exp_label_needs_the_shared_exp_term(grid32):
    # the closed-form label covers exp only: a term that is numerically
    # exp but not the shared object is not labelled
    lookalike = Nonlinearity(EXP.value, EXP.derivative)
    sol = solve(0.25, lookalike, grid32, 1, guess="zero")
    assert sol.nonlinearity is lookalike
    assert branch_label(sol) == "unknown"
    assert make_nonlinearity("exp") is EXP
