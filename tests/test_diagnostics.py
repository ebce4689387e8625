"""Coefficient-decay, parity and symmetry report tests."""

import numpy as np
import pytest

from chebratu import (
    cheb_points,
    decay_report,
    initial_guess,
    laplacian,
    make_nonlinearity,
    solve,
    symmetry_report,
)
from chebratu.diagnostics import _fit_and_plateau
from chebratu.errors import InvalidArgumentError


def _report_2d(grid, interior):
    """Decay report of an interior field ``[iy, ix]``, samples with x on axis 0."""
    return decay_report(grid, np.pad(interior, 1).T)


def _eigenfunction(grid, amplitude):
    return initial_guess(grid, laplacian(grid, 2), "eigenfunction", amplitude)


@pytest.fixture(scope="module")
def grid16():
    return cheb_points(16, 1.0)


@pytest.fixture(scope="module")
def solutions_1d():
    grid = cheb_points(32, 1.0)
    nl = make_nonlinearity("exp")
    small = solve(0.25, nl, grid, 1, guess="zero")
    big = solve(0.25, nl, grid, 1, guess="onepoint", amplitude=6.0)
    return small, big


@pytest.fixture(scope="module")
def solutions_2d(grid16):
    nl = make_nonlinearity("exp")
    small = solve(0.5, nl, grid16, 2, "eigenfunction", 0.1)
    big = solve(0.5, nl, grid16, 2, "onepoint", 6.0)
    return small, big


def test_even_function_has_vanishing_odd_coefficients():
    grid = cheb_points(20, 1.0)
    rep = decay_report(grid, np.cos(grid.points))
    assert rep.odd_floor <= 1e-14
    assert rep.fit_rate is not None and rep.fit_rate < 0.0


def test_1d_solution_parity_and_rates(solutions_1d):
    small, big = solutions_1d
    rep_small = decay_report(small.grid, small.values)
    rep_big = decay_report(big.grid, big.values)
    assert rep_small.odd_floor <= 1e-12
    assert rep_big.odd_floor <= 1e-12
    assert rep_small.fit_rate < 0.0
    assert rep_big.fit_rate < 0.0
    # the big solution needs more modes: its decay is shallower
    assert rep_small.fit_rate < rep_big.fit_rate
    assert rep_small.plateau < 1e-12


def test_2d_eigenfunction_parity_and_rate(grid16):
    rep = _report_2d(grid16, _eigenfunction(grid16, 1.0))
    assert rep.odd_floor <= 1e-12
    assert rep.fit_rate < 0.0


def test_2d_solution_rate_shallower_than_eigenfunction(grid16, solutions_2d):
    small, _ = solutions_2d
    rep_sol = decay_report(small.grid, small.values.T)
    rep_eig = _report_2d(grid16, _eigenfunction(grid16, 1.0))
    assert rep_sol.odd_floor <= 1e-12
    assert rep_sol.fit_rate < 0.0
    assert rep_sol.fit_rate > rep_eig.fit_rate


def test_2d_biquadratic_coefficients(grid16):
    rep = _report_2d(grid16, initial_guess(grid16, laplacian(grid16, 2), "onepoint", 1.0))
    mags = rep.coeffs
    mask = np.zeros_like(mags, dtype=bool)
    mask[3:, :] = True
    mask[:, 3:] = True
    assert np.max(mags[mask]) <= 1e-14


def test_fit_rate_stops_at_an_exactly_zero_coefficient():
    # log10 of an exact zero is no decay data: the plateau starts there, and
    # the fit gives the slope the series has with 1e-17 (on its line) there
    indices = np.arange(0, 35, 2)
    rates = []
    for last in (1e-17, 0.0):
        mags = 10.0 ** (-0.5 * indices)
        mags[-1] = last
        rates.append(_fit_and_plateau(indices, mags)[0])
    assert abs(rates[0] + 0.5) < 1e-12
    assert abs(rates[1] - rates[0]) < 1e-12


def test_fit_rate_stops_at_rounding_noise():
    """The plateau starts at the first coefficient at or below 1e-13 of the
    largest at the latest: noise under that level leaves the fitted slope
    as it is, and so does a 1e-15 relative change in a solution's values,
    which moved the slope fitted to its 1e-17 coefficients by up to 0.1."""
    indices = np.arange(0, 35, 2)
    mags = 10.0 ** (-0.5 * indices)
    noisy = mags.copy()
    noisy[indices >= 28] = [3e-14, 2e-15, 5e-14, 1e-16]
    assert abs(_fit_and_plateau(indices, noisy)[0] + 0.5) < 1e-12
    nl = make_nonlinearity("exp")
    rng = np.random.default_rng(11)
    for lam, n in ((0.1, 16), (0.1, 32), (0.25, 48)):
        sol = solve(lam, nl, cheb_points(n, 1.0), 1)
        rate = decay_report(sol.grid, sol.values).fit_rate
        for _ in range(10):
            values = sol.values * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, n + 1))
            assert abs(decay_report(sol.grid, values).fit_rate - rate) < 1e-4, (lam, n)


def test_zero_field_report(grid16):
    rep = _report_2d(grid16, np.zeros((15, 15)))
    assert rep.odd_floor == 0.0
    assert rep.even_floor == 0.0


def test_symmetry_report_examples(grid16):
    guess = initial_guess(grid16, laplacian(grid16, 2), "onepoint", 6.0)
    rep = symmetry_report(guess)
    assert rep.rot90_dev == 0.0
    assert rep.transpose_dev == 0.0
    assert rep.reflect_x_dev == 0.0
    assert rep.reflect_y_dev == 0.0

    bumped = guess.copy()
    bumped[2, 5] += 1e-3
    rep2 = symmetry_report(bumped)
    assert abs(rep2.rot90_dev - 1e-3) < 1e-15


def test_symmetry_report_on_solutions(solutions_2d):
    for sol in solutions_2d:
        rep = symmetry_report(sol.interior)
        assert rep.rot90_dev <= 1e-9
        assert rep.transpose_dev <= 1e-9
        assert rep.reflect_x_dev <= 1e-9
        assert rep.reflect_y_dev <= 1e-9


def test_symmetry_report_validation(grid16):
    with pytest.raises(InvalidArgumentError):
        symmetry_report(np.zeros((3, 4)))
    with pytest.raises(InvalidArgumentError):
        symmetry_report(np.zeros(15))


def test_symmetrizing_never_increases_reports(grid16):
    """Averaging a field over the dihedral group can only shrink every
    reported deviation and the odd-coefficient floor."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0, (15, 15))
        images = [u, np.rot90(u), np.rot90(u, 2), np.rot90(u, 3)]
        images += [img.T for img in images]
        sym = np.mean(images, axis=0)
        before_sym = symmetry_report(u)
        after_sym = symmetry_report(sym)
        for name in ("rot90_dev", "transpose_dev", "reflect_x_dev", "reflect_y_dev"):
            assert getattr(after_sym, name) <= getattr(before_sym, name) + 1e-15
        before = _report_2d(grid16, u)
        after = _report_2d(grid16, sym)
        assert after.odd_floor <= before.odd_floor + 1e-15
