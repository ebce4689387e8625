"""Coefficient-decay, parity and symmetry report tests."""

import numpy as np
import pytest

from chebratu import (
    Field2D,
    cheb_points,
    decay_report,
    guess_eigenfunction,
    guess_onepoint,
    make_nonlinearity,
    solve_1d,
    solve_2d,
    symmetry_report,
)
from chebratu.errors import InvalidArgumentError


def _report_2d(field):
    """Decay report of a 2D field, samples with x on axis 0."""
    return decay_report(field.grid, field.embed().T)


@pytest.fixture(scope="module")
def grid16():
    return cheb_points(16, 1.0)


@pytest.fixture(scope="module")
def solutions_1d():
    grid = cheb_points(32, 1.0)
    small = solve_1d(0.25, grid, guess="zero")
    big = solve_1d(0.25, grid, guess="onepoint", amplitude=6.0)
    return small, big


@pytest.fixture(scope="module")
def solutions_2d(grid16):
    nl = make_nonlinearity("exp")
    small = solve_2d(0.5, nl, grid16, guess_eigenfunction(grid16, 0.1))
    big = solve_2d(0.5, nl, grid16, guess_onepoint(grid16, 6.0))
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
    f = guess_eigenfunction(grid16, 1.0)
    rep = _report_2d(f)
    assert rep.odd_floor <= 1e-12
    assert rep.fit_rate < 0.0


def test_2d_solution_rate_shallower_than_eigenfunction(grid16, solutions_2d):
    small, _ = solutions_2d
    rep_sol = _report_2d(small)
    rep_eig = _report_2d(guess_eigenfunction(grid16, 1.0))
    assert rep_sol.odd_floor <= 1e-12
    assert rep_sol.fit_rate < 0.0
    assert rep_sol.fit_rate > rep_eig.fit_rate


def test_2d_biquadratic_coefficients(grid16):
    rep = _report_2d(guess_onepoint(grid16, 1.0))
    mags = rep.coeffs
    mask = np.zeros_like(mags, dtype=bool)
    mask[3:, :] = True
    mask[:, 3:] = True
    assert np.max(mags[mask]) <= 1e-14


def test_zero_field_report(grid16):
    rep = _report_2d(Field2D(grid=grid16, interior=np.zeros((15, 15))))
    assert rep.odd_floor == 0.0
    assert rep.even_floor == 0.0


def test_symmetry_report_examples(grid16):
    guess = guess_onepoint(grid16, 6.0)
    rep = symmetry_report(guess)
    assert rep.rot90_dev == 0.0
    assert rep.transpose_dev == 0.0
    assert rep.reflect_x_dev == 0.0
    assert rep.reflect_y_dev == 0.0

    bumped = guess.interior.copy()
    bumped[2, 5] += 1e-3
    rep2 = symmetry_report(Field2D(grid=grid16, interior=bumped))
    assert abs(rep2.rot90_dev - 1e-3) < 1e-15


def test_symmetry_report_on_solutions(solutions_2d):
    for sol in solutions_2d:
        rep = symmetry_report(sol)
        assert rep.rot90_dev <= 1e-9
        assert rep.transpose_dev <= 1e-9
        assert rep.reflect_x_dev <= 1e-9
        assert rep.reflect_y_dev <= 1e-9


def test_symmetry_report_validation(grid16):
    with pytest.raises(InvalidArgumentError):
        symmetry_report(Field2D(grid=grid16, interior=np.zeros((3, 4))))


def test_symmetrizing_never_increases_reports(grid16):
    """Averaging a field over the dihedral group can only shrink every
    reported deviation and the odd-coefficient floor."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0, (15, 15))
        images = [u, np.rot90(u), np.rot90(u, 2), np.rot90(u, 3)]
        images += [img.T for img in images]
        sym = np.mean(images, axis=0)
        before_sym = symmetry_report(Field2D(grid=grid16, interior=u))
        after_sym = symmetry_report(Field2D(grid=grid16, interior=sym))
        for name in ("rot90_dev", "transpose_dev", "reflect_x_dev", "reflect_y_dev"):
            assert getattr(after_sym, name) <= getattr(before_sym, name) + 1e-15
        before = _report_2d(Field2D(grid=grid16, interior=u))
        after = _report_2d(Field2D(grid=grid16, interior=sym))
        assert after.odd_floor <= before.odd_floor + 1e-15
