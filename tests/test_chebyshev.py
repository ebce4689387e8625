"""Grid, differentiation-matrix, transform and resampling tests."""

import warnings
from functools import reduce

import numpy as np
import pytest

from chebratu import (
    barycentric_resample,
    cheb_points,
    cheb_transform,
    diff_matrix,
    inverse_cheb_transform,
    second_diff_matrix,
)
from chebratu.errors import InvalidArgumentError
from oracles import cheb_coeffs_direct, cheb_values_direct


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_points_small_orders():
    assert np.allclose(cheb_points(1, 1.0).points, [1.0, -1.0], atol=0)
    assert np.allclose(cheb_points(2, 1.0).points, [1.0, 0.0, -1.0], atol=0)
    r = np.sqrt(2.0) / 2.0
    assert np.allclose(cheb_points(4, 1.0).points, [1.0, r, 0.0, -r, -1.0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 33])
@pytest.mark.parametrize("L", [0.5, 1.0, 2.5])
def test_points_invariants(n, L):
    grid = cheb_points(n, L)
    x = grid.points
    assert x.shape == (n + 1,)
    assert x[0] == L and x[n] == -L
    assert np.all(np.diff(x) < 0)
    for j in range(n + 1):
        assert abs(x[j] + x[n - j]) <= 1e-15 * L


def test_points_validation():
    with pytest.raises(InvalidArgumentError):
        cheb_points(0, 1.0)
    with pytest.raises(InvalidArgumentError):
        cheb_points(4, 0.0)
    with pytest.raises(InvalidArgumentError):
        cheb_points(4, -2.0)


# ---------------------------------------------------------------------------
# differentiation matrices
# ---------------------------------------------------------------------------


def test_diff_matrix_linear_grid():
    D = diff_matrix(cheb_points(1, 1.0))
    assert np.allclose(D, [[0.5, -0.5], [0.5, -0.5]], atol=1e-15)


@pytest.mark.parametrize("n", [2, 5, 12, 32])
def test_diff_matrix_monomials(n):
    grid = cheb_points(n, 1.0)
    D = diff_matrix(grid)
    x = grid.points
    assert np.max(np.abs(D @ x - 1.0)) < 1e-12
    assert np.max(np.abs(D @ x**2 - 2.0 * x)) < 1e-11


def test_diff_matrix_row_sums():
    for n in (4, 16, 48):
        D = diff_matrix(cheb_points(n, 1.5))
        assert np.max(np.abs(D.sum(axis=1))) < 1e-12


def test_diff_matrix_parity():
    for n in (5, 8, 16):
        grid = cheb_points(n, 1.0)
        D = diff_matrix(grid)
        D2 = second_diff_matrix(grid)
        assert np.max(np.abs(D + D[::-1, ::-1])) < 1e-12 * np.max(np.abs(D))
        assert np.max(np.abs(D2 - D2[::-1, ::-1])) < 1e-12 * np.max(np.abs(D2))


def test_diff_matrix_scaling_exact():
    for n in (4, 9, 16):
        ref1 = diff_matrix(cheb_points(n, 1.0))
        ref2 = second_diff_matrix(cheb_points(n, 1.0))
        for L in (0.5, 2.0, 2.5, np.pi / 2):
            assert np.array_equal(diff_matrix(cheb_points(n, L)), ref1 / L)
            assert np.array_equal(
                second_diff_matrix(cheb_points(n, L)), ref2 / L**2
            )


def test_second_diff_matrix_basics():
    grid = cheb_points(8, 1.0)
    d2 = second_diff_matrix(grid)
    x = grid.points
    assert np.max(np.abs(d2 @ x**2 - 2.0)) < 1e-11
    assert np.max(np.abs(d2 @ np.ones(9))) < 1e-12
    # both matrices are plain read-only arrays of the full grid
    for d in (d2, diff_matrix(grid)):
        assert type(d) is np.ndarray and d.shape == (9, 9) and not d.flags.writeable


def test_second_diff_interior_n2():
    d2 = second_diff_matrix(cheb_points(2, 1.0))
    # u = 1 - x^2 has interior value 1 and u'' = -2, so the 1x1 block is [-2]
    assert np.allclose(d2[1:-1, 1:-1], [[-2.0]], atol=1e-13)


def test_second_diff_order_validation():
    with pytest.raises(InvalidArgumentError):
        second_diff_matrix(cheb_points(1, 1.0))
    # 1 / L**2 is finite, but times the reference entries of order n**4 it
    # is not: the half-width is named, and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="half-width"):
            second_diff_matrix(cheb_points(32, 1e-153))


def test_polynomial_exactness_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 25))
        L = float(rng.choice([0.5, 1.0, 2.0]))
        deg = int(rng.integers(1, n + 1))
        coeff = rng.uniform(-1.0, 1.0, deg + 1)
        grid = cheb_points(n, L)
        s = grid.points / L  # polynomial in the unit variable, p(x/L)
        p = np.polyval(coeff, s)
        dp = np.polyval(np.polyder(coeff), s) / L
        ddp = np.polyval(np.polyder(coeff, 2), s) / L**2
        D = diff_matrix(grid)
        D2 = second_diff_matrix(grid)
        tol1 = 1e-10 * (1.0 + np.max(np.abs(D)))
        tol2 = 1e-10 * (1.0 + np.max(np.abs(D2)))
        assert np.max(np.abs(D @ p - dp)) < tol1
        assert np.max(np.abs(D2 @ p - ddp)) < tol2


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_transform_chebyshev_polynomial():
    grid = cheb_points(8, 1.0)
    t2 = 2.0 * grid.points**2 - 1.0
    a = cheb_transform(grid, t2)
    assert abs(a[2] - 1.0) < 1e-14
    mask = np.ones(9, bool)
    mask[2] = False
    assert np.max(np.abs(a[mask])) < 1e-14


def test_transform_constant():
    grid = cheb_points(6, 1.0)
    a = cheb_transform(grid, np.ones(7))
    assert abs(a[0] - 1.0) < 1e-15
    assert np.max(np.abs(a[1:])) < 1e-15


def test_transform_cubic():
    grid = cheb_points(8, 1.0)
    a = cheb_transform(grid, grid.points**3)
    assert abs(a[1] - 0.75) < 1e-14
    assert abs(a[3] - 0.25) < 1e-14
    mask = np.ones(9, bool)
    mask[[1, 3]] = False
    assert np.max(np.abs(a[mask])) < 1e-14


def test_transform_scaled_domain():
    # coefficients are those of T_k(x / L)
    grid = cheb_points(8, 2.0)
    a = cheb_transform(grid, (grid.points / 2.0) ** 3)
    assert abs(a[1] - 0.75) < 1e-14
    assert abs(a[3] - 0.25) < 1e-14


def test_transform_fast_direct_agreement():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        grid = cheb_points(n, 1.0)
        v = rng.uniform(-1.0, 1.0, n + 1)
        fast = cheb_transform(grid, v)
        direct = cheb_coeffs_direct(v)
        assert np.max(np.abs(fast - direct)) < 1e-13 * max(1.0, np.max(np.abs(v)))


def test_transform_round_trip_property():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        grid = cheb_points(n, float(rng.choice([0.5, 1.0, 3.0])))
        v = rng.uniform(-5.0, 5.0, n + 1)
        coeffs = cheb_transform(grid, v)
        back = inverse_cheb_transform(grid, coeffs)
        assert np.max(np.abs(back - v)) < 1e-13 * np.max(np.abs(v))
        direct = cheb_values_direct(coeffs)
        assert np.max(np.abs(back - direct)) < 1e-13 * np.max(np.abs(v))


def test_transform_validation():
    grid = cheb_points(8, 1.0)
    with pytest.raises(InvalidArgumentError):
        cheb_transform(grid, np.ones(8))
    with pytest.raises(InvalidArgumentError):
        cheb_transform(grid, 1.0)


def test_transform_2d_product_polynomial():
    grid = cheb_points(6, 1.0)
    x = grid.points
    t1 = x
    t2 = 2.0 * x**2 - 1.0
    values = np.outer(t1, t2)  # values[i, j] = T1(x_i) T2(x_j)
    a = cheb_transform(grid, values)
    assert abs(a[1, 2] - 1.0) < 1e-14
    mask = np.ones_like(a, bool)
    mask[1, 2] = False
    assert np.max(np.abs(a[mask])) < 1e-14


def test_transform_2d_constant():
    grid = cheb_points(5, 1.0)
    a = cheb_transform(grid, np.ones((6, 6)))
    assert abs(a[0, 0] - 1.0) < 1e-14
    mask = np.ones_like(a, bool)
    mask[0, 0] = False
    assert np.max(np.abs(a[mask])) < 1e-14


def test_transform_2d_biquadratic():
    grid = cheb_points(6, 1.0)
    x = grid.points
    values = np.outer(1.0 - x**2, 1.0 - x**2)
    a = cheb_transform(grid, values)
    # 1 - x^2 = (T0 - T2) / 2, so the nonzero block is {0,2} x {0,2}
    for (k, l), val in np.ndenumerate(np.outer([0.5, -0.5], [0.5, -0.5])):
        assert abs(a[2 * k, 2 * l] - val) < 1e-14
    mask = np.ones_like(a, bool)
    mask[np.ix_([0, 2], [0, 2])] = False
    assert np.max(np.abs(a[mask])) < 1e-14


def test_transform_2d_round_trip_and_validation():
    rng = np.random.default_rng(17)
    grid = cheb_points(9, 1.0)
    v = rng.uniform(-1.0, 1.0, (10, 10))
    coeffs = cheb_transform(grid, v)
    assert np.max(np.abs(coeffs - cheb_coeffs_direct(cheb_coeffs_direct(v, 0), 1))) < 1e-13
    back = inverse_cheb_transform(grid, coeffs)
    assert np.max(np.abs(back - v)) < 1e-13
    direct = cheb_values_direct(cheb_values_direct(coeffs, 0), 1)
    assert np.max(np.abs(back - direct)) < 1e-13
    with pytest.raises(InvalidArgumentError):
        cheb_transform(grid, np.ones((10, 9)))


# ---------------------------------------------------------------------------
# barycentric resampling
# ---------------------------------------------------------------------------


def test_resample_quintic_exact():
    grid = cheb_points(8, 1.0)
    v = grid.points**5
    t = np.linspace(-1.0, 1.0, 37)
    assert np.max(np.abs(barycentric_resample(grid, v, t) - t**5)) < 1e-12


def test_resample_at_nodes_is_identity():
    grid = cheb_points(10, 2.0)
    rng = np.random.default_rng(3)
    v = rng.uniform(-1.0, 1.0, 11)
    out = barycentric_resample(grid, v, grid.points)
    assert np.array_equal(out, v)


def test_resample_random_polynomials_vs_direct_evaluation():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        L = float(rng.choice([0.5, 1.0, 2.0]))
        grid = cheb_points(n, L)
        coeff = rng.uniform(-1.0, 1.0, n + 1)
        v = np.polyval(coeff, grid.points / L)
        t = np.linspace(-L, L, 100)
        direct = np.polyval(coeff, t / L)
        assert np.max(np.abs(barycentric_resample(grid, v, t) - direct)) < 1e-11


def test_resample_target_validation():
    grid = cheb_points(6, 1.0)
    with pytest.raises(InvalidArgumentError):
        barycentric_resample(grid, np.zeros(7), [1.5])
    with pytest.raises(InvalidArgumentError):
        barycentric_resample(grid, np.zeros(6), [0.0])
    # one target array per axis of the samples, for any number of axes
    with pytest.raises(InvalidArgumentError):
        barycentric_resample(grid, np.zeros(7), [0.0], [0.0])
    with pytest.raises(InvalidArgumentError):
        barycentric_resample(grid, np.zeros((7, 7)), [0.0])
    with pytest.raises(InvalidArgumentError):
        barycentric_resample(grid, np.zeros((7, 7, 7)), [0.0], [0.0])
    assert barycentric_resample(grid, np.ones((7, 7, 7)), [0.0], [0.5], [1.0]).shape == (1, 1, 1)


def test_resample_2d_tensor_polynomial():
    """A product polynomial resampled over 1, 2 and 3 axes, with a different
    target count per axis."""
    grid = cheb_points(7, 1.0)
    x = grid.points
    factors = [lambda t: t**3, lambda t: 1.0 - t**2, lambda t: t**7 - t]
    targets = [np.linspace(-1.0, 1.0, k) for k in (9, 11, 4)]
    for ndim in (1, 2, 3):
        values = reduce(np.multiply.outer, [f(x) for f in factors[:ndim]])
        out = barycentric_resample(grid, values, *targets[:ndim])
        expect = reduce(np.multiply.outer, [f(t) for f, t in zip(factors, targets[:ndim])])
        assert out.shape == expect.shape
        assert np.max(np.abs(out - expect)) < 1e-12
