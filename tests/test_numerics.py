"""LU-solve and eigendecomposition contract tests."""

import numpy as np
import pytest

from chebratu import cheb_points, eig_general, gmres, lu_solve, second_diff_matrix
from chebratu.errors import InvalidArgumentError, NumericalFailureError, SingularMatrixError
from chebratu.numerics import _GMRES_MAXITER, _GMRES_RTOL, _back_substitute


def _real_spectrum(rng, m):
    """``S diag(w) S^-1`` with distinct real eigenvalues ``w`` in [-2, 2]."""
    w = rng.permutation(np.linspace(-2.0, 2.0, m)) + rng.uniform(-0.01, 0.01, m)
    s = rng.uniform(-1.0, 1.0, (m, m)) + m * np.eye(m)
    return s @ np.diag(w) @ np.linalg.inv(s)


def _well_conditioned(rng, m):
    a = rng.uniform(-1.0, 1.0, (m, m))
    a[np.arange(m), np.arange(m)] = np.sum(np.abs(a), axis=1) + 1.0
    return a


def test_lu_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(lu_solve(np.eye(3), b), b)


def test_lu_hand_elimination():
    x = lu_solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 5.0]))
    assert np.allclose(x, [0.8, 1.4], atol=1e-14)


def test_lu_singular():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
    with pytest.raises(SingularMatrixError):
        lu_solve(np.zeros((2, 2)), np.ones(2))


def test_lu_validation():
    with pytest.raises(InvalidArgumentError):
        lu_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(InvalidArgumentError):
        lu_solve(np.eye(2), np.ones(3))
    with pytest.raises(InvalidArgumentError):
        lu_solve(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(InvalidArgumentError):
        lu_solve(np.eye(2), np.array([np.nan, 0.0]))


def test_lu_residual_property():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(2, 201))
        a = _well_conditioned(rng, m)
        b = rng.uniform(-1.0, 1.0, m)
        x = lu_solve(a, b)
        norm_a = np.max(np.sum(np.abs(a), axis=1))
        norm_x = max(np.max(np.abs(x)), 1e-300)
        assert np.max(np.abs(a @ x - b)) <= 1e-10 * norm_a * norm_x


def test_gmres_solves_nonsymmetric_system():
    rng = np.random.default_rng(13)
    for m in (5, 60, 150):
        a = _well_conditioned(rng, m)
        b = rng.uniform(-1.0, 1.0, m)
        jacobi = 1.0 / np.diag(a)
        x, iterations = gmres(lambda v: a @ v, b, lambda v: jacobi * v)
        assert 1 <= iterations <= _GMRES_MAXITER
        assert np.linalg.norm(a @ x - b) <= 10.0 * _GMRES_RTOL * np.linalg.norm(b)
        assert np.max(np.abs(x - np.linalg.solve(a, b))) <= 1e-11 * np.max(np.abs(x))


def test_gmres_zero_right_hand_side():
    a = _well_conditioned(np.random.default_rng(17), 8)
    x, iterations = gmres(lambda v: a @ v, np.zeros(8), lambda v: v)
    assert iterations == 0
    assert np.array_equal(x, np.zeros(8))


def test_gmres_rank_deficient_raises():
    rng = np.random.default_rng(19)
    for m, rank in ((6, 3), (300, 299)):
        a = rng.uniform(-1.0, 1.0, (m, rank)) @ rng.uniform(-1.0, 1.0, (rank, m))
        calls = []

        def apply(v):
            calls.append(1)
            return a @ v

        with pytest.raises(SingularMatrixError):
            gmres(apply, rng.uniform(-1.0, 1.0, m), lambda v: v)
        # one product per Arnoldi step, one residual per restart cycle
        assert len(calls) <= 2 * _GMRES_MAXITER


def test_gmres_back_substitution_matches_scipy_bit_for_bit():
    # the least-squares step of each GMRES cycle gives SciPy's bytes, so
    # 2D solves need no SciPy
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(23)
    for m in range(1, 41):
        for _ in range(20):
            r = np.triu(rng.standard_normal((m, m)))
            r[np.diag_indices(m)] = np.abs(np.diag(r)) + rng.uniform(1e-3, 1.0, m)
            g = rng.standard_normal(m)
            assert np.array_equal(_back_substitute(r, g),
                                  solve_triangular(r, g, check_finite=False)), m


def test_eig_diagonal():
    res = eig_general(np.diag([3.0, 1.0, 2.0]), want_vectors=False)
    assert np.allclose(res.values, [1.0, 2.0, 3.0], atol=1e-14)


def test_eig_symmetric_2x2():
    res = eig_general(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(res.values, [1.0, 3.0], atol=1e-12)


def test_eig_rotation_generator():
    # eigenvalues +-i: a complex spectrum is a numerical failure
    with pytest.raises(NumericalFailureError):
        eig_general(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(NumericalFailureError):
        eig_general(np.array([[0.0, -1.0], [1.0, 0.0]]), want_vectors=False)


def test_eig_vector_normalization():
    rng = np.random.default_rng(9)
    a = _real_spectrum(rng, 8)
    res = eig_general(a)
    for k in range(8):
        v = res.vectors[:, k]
        assert abs(np.max(np.abs(v)) - 1.0) < 1e-13
        lead = np.nonzero(np.abs(v) > 1e-12)[0][0]
        assert v[lead] > 0.0


@pytest.mark.parametrize("n", [7, 16, 48])
def test_eig_of_chebyshev_d2_is_real_and_normalized(n):
    d2 = second_diff_matrix(cheb_points(n))[1:-1, 1:-1]
    res = eig_general(d2)
    assert res.values.dtype == np.float64
    assert res.vectors.dtype == np.float64
    assert np.all(np.diff(res.values) >= 0.0) and res.values[-1] < 0.0
    for k in range(n - 1):
        v = res.vectors[:, k]
        assert np.max(np.abs(v)) == 1.0
        assert v[np.argmax(np.abs(v) > 1e-12)] > 0.0


def test_eig_residual_trace_transpose_properties():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = int(rng.integers(2, 31))
        a = _real_spectrum(rng, m)
        norm_a = np.max(np.sum(np.abs(a), axis=1))
        res = eig_general(a)
        tol = 1e-8 * norm_a
        assert abs(np.sum(res.values) - np.trace(a)) <= tol * m
        rest = eig_general(a.T, want_vectors=False)
        assert np.max(np.abs(res.values - rest.values)) <= tol
        for k in range(m):
            v = res.vectors[:, k]
            resid = a @ v - res.values[k] * v
            assert np.max(np.abs(resid)) <= tol * np.max(np.abs(v))


def test_eig_validation():
    with pytest.raises(InvalidArgumentError):
        eig_general(np.ones((2, 3)))
    with pytest.raises(InvalidArgumentError):
        eig_general(np.array([[np.nan, 0.0], [0.0, 1.0]]))
