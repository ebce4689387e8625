"""Reference values computed independently of ``chebratu``.

Nothing here imports the package under test: each oracle rebuilds its
problem from the textbook formulas, so a fault in the program cannot
leak into the value it is checked against.  The expensive oracles are
cached at module level, so every test file that uses one pays for it
once per session.
"""

import math
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.sparse.linalg import spsolve


def fold_1d() -> tuple[float, float]:
    """Fold ``(A*, lam*)`` of ``u'' + lam e^u = 0`` on ``[-1, 1]``.

    With ``A = 2 ln cosh B`` the curve is ``lam = 2 B^2 / cosh^2 B``, whose
    maximum solves ``B tanh B = 1``; scalar Newton from ``B = 1.2``.
    """
    b = 1.2
    for _ in range(50):
        step = (b * math.tanh(b) - 1.0) / (math.tanh(b) + b / math.cosh(b) ** 2)
        b -= step
        if abs(step) <= 1e-16 * b:
            return 2.0 * math.log(math.cosh(b)), 2.0 * b * b / math.cosh(b) ** 2
    raise RuntimeError("B tanh B = 1: Newton did not converge")


def lambda_slope_1d(amplitude: float) -> float:
    """``d lam / dA`` of the closed-form curve on ``[-1, 1]``.

    With ``B = arccosh(e^{A/2})``: ``2 B (1 - B tanh B) / (cosh B sinh B)``.
    """
    b = math.acosh(math.exp(amplitude / 2.0))
    return 2.0 * b * (1.0 - b * math.tanh(b)) / (math.cosh(b) * math.sinh(b))


def fd_center(lam: float, intervals: int) -> float:
    """Centre value of the five-point finite-difference solution of
    ``Lap u + lam e^u = 0`` on ``[-1, 1]^2`` with ``u = 0`` on the boundary.

    ``intervals`` (even) uniform intervals per axis; sparse Newton from the
    small-branch guess ``0.1 cos(pi x / 2) cos(pi y / 2)``.
    """
    h = 2.0 / intervals
    m = intervals - 1
    x = np.linspace(-1.0, 1.0, intervals + 1)[1:-1]
    second = sp.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)], [-1, 0, 1]) / h**2
    eye = sp.identity(m)
    lap = (sp.kron(eye, second) + sp.kron(second, eye)).tocsc()
    mode = np.cos(0.5 * np.pi * x)
    u = 0.1 * np.outer(mode, mode).reshape(-1)
    for _ in range(20):
        source = lam * np.exp(u)
        step = spsolve((lap + sp.diags(source)).tocsc(), -(lap @ u + source))
        u += step
        if np.max(np.abs(step)) <= 1e-13:
            return float(u.reshape(m, m)[m // 2, m // 2])
    raise RuntimeError(f"finite-difference Newton did not converge at N = {intervals}")


@lru_cache(maxsize=None)
def fd_center_richardson(lam: float) -> float:
    """Centre value extrapolated from :func:`fd_center` on N = 32, 64, 128.

    One Richardson step removes the ``h^2`` error term, a second the
    ``h^4`` term.
    """
    coarse, mid, fine = (fd_center(lam, n) for n in (32, 64, 128))
    r_coarse = (4.0 * mid - coarse) / 3.0
    r_fine = (4.0 * fine - mid) / 3.0
    return (16.0 * r_fine - r_coarse) / 15.0


def cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Trefethen's Chebyshev differentiation matrix on ``x_j = cos(pi j / n)``."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, x


def kron_laplacian(n: int, half_width: float = 1.0, ndim: int = 2) -> np.ndarray:
    """Dense Dirichlet Laplacian of the order-``n`` tensor grid on
    ``[-L, L]^ndim``, the sum over the axes of ``kron(I, .., D2, .., I)``
    with ``D2`` in that axis's place, acting on interior vectors ordered
    x-fastest (the last axis fastest); ``D2`` is the interior block of
    :func:`cheb` squared.  In 2D it is ``kron(D2, I) + kron(I, D2)``."""
    d, _ = cheb(n)
    d2 = (d @ d)[1:-1, 1:-1] / half_width**2
    eye = np.eye(n - 1)
    return sum(reduce(np.kron, [d2 if j == axis else eye for j in range(ndim)])
               for axis in range(ndim))


def _reaction(name: str, epsilon: float | None):
    """``(f, f')`` of the named reaction term."""
    if name == "gelfand":
        return (lambda u: np.exp(u / (1.0 + epsilon * u)),
                lambda u: np.exp(u / (1.0 + epsilon * u)) / (1.0 + epsilon * u) ** 2)
    return {"exp": (np.exp, np.exp), "cosh": (np.cosh, np.sinh), "sinh": (np.sinh, np.cosh)}[name]


def shooting_center_1d(lam: float, name: str, epsilon: float | None, bracket,
                       half_width: float = 1.0) -> float:
    """Centre ``A = u(0)`` in ``bracket`` of the even solution of
    ``u'' + lam f(u) = 0`` on ``[-L, L]`` with ``u(+-L) = 0``.

    Shooting: ``u(0) = A``, ``u'(0) = 0`` is integrated to ``x = L`` by
    DOP853 (rtol 1e-13, atol 1e-14) and ``brentq`` finds the root of
    ``u(L)`` in ``A``.  An integration stops early once ``u`` falls to
    -1, which keeps ``u(L)`` continuous in ``A`` and clear of the blow-up
    of cosh and of the gelfand pole; the sign of ``u(L)`` must differ at
    the two ends of ``bracket``.
    """
    f = _reaction(name, epsilon)[0]

    def fallen(x, y):
        return y[0] + 1.0

    fallen.terminal = True

    def end_value(amplitude):
        path = solve_ivp(lambda x, y: [y[1], -lam * f(y[0])], (0.0, half_width),
                         [amplitude, 0.0], method="DOP853", rtol=1e-13, atol=1e-14,
                         events=fallen)
        return path.y[0, -1]

    return brentq(end_value, *bracket, xtol=1e-15, rtol=1e-15)


@lru_cache(maxsize=None)
def _ground_state(n: int) -> np.ndarray:
    """Eigenvector of the smallest eigenvalue of ``-kron_laplacian(n)``,
    from a dense nonsymmetric ``numpy.linalg.eig``, scaled to maximum 1."""
    values, vectors = np.linalg.eig(-kron_laplacian(n))
    v = np.real(vectors[:, np.argmin(values.real)])
    v = v if v[np.argmax(np.abs(v))] > 0.0 else -v
    return v / v.max()


@lru_cache(maxsize=None)
def collocation_newton_2d(lam: float, n: int, name: str = "exp", epsilon: float | None = None,
                          amplitude: float | None = None) -> tuple[np.ndarray, int]:
    """Interior solution ``U[iy, ix]`` and Newton iteration count of the
    order-``n`` collocation system ``Lap u + lam f(u) = 0`` on ``[-1, 1]^2``.

    ``Lap`` is :func:`kron_laplacian`.  Undamped Newton with dense solves
    starts from ``amplitude (1 - x^2)(1 - y^2)``, or, with no amplitude,
    from the :func:`_ground_state` scaled to maximum 0.1, and stops when the
    update is below 1e-12 or the residual below 1e-10.
    """
    lap = kron_laplacian(n)
    f, df = _reaction(name, epsilon)
    if amplitude is None:
        u = 0.1 * _ground_state(n)
    else:
        factor = 1.0 - cheb(n)[1][1:-1] ** 2
        u = amplitude * np.outer(factor, factor).reshape(-1)
    for iteration in range(1, 26):
        step = np.linalg.solve(lap + np.diag(lam * df(u)), -(lap @ u + lam * f(u)))
        u = u + step
        residual = np.max(np.abs(lap @ u + lam * f(u)))
        if np.max(np.abs(step)) <= 1e-12 or residual <= 1e-10:
            return u.reshape(n - 1, n - 1), iteration
    raise RuntimeError(f"collocation Newton did not converge at n = {n}")


def collocation_umax(lam: float, n: int, amplitude: float) -> float:
    """``u_max`` of the order-``n`` collocation solution of
    ``Lap u + lam e^u = 0`` on ``[-1, 1]^2`` from ``A (1 - x^2)(1 - y^2)``
    (:func:`collocation_newton_2d`)."""
    return float(collocation_newton_2d(lam, n, "exp", None, amplitude)[0].max())


def dct1_direct(values, axis: int = 0) -> np.ndarray:
    """Type-I DCT ``v_0 + (-1)^k v_n + 2 sum_{j=1}^{n-1} v_j cos(pi j k / n)``
    along ``axis``, by direct O(n^2) cosine summation."""
    values = np.asarray(values, dtype=float)
    n = values.shape[axis] - 1
    j = np.arange(n + 1)
    w = 2.0 * np.cos(np.pi * np.outer(j, j) / n)
    w[:, 0] = 1.0
    w[:, n] = (-1.0) ** j
    return np.moveaxis(w @ np.moveaxis(values, axis, 0), 0, axis)


def cheb_coeffs_direct(values, axis: int = 0) -> np.ndarray:
    """Coefficients ``a_k`` of the interpolant of samples at the Lobatto
    nodes ``cos(pi j / n)``: ``(d_k / n)`` times :func:`dct1_direct`, with
    ``d_k = 1/2`` for ``k`` in ``{0, n}`` and 1 otherwise."""
    a = dct1_direct(values, axis)
    n = a.shape[axis] - 1
    a /= n
    a[(slice(None),) * axis + (0,)] /= 2.0
    a[(slice(None),) * axis + (n,)] /= 2.0
    return a


def cheb_values_direct(coeffs, axis: int = 0) -> np.ndarray:
    """Values ``sum_k a_k cos(pi j k / n)`` of a Chebyshev series at the
    Lobatto nodes, the inverse of :func:`cheb_coeffs_direct`."""
    w = np.array(coeffs, dtype=float, copy=True)
    w[(slice(None),) * axis + (slice(1, -1),)] /= 2.0
    return dct1_direct(w, axis)
