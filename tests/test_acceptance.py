"""Acceptance gate: one test per delivery criterion.

Each test evaluates every sub-check of its criterion at the stated
tolerance, prints one ``ACCEPTANCE nn name: PASS/FAIL`` line (run pytest
with ``-s`` to see the lines for passing criteria too), and asserts that
all sub-checks hold.

Criteria 1, 6 and 7 compare the program against oracles that
``tests/oracles.py`` computes without importing ``chebratu``:

* criterion 1: the fold amplitude from ``B tanh B = 1``,
  ``A* = 2 ln cosh B = 1.186842168634389``, whose curve value is Boyd's
  lam*;
* criterion 6: the small-branch u_max from five-point finite differences
  on N = 32, 64, 128 with two Richardson steps (0.16689576432; collocation
  at n = 16 agrees to ~1e-10);
* criterion 7: the big-branch u_max of the same n = 16 collocation system
  rebuilt from Trefethen's ``cheb`` matrix (5.0844158653).  This is the
  discrete value at n = 16: the grid-converged big-branch value is
  5.072490, 1.19e-2 away, so only the small branch is resolved to ~1e-10
  at this order.

Values quoted in earlier reports of these computations (fold amplitude
1.187331536443172, u_max 0.1865174060688610 and 4.677164395529806) solve
none of these problems (see README, "Validation").  They are kept, and a
sub-check of each criterion asserts the documented mismatch against the
oracle, so the gate records the discrepancy instead of failing on it.
The oracles are computed before each criterion's clock starts, so the
runtime limits time only ``chebratu``.
"""

import time
from functools import lru_cache

import numpy as np

from chebratu import (
    branch_amplitudes,
    branch_label,
    cheb_points,
    cheb_transform,
    convergence_order_estimate,
    critical_point,
    decay_report,
    diff_matrix,
    exact_solution,
    inverse_cheb_transform,
    laplacian,
    make_nonlinearity,
    second_diff_matrix,
    solve,
    stability_1d,
    symmetry_report,
)
from oracles import (
    collocation_umax,
    fd_center_richardson,
    fold_1d,
    kron_laplacian,
    lambda_slope_1d,
)

# reference values from earlier reports; the fold amplitude and the two
# u_max values are irreproducible and are checked only for their mismatch
REPORTED_FOLD_AMPLITUDE = 1.187331536443172
BOYD_LAMBDA_STAR = 0.8784576797812903
REPORTED_LAMBDA_STAR = 0.8786312538512331
REPORTED_LAMBDA_STAR_HALF = 3.51360308
REPORTED_LAMBDA_STAR_TWO = 0.2196644
REPORTED_UMAX_SMALL = 0.1865174060688610
REPORTED_UMAX_BIG = 4.677164395529806

# the mismatch README "Validation" documents, to the digits it quotes
REPORTED_FOLD_SLOPE = -3.1e-4
REPORTED_UMAX_SMALL_GAP = 1.96e-2
REPORTED_UMAX_BIG_GAP = 0.407


def _finish(num, name, t0, limit, checks):
    elapsed = time.perf_counter() - t0
    if limit is not None:
        checks = checks + [(f"runtime {elapsed:.2f}s < {limit}s", elapsed < limit)]
    failed = [desc for desc, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = f" [{'; '.join(failed)}]" if failed else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s){detail}")
    assert not failed, f"criterion {num} ({name}): " + "; ".join(failed)


@lru_cache(maxsize=None)
def _dual_1d():
    grid = cheb_points(32, 1.0)
    nl = make_nonlinearity("exp")
    small = solve(0.25, nl, grid, 1, guess="zero")
    big = solve(0.25, nl, grid, 1, guess="onepoint", amplitude=6.0)
    return grid, small, big


@lru_cache(maxsize=None)
def _solve_2d_exp(n, guess, amplitude):
    return solve(0.5, make_nonlinearity("exp"), cheb_points(n, 1.0), 2, guess, amplitude)


def test_criterion_01_fold_location():
    a_ref, lam_ref = fold_1d()
    reported_slope = lambda_slope_1d(REPORTED_FOLD_AMPLITUDE)
    t0 = time.perf_counter()
    a_star, lam_star = critical_point(1.0)
    checks = [
        (
            f"fold amplitude within 1e-8 of the B tanh B = 1 oracle {a_ref:.15f} "
            f"(got {a_star:.15f}, off by {abs(a_star - a_ref):.3e})",
            abs(a_star - a_ref) <= 1e-8,
        ),
        (
            f"oracle lam* {lam_ref:.16f} within 1e-10 of Boyd's {BOYD_LAMBDA_STAR}",
            abs(lam_ref - BOYD_LAMBDA_STAR) <= 1e-10,
        ),
        (
            f"lam* within 1e-10 of Boyd's {BOYD_LAMBDA_STAR}",
            abs(lam_star - BOYD_LAMBDA_STAR) <= 1e-10,
        ),
        (
            f"reported lam* {REPORTED_LAMBDA_STAR} within 2e-4 of computed",
            abs(REPORTED_LAMBDA_STAR - lam_star) <= 2e-4,
        ),
        (
            f"reported fold amplitude {REPORTED_FOLD_AMPLITUDE} is not the fold: "
            f"slope there {reported_slope:.4e} rounds to {REPORTED_FOLD_SLOPE}",
            abs(reported_slope - REPORTED_FOLD_SLOPE) <= 5e-6,
        ),
    ]
    _finish(1, "fold-1d", t0, 1.0, checks)


def test_criterion_02_fold_scaling():
    t0 = time.perf_counter()
    lam_1 = critical_point(1.0)[1]
    lam_half = critical_point(0.5)[1]
    lam_two = critical_point(2.0)[1]
    checks = [
        ("lam*(1/2) = 4 lam*(1) within 1e-10", abs(lam_half - 4.0 * lam_1) <= 1e-10),
        ("lam*(2) = lam*(1)/4 within 1e-10", abs(lam_two - lam_1 / 4.0) <= 1e-10),
        (
            f"reported {REPORTED_LAMBDA_STAR_HALF} within 3e-4 of lam*(1/2)",
            abs(REPORTED_LAMBDA_STAR_HALF - lam_half) <= 3e-4,
        ),
        (
            f"reported {REPORTED_LAMBDA_STAR_TWO} within 1e-4 of lam*(2)",
            abs(REPORTED_LAMBDA_STAR_TWO - lam_two) <= 1e-4,
        ),
    ]
    _finish(2, "fold-scaling", t0, 1.0, checks)


def test_criterion_03_1d_dual_solutions():
    t0 = time.perf_counter()
    grid, small, big = _dual_1d()
    a_small, a_big = branch_amplitudes(0.25, 1.0)
    checks = [
        ("zero guess lands on the small branch", branch_label(small) == "small"),
        ("one-point guess lands on the big branch", branch_label(big) == "big"),
        (
            "small center within 1e-8 of the amplitude oracle",
            abs(small.center_value() - a_small) <= 1e-8,
        ),
        (
            "big center within 1e-8 of the amplitude oracle",
            abs(big.center_value() - a_big) <= 1e-8,
        ),
        (
            "small solution within 1e-8 of the closed form",
            np.max(np.abs(small.values - exact_solution(a_small, 1.0, grid.points))) <= 1e-8,
        ),
        (
            "big solution within 1e-8 of the closed form",
            np.max(np.abs(big.values - exact_solution(a_big, 1.0, grid.points))) <= 1e-8,
        ),
    ]
    _finish(3, "1d-dual-solutions", t0, 1.0, checks)


def test_criterion_04_1d_stability():
    t0 = time.perf_counter()
    _, small, big = _dual_1d()
    _, mu_small, _ = stability_1d(small)
    _, mu_big, _ = stability_1d(big)
    checks = [
        (f"small branch mu_min > 0 (got {mu_small:.6f})", mu_small > 0.0),
        (f"big branch mu_min < 0 (got {mu_big:.6f})", mu_big < 0.0),
    ]
    _finish(4, "1d-stability", t0, 1.0, checks)


def test_criterion_05_2d_linear_eigenvalues():
    t0 = time.perf_counter()
    res = laplacian(cheb_points(24, np.pi / 2.0), 2).eigenpairs(10)
    expect = np.array([2, 5, 5, 8, 10, 10, 13, 13, 17, 17], dtype=float)
    err = np.max(np.abs(res.values - expect))
    checks = [
        (f"first ten side-pi eigenvalues within 1e-8 (max err {err:.2e})", err <= 1e-8),
        ("real spectrum (float64 eigenvalues)", res.values.dtype == np.float64),
    ]
    _finish(5, "2d-linear-eigenvalues", t0, 30.0, checks)


def test_criterion_06_2d_small_solution():
    ref = fd_center_richardson(0.5)
    t0 = time.perf_counter()
    sol16 = _solve_2d_exp(16, "eigenfunction", 0.1)
    sol20 = _solve_2d_exp(20, "eigenfunction", 0.1)
    checks = [
        (
            f"u_max within 1e-9 of the finite-difference oracle {ref:.12f} "
            f"(got {sol16.u_max:.15f}, off by {abs(sol16.u_max - ref):.3e})",
            abs(sol16.u_max - ref) <= 1e-9,
        ),
        (
            f"n=16 and n=20 agree within 5e-6 (diff {abs(sol16.u_max - sol20.u_max):.2e})",
            abs(sol16.u_max - sol20.u_max) <= 5e-6,
        ),
        (
            f"Newton iterations <= 6 (got {sol16.trace.iterations})",
            sol16.trace.iterations <= 6,
        ),
        (
            f"reported {REPORTED_UMAX_SMALL} lies {REPORTED_UMAX_SMALL_GAP} from the oracle "
            f"(off by {abs(REPORTED_UMAX_SMALL - ref):.4e})",
            abs(abs(REPORTED_UMAX_SMALL - ref) - REPORTED_UMAX_SMALL_GAP) <= 5e-5,
        ),
    ]
    _finish(6, "2d-small-solution", t0, 30.0, checks)


def test_criterion_07_2d_big_solution():
    ref = collocation_umax(0.5, 16, 6.0)
    t0 = time.perf_counter()
    sol = _solve_2d_exp(16, "onepoint", 6.0)
    checks = [
        (
            f"u_max within 1e-10 of the n=16 collocation oracle {ref:.15f} "
            f"(got {sol.u_max:.15f}, off by {abs(sol.u_max - ref):.3e})",
            abs(sol.u_max - ref) <= 1e-10,
        ),
        (
            f"Newton iterations <= 10 (got {sol.trace.iterations})",
            sol.trace.iterations <= 10,
        ),
        (
            f"reported {REPORTED_UMAX_BIG} lies {REPORTED_UMAX_BIG_GAP} from the oracle "
            f"(off by {abs(REPORTED_UMAX_BIG - ref):.4e})",
            abs(abs(REPORTED_UMAX_BIG - ref) - REPORTED_UMAX_BIG_GAP) <= 5e-4,
        ),
    ]
    _finish(7, "2d-big-solution", t0, 30.0, checks)


def test_criterion_08_2d_symmetries():
    t0 = time.perf_counter()
    checks = []
    for label, sol in (
        ("small", _solve_2d_exp(16, "eigenfunction", 0.1)),
        ("big", _solve_2d_exp(16, "onepoint", 6.0)),
    ):
        rep = symmetry_report(sol.interior)
        for name in ("rot90_dev", "transpose_dev", "reflect_x_dev", "reflect_y_dev"):
            val = getattr(rep, name)
            checks.append((f"{label} {name} <= 1e-9 (got {val:.2e})", val <= 1e-9))
    _finish(8, "2d-symmetries", t0, None, checks)


def test_criterion_09_parity_and_decay():
    t0 = time.perf_counter()
    _, small1d, big1d = _dual_1d()
    rep_s1 = decay_report(small1d.grid, small1d.values)
    rep_b1 = decay_report(big1d.grid, big1d.values)
    small2d = _solve_2d_exp(16, "eigenfunction", 0.1)
    big2d = _solve_2d_exp(16, "onepoint", 6.0)
    rep_s2 = decay_report(small2d.grid, small2d.values.T)
    rep_b2 = decay_report(big2d.grid, big2d.values.T)
    checks = [
        (f"1D small odd floor <= 1e-12 (got {rep_s1.odd_floor:.2e})",
         rep_s1.odd_floor <= 1e-12),
        (f"1D big odd floor <= 1e-12 (got {rep_b1.odd_floor:.2e})",
         rep_b1.odd_floor <= 1e-12),
        (f"2D small odd floor <= 1e-12 (got {rep_s2.odd_floor:.2e})",
         rep_s2.odd_floor <= 1e-12),
        (f"2D big odd floor <= 1e-12 (got {rep_b2.odd_floor:.2e})",
         rep_b2.odd_floor <= 1e-12),
        ("1D small fit rate negative", rep_s1.fit_rate is not None and rep_s1.fit_rate < 0),
        ("1D big fit rate negative", rep_b1.fit_rate is not None and rep_b1.fit_rate < 0),
        ("2D small fit rate negative", rep_s2.fit_rate is not None and rep_s2.fit_rate < 0),
        (
            "1D big decay shallower than 1D small",
            rep_b1.fit_rate is not None and rep_s1.fit_rate < rep_b1.fit_rate,
        ),
    ]
    _finish(9, "parity-and-decay", t0, None, checks)


def test_criterion_10_convergence_order():
    t0 = time.perf_counter()
    _, small, _ = _dual_1d()
    order = convergence_order_estimate(small.trace)
    checks = [(f"order estimate >= 1.8 (got {order:.3f})", order >= 1.8)]
    _finish(10, "convergence-order", t0, None, checks)


def test_criterion_11_gelfand_and_hyperbolic_variants():
    t0 = time.perf_counter()
    grid = cheb_points(16, 1.0)
    exp_sol = _solve_2d_exp(16, "eigenfunction", 0.1)
    gel = solve(0.5, make_nonlinearity("gelfand", 1e-6), grid, 2, "eigenfunction", 0.1)
    diff = np.max(np.abs(gel.interior - exp_sol.interior))
    cosh_sol = solve(0.5, make_nonlinearity("cosh"), grid, 2, "eigenfunction", 0.1)
    sinh_sol = solve(0.5, make_nonlinearity("sinh"), grid, 2, "eigenfunction", 0.1)
    checks = [
        (f"gelfand(1e-6) within 1e-5 of exp (diff {diff:.2e})", diff <= 1e-5),
        ("cosh variant converged", cosh_sol.trace.converged),
        ("sinh variant converged", sinh_sol.trace.converged),
    ]
    for label, sol in (("cosh", cosh_sol), ("sinh", sinh_sol)):
        rep = symmetry_report(sol.interior)
        dev = max(rep.rot90_dev, rep.transpose_dev, rep.reflect_x_dev, rep.reflect_y_dev)
        odd = decay_report(sol.grid, sol.values.T).odd_floor
        checks.append((f"{label} symmetry deviations <= 1e-9 (got {dev:.2e})", dev <= 1e-9))
        checks.append((f"{label} odd floor <= 1e-12 (got {odd:.2e})", odd <= 1e-12))
    _finish(11, "nonlinearity-variants", t0, None, checks)


def test_criterion_12_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checks = []

    # Jacobian vs directional finite differences, 100 randomized systems
    ok = True
    grid = cheb_points(12, 1.0)
    d2 = second_diff_matrix(grid)[1:-1, 1:-1]
    lap = kron_laplacian(8)
    nls = [make_nonlinearity(n, e) for n, e in
           (("exp", None), ("gelfand", 1e-2), ("cosh", None), ("sinh", None))]
    h = 1e-6
    for case in range(100):
        lam = float(rng.uniform(0.05, 0.9))
        if case % 2 == 0:
            u = rng.uniform(-1.0, 2.0, 11)
            res = lambda w: d2 @ w + lam * np.exp(w)
            jac = lambda w: d2 + lam * np.diag(np.exp(w))
        else:
            nl = nls[(case // 2) % 4]
            u = rng.uniform(-1.0, 2.0, 49)
            res = lambda w: lap @ w + nl.value(lam, w)
            jac = lambda w: lap + np.diag(nl.derivative(lam, w))
        v = rng.uniform(-1.0, 1.0, u.shape)
        fd = (res(u + h * v) - res(u - h * v)) / (2.0 * h)
        norm_j = np.max(np.sum(np.abs(jac(u)), axis=1))
        ok &= bool(np.max(np.abs(fd - jac(u) @ v)) <= 1e-6 * norm_j)
    checks.append(("jacobian vs finite differences (100 cases)", ok))

    # Kronecker ordering identity, 100 randomized fields
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 13))
        half_width = float(rng.choice([0.5, 1.0, 2.0]))
        op = kron_laplacian(n, half_width)
        u = rng.uniform(-1.0, 1.0, (n - 1, n - 1))
        lhs = op @ u.reshape(-1)
        rhs = laplacian(cheb_points(n, half_width), 2).apply(u.reshape(-1))
        ok &= bool(np.max(np.abs(lhs - rhs)) <= 1e-11 * (np.max(np.abs(op)) + 1.0))
    checks.append(("Kronecker ordering identity (100 cases)", ok))

    # transform round trip, 100 randomized vectors
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 48))
        g = cheb_points(n, float(rng.choice([0.5, 1.0, 2.0])))
        v = rng.uniform(-3.0, 3.0, n + 1)
        back = inverse_cheb_transform(g, cheb_transform(g, v))
        ok &= bool(np.max(np.abs(back - v)) <= 1e-13 * np.max(np.abs(v)))
    checks.append(("transform round trip (100 cases)", ok))

    # polynomial exactness of both differentiation matrices, 100 cases
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 25))
        L = float(rng.choice([0.5, 1.0, 2.0]))
        g = cheb_points(n, L)
        coeff = rng.uniform(-1.0, 1.0, int(rng.integers(1, n + 1)) + 1)
        s = g.points / L
        d1 = diff_matrix(g)
        d2m = second_diff_matrix(g)
        p = np.polyval(coeff, s)
        dp = np.polyval(np.polyder(coeff), s) / L
        ddp = np.polyval(np.polyder(coeff, 2), s) / L**2
        ok &= bool(np.max(np.abs(d1 @ p - dp)) <= 1e-10 * (1.0 + np.max(np.abs(d1))))
        ok &= bool(np.max(np.abs(d2m @ p - ddp)) <= 1e-10 * (1.0 + np.max(np.abs(d2m))))
    checks.append(("polynomial exactness (100 cases)", ok))

    _finish(12, "property-suites", t0, 60.0, checks)
