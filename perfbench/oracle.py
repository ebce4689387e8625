"""Output oracles for benchmark requests, independent of the program.

Every check reads the file the CLI wrote and compares it with something
the benchmark computes itself: the closed-form 1D branch amplitudes and
fold, a Chebyshev collocation residual built from its own differentiation
matrix (applied in the separable form ``D2 U + U D2^T`` in 2D, never
through the program's Kronecker matrix), the exact Dirichlet spectrum of
the square, and a published 2D reference value.

``verdict`` returns ``None`` when the output is right, otherwise a short
reason.  A reason starting with ``exit`` means the program reported a
failure (an unexpected exit code); any other reason means a payload that
claims success is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np

from deck import FOLD_B, REFERENCE_LAMBDA_2D, branch_amplitude

# |u(0) - A| for a converged 1D solve; the big branch at small lambda sets it
CENTER_TOL_1D = {16: 2e-2, 32: 2e-3, 48: 2e-4}
# collocation residual: RESIDUAL_RTOL relative to ||D2||_inf ||u||_inf +
# lam ||f(u)||_inf, plus RESIDUAL_ATOL for solves that the program stops on
# its absolute residual test (1e-10) while u is tiny
RESIDUAL_RTOL = 1e-12
RESIDUAL_ATOL = 1e-9
# |a_k - a_k(exact)| over the coefficients of the closed-form solution
COEFF_TOL_1D = {16: 5e-2, 32: 5e-3, 48: 5e-4}
EIG_RTOL_2D = 1e-6
# u_max of the exp small branch at lambda = 0.5 on [-1, 1]^2
REFERENCE_2D = (REFERENCE_LAMBDA_2D, 0.166895764323)
REFERENCE_TOL = 1e-10
SYMMETRY_TOL = 1e-10
# the 2D small branch stays below this u_max for lambda <= 1.6
SMALL_BRANCH_UMAX_2D = 1.4


@lru_cache(maxsize=None)
def cheb_d2(n: int) -> np.ndarray:
    """Interior block of the second-derivative matrix on ``cos(j pi / n)``."""
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    dx = x[:, None] - x[None, :] + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dx
    d -= np.diag(d.sum(axis=1))
    return (d @ d)[1:-1, 1:-1]


def nonlinearity(name: str, lam: float, u: np.ndarray, epsilon: float | None = None):
    if name == "exp":
        return lam * np.exp(u)
    if name == "gelfand":
        return lam * np.exp(u / (1.0 + epsilon * u))
    if name == "cosh":
        return lam * np.cosh(u)
    raise ValueError(f"no oracle for nonlinearity {name!r}")


def residual_1d(values, lam: float) -> tuple:
    """Sup-norm residual of ``u'' + lam exp(u)`` at the interior nodes, and its scale."""
    u = np.asarray(values, dtype=float)[1:-1]
    d2 = cheb_d2(len(u) + 1)
    f = lam * np.exp(u)
    scale = np.abs(d2).sum(axis=1).max() * np.abs(u).max() + np.abs(f).max()
    return float(np.abs(d2 @ u + f).max()), float(scale)


def residual_2d(grid_values, lam: float, name: str, epsilon=None) -> tuple:
    """Sup-norm residual of ``Lap u + lam f(u)`` in separable form, and its scale."""
    full = np.asarray(grid_values, dtype=float)
    u = full[1:-1, 1:-1]
    d2 = cheb_d2(full.shape[0] - 1)
    f = nonlinearity(name, lam, u, epsilon)
    scale = 2.0 * np.abs(d2).sum(axis=1).max() * np.abs(u).max() + np.abs(f).max()
    return float(np.abs(d2 @ u + u @ d2.T + f).max()), float(scale)


def _residual_reason(residual: float, scale: float) -> str | None:
    limit = RESIDUAL_ATOL + RESIDUAL_RTOL * scale
    if residual > limit:
        return f"collocation residual {residual:.2e} above {limit:.2e}"
    return None


def exact_solution_1d(amplitude: float, x: np.ndarray) -> np.ndarray:
    """Closed form ``A - 2 log cosh(B x)`` with ``cosh(B) = exp(A / 2)``."""
    b = math.acosh(math.exp(amplitude / 2.0))
    return amplitude - 2.0 * np.log(np.cosh(b * x))


def cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through ``cos(j pi / n)``."""
    n = len(values) - 1
    j = np.arange(n + 1)
    w = np.where((j == 0) | (j == n), 0.5, 1.0)
    a = (2.0 / n) * np.cos(np.pi * np.outer(j, j) / n) @ (w * values)
    a[0] /= 2.0
    a[n] /= 2.0
    return a


def dirichlet_spectrum(count: int) -> list:
    """First ``count`` eigenvalues ``(pi/2)^2 (j^2 + k^2)`` of ``-Lap`` on [-1, 1]^2."""
    m = int(math.isqrt(count)) + 2
    levels = sorted(j * j + k * k for j in range(1, m + 1) for k in range(1, m + 1))
    return [(math.pi / 2.0) ** 2 * v for v in levels[:count]]


def fold_1d() -> tuple:
    return 2.0 * math.log(math.cosh(FOLD_B)), 2.0 * (FOLD_B**2 - 1.0)


# --------------------------------------------------------------------------
# payload parsing
# --------------------------------------------------------------------------


def parse_table(text: str, fmt: str):
    """(comment lines, rows of strings) of a csv or dat payload."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return [], rows[1:]
    comments = [ln[2:] for ln in text.splitlines() if ln.startswith("#")]
    rows = [ln.split() for ln in text.splitlines() if ln and not ln.startswith("#")]
    return comments[:-1], rows


def _floats(rows, col):
    return np.array([float(r[col]) for r in rows])


def _newton_ok(doc) -> str | None:
    trace = doc.get("newton") or {}
    if not trace.get("converged") or trace.get("iterations", 0) < 1:
        return "payload claims success without a converged Newton trace"
    return None


# --------------------------------------------------------------------------
# checks, one per request kind
# --------------------------------------------------------------------------


def _solve_1d_values(req, text):
    """(grid values, center value, branch label or None) of a solve-1d payload."""
    n = req.expect["n"]
    if req.fmt == "json":
        doc = json.loads(text)
        sol = doc["solution"]
        return np.array(sol["grid_values"][0]), sol["center_value"], sol["branch"], doc
    comments, rows = parse_table(text, req.fmt)
    values = _floats(rows, 1)
    branch = None
    for c in comments:
        if "branch = " in c:
            branch = c.split("branch = ")[1].split()[0]
    return values, float(values[n // 2]), branch, None


def check_solve_1d(req, text):
    e = req.expect
    values, center, branch, doc = _solve_1d_values(req, text)
    if len(values) != e["n"] + 1:
        return f"expected {e['n'] + 1} grid values, got {len(values)}"
    if doc is not None and (why := _newton_ok(doc)):
        return why
    if branch is not None and branch != e["branch"]:
        return f"branch label {branch!r}, expected {e['branch']!r}"
    want = branch_amplitude(e["lam"], e["branch"])
    if abs(center - want) > CENTER_TOL_1D[e["n"]]:
        return f"center {center!r} differs from closed-form {want!r}"
    return _residual_reason(*residual_1d(values, e["lam"]))


def check_stability_1d(req, text):
    e = req.expect
    want_stable = e["branch"] == "small"
    if req.fmt == "json":
        doc = json.loads(text)
        if why := _newton_ok(doc):
            return why
        center = doc["solution"]["center_value"]
        want = branch_amplitude(e["lam"], e["branch"])
        if abs(center - want) > CENTER_TOL_1D[e["n"]]:
            return f"center {center!r} differs from closed-form {want!r}"
        stable = doc["stability"]["stable"]
        mu = np.array([v[0] for v in doc["stability"]["eigenvalues"]])
    else:
        _, rows = parse_table(text, req.fmt)
        mu = _floats(rows, 1)
        stable = bool(mu.min() > 0.0)
    if len(mu) != e["n"] - 1:
        return f"expected {e['n'] - 1} eigenvalues, got {len(mu)}"
    if stable != want_stable or (mu.min() > 0.0) != want_stable:
        return f"stability verdict {stable} on the {e['branch']} branch"
    return None


def check_coeffs_1d(req, text):
    e = req.expect
    n = e["n"]
    if req.fmt == "json":
        doc = json.loads(text)
        if why := _newton_ok(doc):
            return why
        got = np.array(doc["coefficients"])
    else:
        _, rows = parse_table(text, req.fmt)
        got = _floats(rows, 1)
    if len(got) != n + 1:
        return f"expected {n + 1} coefficients, got {len(got)}"
    x = np.cos(np.pi * np.arange(n + 1) / n)
    amplitude = branch_amplitude(e["lam"], e["branch"])
    want = np.abs(cheb_coeffs(exact_solution_1d(amplitude, x)))
    err = float(np.abs(got - want).max())
    if err > COEFF_TOL_1D[n]:
        return f"coefficients differ from the closed form by {err:.2e}"
    return None


def check_bifurcation_1d(req, text):
    samples = req.expect["samples"]
    fold = None
    if req.fmt == "json":
        doc = json.loads(text)
        pairs = np.array(doc["samples"])
        fold = (doc["fold"]["A"], doc["fold"]["lambda"])
    else:
        comments, rows = parse_table(text, req.fmt)
        pairs = np.array([[float(v) for v in r] for r in rows])
        for c in comments:
            if c.startswith("fold:"):
                parts = c.split()
                fold = (float(parts[3]), float(parts[6]))
    if pairs.shape != (samples, 2):
        return f"expected {samples} curve samples, got shape {pairs.shape}"
    amps, lams = pairs[:, 0], pairs[:, 1]
    want = 2.0 * np.arccosh(np.exp(amps / 2.0)) ** 2 / np.exp(amps)
    if np.abs(lams - want).max() > 1e-12:
        return "curve samples off the closed form"
    if fold is not None:
        a_star, lam_star = fold_1d()
        if abs(fold[0] - a_star) > 1e-8 or abs(fold[1] - lam_star) > 1e-12:
            return f"fold {fold} differs from ({a_star}, {lam_star})"
    return None


def check_eig_2d(req, text):
    e = req.expect
    if req.fmt == "json":
        pairs = np.array(json.loads(text)["eigenvalues"])
    else:
        _, rows = parse_table(text, req.fmt)
        pairs = np.array([[float(r[1]), float(r[2])] for r in rows])
    if pairs.shape != (e["count"], 2):
        return f"expected {e['count']} eigenvalues, got shape {pairs.shape}"
    want = np.array(dirichlet_spectrum(e["count"]))
    err = float(np.abs(pairs[:, 0] - want).max() / want.max())
    if err > EIG_RTOL_2D or np.abs(pairs[:, 1]).max() > EIG_RTOL_2D * want.max():
        return f"spectrum differs from (pi/2)^2 (j^2 + k^2) by {err:.2e}"
    return None


def check_solve_2d(req, text):
    e = req.expect
    doc = json.loads(text)
    if why := _newton_ok(doc):
        return why
    grid = np.array(doc["solution"]["grid_values"])
    n = e["n"]
    if grid.shape != (n + 1, n + 1):
        return f"expected a {n + 1}x{n + 1} grid, got {grid.shape}"
    if np.abs(grid[[0, -1], :]).max() > 0.0 or np.abs(grid[:, [0, -1]]).max() > 0.0:
        return "nonzero boundary values"
    if why := _residual_reason(*residual_2d(grid, e["lam"], e["nonlinearity"],
                                            e.get("epsilon"))):
        return why
    u_max = doc["solution"]["u_max"]
    if abs(u_max - grid.max()) > 0.0:
        return "u_max is not the largest grid value"
    if e.get("branch") == "small" and u_max >= SMALL_BRANCH_UMAX_2D:
        return f"u_max {u_max!r} is off the small branch"
    if (e["nonlinearity"], e["lam"]) == ("exp", REFERENCE_2D[0]) and e.get("branch") == "small":
        if abs(u_max - REFERENCE_2D[1]) > REFERENCE_TOL:
            return f"u_max {u_max!r} differs from the reference {REFERENCE_2D[1]}"
    return None


def check_coeffs_2d(req, text):
    doc = json.loads(text)
    if why := _newton_ok(doc):
        return why
    a = np.array(doc["coefficients"])
    n = req.expect["n"]
    if a.shape != (n + 1, n + 1):
        return f"expected a {n + 1}x{n + 1} coefficient matrix, got {a.shape}"
    top = a.max()
    if np.abs(a - a.T).max() > SYMMETRY_TOL * top:
        return "coefficient matrix of a square-symmetric solution is not symmetric"
    odd = a.copy()
    odd[::2, ::2] = 0.0
    if odd.max() > SYMMETRY_TOL * top:
        return "odd-index coefficients of an even solution are not at rounding level"
    return None


def check_symmetry(req, text):
    doc = json.loads(text)
    if why := _newton_ok(doc):
        return why
    sol, sym = doc["solution"], doc["symmetry"]
    if abs(sol["u_max"] - sol["center_value"]) > SYMMETRY_TOL * max(1.0, sol["u_max"]):
        return "the maximum of a symmetric solution is not at the center"
    worst = max(sym.values())
    if worst > SYMMETRY_TOL * max(1.0, sol["u_max"]):
        return f"symmetry deviation {worst:.2e}"
    return None


def check_above_fold(req, text):
    doc = json.loads(text)
    trace = doc.get("newton") or {}
    if doc.get("solution") is not None or trace.get("converged") is not False:
        return "above-fold payload does not report a failed solve"
    if trace.get("iterations", 0) < 1 or len(trace.get("update_norms", [])) != trace["iterations"]:
        return "above-fold payload has no Newton trace"
    return None


CHECKS = {
    "solve-1d": check_solve_1d,
    "stability-1d": check_stability_1d,
    "coeffs-1d": check_coeffs_1d,
    "bifurcation-1d": check_bifurcation_1d,
    "eig-2d": check_eig_2d,
    "solve-2d": check_solve_2d,
    "coeffs-2d": check_coeffs_2d,
    "symmetry": check_symmetry,
    "above-fold": check_above_fold,
}


def verdict(req, code: int, text: str | None) -> str | None:
    """``None`` if the request's outcome is right, else the reason it failed."""
    want = 3 if req.check == "above-fold" else 0
    if code != want:
        return f"exit {code}, expected {want}"
    if text is None:
        return f"no output file after exit {code}"
    try:
        return CHECKS[req.check](req, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable payload: {type(exc).__name__}: {exc}"
