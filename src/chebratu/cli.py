"""Batch command-line front end.

One subcommand per workflow: closed-form bifurcation data, 1D/2D solves
with selectable initial guesses and nonlinearities, the linear
eigenproblem, coefficient-decay and symmetry reports.  Outputs are
machine-readable (json / csv / dat); ``.dat`` files are two/three-column
whitespace tables ready for external plotting tools.  Runs are
deterministic: the same argv produces byte-identical output.

Exit codes: 0 success, 2 invalid arguments, 3 Newton failure of any
kind (non-convergence, divergence or a singular Jacobian; the payload
still carries the Newton trace), 4 any other numerical failure (such as
an eigensolver that does not converge or a gelfand pole).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import bratu1d, diagnostics, pde2d
from .chebyshev import cheb_points
from .errors import (
    ChebratuError,
    InsufficientDataError,
    InvalidArgumentError,
    NewtonError,
    NoSolutionError,
)
from .newton import NewtonConfig, convergence_order_estimate, make_nonlinearity
from .pde2d import Field2D

__all__ = ["main", "run"]


def _add_common(p, *, lam=False, grid=False, guess_choices=None, newton=False,
                nonlinearity=False, samples=None):
    if lam:
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="bifurcation parameter")
    if grid:
        p.add_argument("--L", dest="half_width", type=float, default=1.0,
                       help="domain half-width (default 1)")
        p.add_argument("--n", dest="n", type=int, default=None,
                       help="grid order (default 32 in 1D, 16 in 2D)")
    if guess_choices:
        p.add_argument("--guess", default=guess_choices[0],
                       help=f"initial guess: one of {guess_choices} or file:PATH")
        p.add_argument("--amplitude", type=float, default=None,
                       help="guess amplitude (default 6 for onepoint, 0.1 for eigenfunction)")
    if nonlinearity:
        p.add_argument("--nonlinearity", default="exp",
                       choices=["exp", "gelfand", "cosh", "sinh"])
        p.add_argument("--epsilon", type=float, default=None,
                       help="gelfand perturbation (required with --nonlinearity gelfand)")
    if newton:
        p.add_argument("--tol", type=float, default=None,
                       help="Newton update tolerance (default 1e-12)")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None,
                       help="Newton iteration cap (default 25)")
    if samples is not None:
        p.add_argument("--samples", type=int, default=samples)
    p.add_argument("--format", default="json", choices=["json", "csv", "dat"])
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebratu",
        description="Chebyshev collocation solvers for Bratu-type problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bifurcation-1d", help="closed-form 1D curve and fold")
    p.add_argument("--L", dest="half_width", type=float, default=1.0)
    _add_common(p, samples=400)

    p = sub.add_parser("solve-1d", help="solve the 1D problem")
    _add_common(p, lam=True, grid=True, guess_choices=["zero", "onepoint"], newton=True)

    p = sub.add_parser("stability-1d", help="solve and classify linear stability")
    _add_common(p, lam=True, grid=True, guess_choices=["zero", "onepoint"], newton=True)

    p = sub.add_parser("eig-2d", help="eigenvalues of the 2D Dirichlet Laplacian")
    p.add_argument("--L", dest="half_width", type=float, default=1.0)
    p.add_argument("--n", dest="n", type=int, default=16)
    _add_common(p, samples=10)

    p = sub.add_parser("solve-2d", help="solve the 2D problem")
    _add_common(p, lam=True, grid=True,
                guess_choices=["eigenfunction", "onepoint", "zero"],
                newton=True, nonlinearity=True)

    p = sub.add_parser("bifurcation-2d-approx", help="one-point 2D diagram estimate")
    _add_common(p, samples=400)

    p = sub.add_parser("coeffs", help="coefficient-decay report of a solve")
    p.add_argument("dim", choices=["1d", "2d"])
    _add_common(p, lam=True, grid=True,
                guess_choices=["zero", "onepoint", "eigenfunction"],
                newton=True, nonlinearity=True)

    p = sub.add_parser("symmetry", help="symmetry report of a 2D solve")
    _add_common(p, lam=True, grid=True,
                guess_choices=["eigenfunction", "onepoint", "zero"],
                newton=True, nonlinearity=True)

    return parser


def _newton_config(args) -> NewtonConfig:
    kwargs = {}
    if getattr(args, "tol", None) is not None:
        kwargs["tol_update"] = args.tol
    if getattr(args, "max_iter", None) is not None:
        kwargs["max_iter"] = args.max_iter
    return NewtonConfig(**kwargs)


def _trace_doc(trace) -> dict:
    try:
        order = convergence_order_estimate(trace)
    except InsufficientDataError:
        order = None
    return {
        "iterations": trace.iterations,
        "update_norms": list(trace.update_norms),
        "residual_norms": list(trace.residual_norms),
        "converged": trace.converged,
        "order_estimate": order,
    }


def _amplitude(args) -> float:
    if args.amplitude is not None:
        return args.amplitude
    return 0.1 if args.guess == "eigenfunction" else 6.0


def _guess_2d(args, grid) -> Field2D:
    if args.guess.startswith("file:"):
        data = np.loadtxt(args.guess[5:])
        m = grid.n - 1
        if data.shape == (grid.n + 1, grid.n + 1):
            data = data[1:-1, 1:-1]
        if data.shape != (m, m):
            raise InvalidArgumentError(
                f"2D guess file must be ({m}, {m}) or ({grid.n + 1}, {grid.n + 1})"
            )
        return Field2D(grid=grid, interior=np.asarray(data, dtype=float))
    if args.guess == "zero":
        return Field2D(grid=grid, interior=np.zeros((grid.n - 1, grid.n - 1)))
    if args.guess == "eigenfunction":
        return pde2d.guess_eigenfunction(grid, _amplitude(args))
    if args.guess == "onepoint":
        return pde2d.guess_onepoint(grid, _amplitude(args))
    raise InvalidArgumentError(f"unsupported 2D guess {args.guess!r}")


# --------------------------------------------------------------------------
# command handlers: each returns (exit_code, doc, table)
# table = (comment_lines, column_names, rows) or None for json-only payloads
# --------------------------------------------------------------------------


def _cmd_bifurcation_1d(args):
    if args.samples < 2:
        raise InvalidArgumentError("--samples must be at least 2")
    curve = bratu1d.bifurcation_curve(args.half_width, args.samples)
    doc = {
        "params": {"L": args.half_width, "samples": args.samples},
        "fold": {"A": curve.fold[0], "lambda": curve.fold[1]},
        "samples": [[a, v] for a, v in curve.samples],
    }
    comments = [
        f"fold: A* = {curve.fold[0]:.16e}  lambda* = {curve.fold[1]:.16e}",
        f"L = {args.half_width}",
    ]
    return 0, doc, (comments, ["A", "lambda"], curve.samples)


def _cmd_bifurcation_2d_approx(args):
    if args.samples < 2:
        raise InvalidArgumentError("--samples must be at least 2")
    amps = 8.0 * np.arange(args.samples + 1) / args.samples
    lams = pde2d.onepoint_lambda(amps)
    peak_a = 1.0 / 0.64
    doc = {
        "params": {"samples": args.samples},
        "peak": {"A": peak_a, "lambda": pde2d.onepoint_lambda(peak_a)},
        "samples": [[float(a), float(v)] for a, v in zip(amps, lams)],
    }
    comments = [f"one-point diagram peak: A = {peak_a:.16e} lambda = {doc['peak']['lambda']:.16e}"]
    return 0, doc, (comments, ["A", "lambda"], doc["samples"])


def _solve_payload(args, dim: int):
    """Run the 1D or 2D solve an invocation asks for.

    Returns ``(solution, grid, failure, params)``.  On any Newton failure
    ``solution`` is None and ``failure`` is the exit-3 payload, which
    carries the trace and the error message.
    """
    name = getattr(args, "nonlinearity", "exp")
    if dim == 1 and name != "exp":
        raise InvalidArgumentError(f"1D solves support only the exp nonlinearity, got {name!r}")
    n = args.n if args.n is not None else (32 if dim == 1 else 16)
    grid = cheb_points(n, args.half_width)
    if dim == 2:
        nl = make_nonlinearity(name, args.epsilon)
        guess = _guess_2d(args, grid)
    elif args.guess.startswith("file:"):
        guess = np.loadtxt(args.guess[5:])
    else:
        guess = args.guess
    params = {
        "lambda": args.lam,
        "L": args.half_width,
        "n": n,
        "guess": args.guess,
        "nonlinearity": name,
        "epsilon": getattr(args, "epsilon", None),
    }
    try:
        if dim == 1:
            sol = bratu1d.solve_1d(args.lam, grid, guess, _amplitude(args), _newton_config(args))
        else:
            sol = pde2d.solve_2d(args.lam, nl, grid, guess, _newton_config(args))
    except NewtonError as exc:
        doc = {
            "params": params,
            "solution": None,
            "newton": _trace_doc(exc.trace),
            "error": str(exc),
        }
        return None, grid, doc, params
    return sol, grid, None, params


def _cmd_solve_1d(args):
    sol, grid, failure, params = _solve_payload(args, 1)
    if failure is not None:
        return 3, failure, None
    decay = diagnostics.decay_report(grid, sol.values)
    doc = {
        "params": params,
        "solution": {
            "u_max": float(sol.values.max()),
            "center_value": sol.center_value(),
            "branch": sol.branch,
            "grid_values": [list(map(float, sol.values))],
        },
        "newton": _trace_doc(sol.trace),
        "diagnostics": {
            "odd_floor": decay.odd_floor,
            "fit_rate": decay.fit_rate,
            "rot90_dev": None,
        },
    }
    rows = list(zip(map(float, grid.points), map(float, sol.values)))
    comments = [f"lambda = {args.lam}  branch = {sol.branch}"]
    return 0, doc, (comments, ["x", "u"], rows)


def _cmd_stability_1d(args):
    sol, grid, failure, params = _solve_payload(args, 1)
    if failure is not None:
        return 3, failure, None
    stable, mu_min, spectrum = bratu1d.stability_1d(sol)
    eigs = [[float(v.real), float(v.imag)] for v in spectrum.values]
    doc = {
        "params": params,
        "solution": {
            "u_max": float(sol.values.max()),
            "center_value": sol.center_value(),
            "branch": sol.branch,
        },
        "stability": {"stable": stable, "mu_min": mu_min, "eigenvalues": eigs},
        "newton": _trace_doc(sol.trace),
    }
    rows = [(k, re, im) for k, (re, im) in enumerate(eigs)]
    comments = [f"stable = {stable}  mu_min = {mu_min:.16e}"]
    return 0, doc, (comments, ["k", "mu_real", "mu_imag"], rows)


def _cmd_eig_2d(args):
    grid = cheb_points(args.n, args.half_width)
    res = pde2d.laplacian_eigs(grid, args.samples)
    eigs = [[float(v.real), float(v.imag)] for v in res.values]
    doc = {
        "params": {"L": args.half_width, "n": args.n, "count": args.samples},
        "eigenvalues": eigs,
    }
    rows = [(k, re, im) for k, (re, im) in enumerate(eigs)]
    return 0, doc, ([], ["k", "eig_real", "eig_imag"], rows)


def _cmd_solve_2d(args):
    sol, grid, failure, params = _solve_payload(args, 2)
    if failure is not None:
        return 3, failure, None
    decay = diagnostics.decay_report(grid, sol.embed().T)
    sym = diagnostics.symmetry_report(sol)
    full = sol.embed()
    doc = {
        "params": params,
        "solution": {
            "u_max": sol.u_max,
            "center_value": sol.center_value(),
            "branch": "unknown",
            "grid_values": [list(map(float, row)) for row in full],
        },
        "newton": _trace_doc(sol.trace),
        "diagnostics": {
            "odd_floor": decay.odd_floor,
            "fit_rate": decay.fit_rate,
            "rot90_dev": sym.rot90_dev,
        },
    }
    pts = grid.points
    rows = [
        (float(pts[ix]), float(pts[iy]), float(full[iy, ix]))
        for iy in range(grid.n + 1)
        for ix in range(grid.n + 1)
    ]
    comments = [f"lambda = {args.lam}  nonlinearity = {args.nonlinearity}"]
    return 0, doc, (comments, ["x", "y", "u"], rows)


def _cmd_coeffs(args):
    sol, grid, failure, params = _solve_payload(args, 1 if args.dim == "1d" else 2)
    if failure is not None:
        return 3, failure, None
    rep = diagnostics.decay_report(grid, sol.values if args.dim == "1d" else sol.embed().T)
    rows = [(*idx, float(v)) for idx, v in np.ndenumerate(rep.coeffs)]
    columns = ["k", "l"][:rep.coeffs.ndim] + ["abs_coeff"]
    doc = {
        "params": params,
        "decay": {
            "odd_floor": rep.odd_floor,
            "even_floor": rep.even_floor,
            "fit_rate": rep.fit_rate,
            "plateau": rep.plateau,
        },
        "coefficients": rep.coeffs.tolist(),
        "newton": _trace_doc(sol.trace),
    }
    return 0, doc, ([], columns, rows)


def _cmd_symmetry(args):
    sol, grid, failure, params = _solve_payload(args, 2)
    if failure is not None:
        return 3, failure, None
    sym = diagnostics.symmetry_report(sol)
    doc = {
        "params": params,
        "solution": {"u_max": sol.u_max, "center_value": sol.center_value()},
        "symmetry": {
            "rot90_dev": sym.rot90_dev,
            "transpose_dev": sym.transpose_dev,
            "reflect_x_dev": sym.reflect_x_dev,
            "reflect_y_dev": sym.reflect_y_dev,
        },
        "newton": _trace_doc(sol.trace),
    }
    rows = [
        ("rot90", sym.rot90_dev),
        ("transpose", sym.transpose_dev),
        ("reflect_x", sym.reflect_x_dev),
        ("reflect_y", sym.reflect_y_dev),
    ]
    return 0, doc, ([], ["symmetry", "deviation"], rows)


_HANDLERS = {
    "bifurcation-1d": _cmd_bifurcation_1d,
    "solve-1d": _cmd_solve_1d,
    "stability-1d": _cmd_stability_1d,
    "eig-2d": _cmd_eig_2d,
    "solve-2d": _cmd_solve_2d,
    "bifurcation-2d-approx": _cmd_bifurcation_2d_approx,
    "coeffs": _cmd_coeffs,
    "symmetry": _cmd_symmetry,
}


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".16e")


def _render(doc, table, fmt: str) -> str:
    if fmt == "json" or table is None:
        return json.dumps(doc, indent=2) + "\n"
    comments, columns, rows = table
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
        return buf.getvalue()
    lines = [f"# {c}" for c in comments]
    lines.append("# " + "  ".join(columns))
    for row in rows:
        lines.append("  ".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def run(argv=None) -> int:
    """Parse argv, dispatch, write the output; returns the exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code, doc, table = _HANDLERS[args.command](args)
        _write(_render(doc, table, args.format), args.output)
        return code
    except (InvalidArgumentError, NoSolutionError) as exc:
        print(f"chebratu: invalid request: {exc}", file=sys.stderr)
        return 2
    except ChebratuError as exc:
        print(f"chebratu: numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"chebratu: i/o error: {exc}", file=sys.stderr)
        return 2


# Built once: building the eight-subcommand parser costs far more than a parse,
# and parse_args leaves the parser unchanged, so every run() can share it.
_PARSER = _build_parser()


def main() -> None:
    raise SystemExit(run())
