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
an eigensolver that does not converge or finds a complex spectrum, or a
gelfand pole).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import bratu1d, diagnostics, pde2d
from .chebyshev import cheb_points
from .errors import ChebratuError, InvalidArgumentError, NewtonError
from .newton import NewtonConfig, convergence_order_estimate, laplacian, make_nonlinearity, solve

__all__ = ["main", "run"]


def _size(text: str) -> int:
    """An integer argument that numpy can index an array of one more
    entries by; a larger one is a parser error naming the argument."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value >= np.iinfo(np.intp).max:
        raise argparse.ArgumentTypeError(f"{value} is too large")
    return value


def _guess_file(path: str) -> np.ndarray:
    """The table of finite numbers in the text file ``path``, else exit 2 naming it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy's "input contained no data"
            data = np.loadtxt(path)
    except (ValueError, UserWarning) as exc:  # UnicodeDecodeError is a ValueError
        raise InvalidArgumentError(f"guess file {path!r}: {exc}") from None
    if not np.all(np.isfinite(data)):
        raise InvalidArgumentError(f"guess file {path!r} holds a non-finite number")
    return data


def _add_common(p, *, guesses=None):
    """The flags shared by subcommands.  ``guesses``, the guess names with
    the default first, marks a solve: it adds the lambda, grid, guess,
    nonlinearity and Newton flags."""
    if guesses:
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="bifurcation parameter")
        p.add_argument("--L", dest="half_width", type=float, default=1.0,
                       help="domain half-width (default 1)")
        p.add_argument("--n", dest="n", type=_size, default=None,
                       help="grid order (default 32 in 1D, 16 in 2D)")
        p.add_argument("--guess", default=guesses[0],
                       help=f"initial guess: one of {guesses} or file:PATH")
        p.add_argument("--amplitude", type=float, default=None,
                       help="guess amplitude (default 6 for onepoint, 0.1 for eigenfunction)")
        p.add_argument("--nonlinearity", default="exp",
                       choices=["exp", "gelfand", "cosh", "sinh"],
                       help="reaction term f(u) (default exp)")
        p.add_argument("--epsilon", type=float, default=None,
                       help="gelfand perturbation (required with --nonlinearity gelfand)")
        p.add_argument("--tol", type=float, default=None,
                       help="Newton update tolerance (default 1e-12); the residual test "
                            "(sup-norm <= 1e-10) usually stops the iteration first")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None,
                       help="Newton iteration cap (default 25)")
    p.add_argument("--format", default="json", choices=["json", "csv", "dat"],
                   help="output format (default json)")
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebratu",
        description="Chebyshev collocation solvers for Bratu-type problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a solve subcommand sets ``dim`` ("1d" or "2d"), which picks the operator

    p = sub.add_parser("bifurcation-1d", help="closed-form 1D curve and fold")
    p.add_argument("--L", dest="half_width", type=float, default=1.0,
                   help="domain half-width (default 1)")
    p.add_argument("--samples", type=_size, default=400,
                   help="number of curve points (default 400)")
    _add_common(p)

    for name, help_text in (("solve-1d", "solve the 1D problem"),
                            ("stability-1d", "solve and classify linear stability")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, guesses=["zero", "onepoint", "eigenfunction"])
        p.set_defaults(dim="1d")

    p = sub.add_parser("eig-2d", help="eigenvalues of the 2D Dirichlet Laplacian")
    p.add_argument("--L", dest="half_width", type=float, default=1.0,
                   help="domain half-width (default 1)")
    p.add_argument("--n", dest="n", type=_size, default=16, help="grid order (default 16)")
    p.add_argument("--samples", type=_size, default=10,
                   help="number of eigenvalues, smallest first (default 10)")
    _add_common(p)

    p = sub.add_parser("solve-2d", help="solve the 2D problem")
    _add_common(p, guesses=["eigenfunction", "onepoint", "zero"])
    p.set_defaults(dim="2d")

    p = sub.add_parser("bifurcation-2d-approx", help="one-point 2D diagram estimate")
    p.add_argument("--samples", type=_size, default=400,
                   help="amplitude steps over [0, 8] (default 400)")
    _add_common(p)

    p = sub.add_parser("coeffs", help="coefficient-decay report of a solve")
    p.add_argument("dim", choices=["1d", "2d"], help="dimension of the solve")
    _add_common(p, guesses=["zero", "onepoint", "eigenfunction"])

    p = sub.add_parser("symmetry", help="symmetry report of a 2D solve")
    _add_common(p, guesses=["eigenfunction", "onepoint", "zero"])
    p.set_defaults(dim="2d")

    return parser


def _trace_doc(trace) -> dict:
    return {
        "iterations": trace.iterations,
        "update_norms": list(trace.update_norms),
        "residual_norms": list(trace.residual_norms),
        "converged": trace.converged,
        "order_estimate": convergence_order_estimate(trace),
    }


def _spectrum(values):
    """A real spectrum as ``[value, 0.0]`` pairs, and as ``(k, value, 0.0)``
    rows for the csv and dat tables."""
    pairs = [[float(v), 0.0] for v in values]
    return pairs, [(k, *pair) for k, pair in enumerate(pairs)]


# --------------------------------------------------------------------------
# command handlers: each returns (exit_code, doc, table)
# table = (comment_lines, column_names, rows) or None for json-only payloads;
# a solve subcommand's handler is _solving(report) with report(args, sol, params)
# --------------------------------------------------------------------------


def _cmd_bifurcation_1d(args):
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


def _solving(report):
    """The handler of a solve subcommand: run the 1D or 2D solve the
    invocation asks for and pass it on as ``report(args, solution,
    params)``.  On any Newton failure the handler returns exit 3 instead,
    with the Newton trace and the error message."""
    def handler(args):
        n = args.n if args.n is not None else (32 if args.dim == "1d" else 16)
        grid = cheb_points(n, args.half_width)
        guess = _guess_file(args.guess[5:]) if args.guess.startswith("file:") else args.guess
        params = {
            "lambda": args.lam,
            "L": args.half_width,
            "n": n,
            "guess": args.guess,
            "nonlinearity": args.nonlinearity,
            "epsilon": args.epsilon,
        }
        stops = {"tol_update": args.tol, "max_iter": args.max_iter}
        config = NewtonConfig(**{key: v for key, v in stops.items() if v is not None})
        nonlinearity = make_nonlinearity(args.nonlinearity, args.epsilon)
        try:
            if args.dim == "1d":
                sol = bratu1d.solve_1d(args.lam, nonlinearity, grid, guess, args.amplitude, config)
            else:
                sol = solve(args.lam, nonlinearity, grid, 2, guess, args.amplitude, config)
        except NewtonError as exc:
            doc = {
                "params": params,
                "solution": None,
                "newton": _trace_doc(exc.trace),
                "error": str(exc),
            }
            return 3, doc, None
        return report(args, sol, params)
    return handler


def _cmd_solve(args, sol, params):
    decay = diagnostics.decay_report(sol.grid, sol.values.T)
    dim = sol.values.ndim
    rot90 = diagnostics.symmetry_report(sol.interior).rot90_dev if dim == 2 else None
    doc = {
        "params": params,
        "solution": {
            "u_max": sol.u_max,
            "center_value": sol.center_value(),
            "branch": sol.branch,
            "grid_values": np.atleast_2d(sol.values).tolist(),
        },
        "newton": _trace_doc(sol.trace),
        "diagnostics": {
            "odd_floor": decay.odd_floor,
            "fit_rate": decay.fit_rate,
            "rot90_dev": rot90,
        },
    }
    # one row per grid point, x varying fastest: (x, u) or (x, y, u[iy, ix])
    coords = [c.ravel().tolist() for c in np.meshgrid(*[sol.grid.points] * dim)]
    rows = list(zip(*coords, sol.values.ravel().tolist()))
    label = f"branch = {sol.branch}" if dim == 1 else f"nonlinearity = {args.nonlinearity}"
    comments = [f"lambda = {args.lam}  {label}"]
    return 0, doc, (comments, ["x", "y"][:dim] + ["u"], rows)


def _cmd_stability_1d(args, sol, params):
    stable, mu_min, spectrum = bratu1d.stability_1d(sol)
    eigs, rows = _spectrum(spectrum.values)
    doc = {
        "params": params,
        "solution": {
            "u_max": sol.u_max,
            "center_value": sol.center_value(),
            "branch": sol.branch,
        },
        "stability": {"stable": stable, "mu_min": mu_min, "eigenvalues": eigs},
        "newton": _trace_doc(sol.trace),
    }
    comments = [f"stable = {stable}  mu_min = {mu_min:.16e}"]
    return 0, doc, (comments, ["k", "mu_real", "mu_imag"], rows)


def _cmd_eig_2d(args):
    grid = cheb_points(args.n, args.half_width)
    eigs, rows = _spectrum(laplacian(grid, 2).eigenpairs(args.samples).values)
    doc = {
        "params": {"L": args.half_width, "n": args.n, "count": args.samples},
        "eigenvalues": eigs,
    }
    return 0, doc, ([], ["k", "eig_real", "eig_imag"], rows)


def _cmd_coeffs(args, sol, params):
    rep = diagnostics.decay_report(sol.grid, sol.values.T)
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


def _cmd_symmetry(args, sol, params):
    devs = asdict(diagnostics.symmetry_report(sol.interior))
    doc = {
        "params": params,
        "solution": {"u_max": sol.u_max, "center_value": sol.center_value()},
        "symmetry": devs,
        "newton": _trace_doc(sol.trace),
    }
    rows = [(key.removesuffix("_dev"), dev) for key, dev in devs.items()]
    return 0, doc, ([], ["symmetry", "deviation"], rows)


_HANDLERS = {
    "bifurcation-1d": _cmd_bifurcation_1d,
    "solve-1d": _solving(_cmd_solve),
    "stability-1d": _solving(_cmd_stability_1d),
    "eig-2d": _cmd_eig_2d,
    "solve-2d": _solving(_cmd_solve),
    "bifurcation-2d-approx": _cmd_bifurcation_2d_approx,
    "coeffs": _solving(_cmd_coeffs),
    "symmetry": _solving(_cmd_symmetry),
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
    except InvalidArgumentError as exc:
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
