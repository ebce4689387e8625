"""Batch command-line front end.

One subcommand per workflow: closed-form bifurcation data, 1D/2D solves
with selectable initial guesses and nonlinearities, the linear
eigenproblem, coefficient-decay and symmetry reports.  Outputs are
machine-readable (json / csv / dat); ``.dat`` files are two/three-column
whitespace tables ready for external plotting tools.  Runs are
deterministic: the same argv produces byte-identical output.

Exit codes: 0 success, 2 invalid arguments (a size too large to
allocate among them), 3 Newton failure of any kind (non-convergence,
divergence or a singular Jacobian; the payload still carries the Newton
trace), 4 any other numerical failure (such as an eigensolver that does
not converge or finds a complex spectrum, or a gelfand pole).
"""

from __future__ import annotations

import argparse
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


class _NegativeNumber:
    """Which argv entries starting with ``-`` argparse reads as a value, not
    as an option: every negative float literal, exponents (``-1e2``) and
    ``-inf`` included.  argparse's own pattern (CPython 3.10 to 3.13) reads
    only ``-1`` and ``-1.5`` that way, so ``--amplitude -1e2`` would fail
    to parse."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return text.startswith("-")


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the class of its subparsers, that reads
    negative numbers by :class:`_NegativeNumber`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse has no public hook for this.  ``_negative_number_matcher``
        # is the private regex that ``_ActionsContainer.__init__`` compiles
        # and that ``_add_action`` and ``ArgumentParser._parse_optional``
        # call as ``.match(arg)``; checked in the argparse sources of
        # CPython 3.10, 3.11, 3.12 and 3.13.  Another version may read it
        # differently, which ``test_negative_number_as_its_own_argv_entry``
        # would show.
        self._negative_number_matcher = _NegativeNumber


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
        p.add_argument("--tol", type=float, default=NewtonConfig.tol_update,
                       help="Newton update tolerance (default %(default)s); the residual test "
                            "(sup-norm <= 1e-10) usually stops the iteration first")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=NewtonConfig.max_iter,
                       help="Newton iteration cap (default %(default)s)")
    p.add_argument("--format", default="json", choices=["json", "csv", "dat"],
                   help="output format (default json)")
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chebratu",
        description="Chebyshev collocation solvers for Bratu-type problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a solve subcommand sets ``dim``, "1d" or "2d", whose digit is the ndim it solves in

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
    """A real spectrum as ``[value, 0.0]`` pairs, and as the ``k``, value
    and ``0.0`` columns of the csv and dat tables."""
    zeros = np.zeros(len(values))
    return np.column_stack((values, zeros)), [np.arange(len(values)), values, zeros]


# --------------------------------------------------------------------------
# command handlers: each returns (exit_code, doc, table)
# table = (comment_lines, column_names, columns) or None for json-only payloads,
# each column a sequence of ints, floats or strings, all of one length;
# a solve subcommand's handler is _solving(report) with report(args, sol, params)
# --------------------------------------------------------------------------


def _cmd_bifurcation_1d(args):
    curve = bratu1d.bifurcation_curve(args.half_width, args.samples)
    doc = {
        "params": {"L": args.half_width, "samples": args.samples},
        "fold": {"A": curve.fold[0], "lambda": curve.fold[1]},
        "samples": np.column_stack((curve.amplitudes, curve.lams)),
    }
    comments = [
        f"fold: A* = {curve.fold[0]:.16e}  lambda* = {curve.fold[1]:.16e}",
        f"L = {args.half_width}",
    ]
    return 0, doc, (comments, ["A", "lambda"], [curve.amplitudes, curve.lams])


def _cmd_bifurcation_2d_approx(args):
    if args.samples < 2:
        raise InvalidArgumentError("--samples must be at least 2")
    amps = 8.0 * np.arange(args.samples + 1) / args.samples
    lams = pde2d.onepoint_lambda(amps)
    peak_a = 1.0 / 0.64
    doc = {
        "params": {"samples": args.samples},
        "peak": {"A": peak_a, "lambda": pde2d.onepoint_lambda(peak_a)},
        "samples": np.column_stack((amps, lams)),
    }
    comments = [f"one-point diagram peak: A = {peak_a:.16e} lambda = {doc['peak']['lambda']:.16e}"]
    return 0, doc, (comments, ["A", "lambda"], [amps, lams])


def _solving(report):
    """The handler of a solve subcommand: run the solve the invocation asks
    for, in the dimension its parser sets, and pass it on as ``report(args,
    solution, params)``.  On any Newton failure the handler returns exit 3
    instead, with the Newton trace and the error message."""
    def handler(args):
        ndim = int(args.dim[0])
        n = args.n if args.n is not None else (32 if ndim == 1 else 16)
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
        config = NewtonConfig(args.tol, args.max_iter)
        nonlinearity = make_nonlinearity(args.nonlinearity, args.epsilon)
        try:
            sol = solve(args.lam, nonlinearity, grid, ndim, guess, args.amplitude, config)
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
    branch = bratu1d.branch_label(sol)
    doc = {
        "params": params,
        "solution": {
            "u_max": sol.u_max,
            "center_value": sol.center_value(),
            "branch": branch,
            "grid_values": np.atleast_2d(sol.values),
        },
        "newton": _trace_doc(sol.trace),
        "diagnostics": {
            "odd_floor": decay.odd_floor,
            "fit_rate": decay.fit_rate,
            "rot90_dev": rot90,
        },
    }
    # one row per grid point, x varying fastest: (x, u) or (x, y, u[iy, ix])
    coords = [c.ravel() for c in np.meshgrid(*[sol.grid.points] * dim)]
    label = f"branch = {branch}" if dim == 1 else f"nonlinearity = {args.nonlinearity}"
    comments = [f"lambda = {args.lam}  {label}"]
    return 0, doc, (comments, ["x", "y"][:dim] + ["u"], [*coords, sol.values.ravel()])


def _cmd_stability_1d(args, sol, params):
    stable, mu_min, spectrum = bratu1d.stability_1d(sol)
    eigs, columns = _spectrum(spectrum.values)
    doc = {
        "params": params,
        "solution": {
            "u_max": sol.u_max,
            "center_value": sol.center_value(),
            "branch": bratu1d.branch_label(sol),
        },
        "stability": {"stable": stable, "mu_min": mu_min, "eigenvalues": eigs},
        "newton": _trace_doc(sol.trace),
    }
    comments = [f"stable = {stable}  mu_min = {mu_min:.16e}"]
    return 0, doc, (comments, ["k", "mu_real", "mu_imag"], columns)


def _cmd_eig_2d(args):
    grid = cheb_points(args.n, args.half_width)
    eigs, columns = _spectrum(laplacian(grid, 2).eigenpairs(args.samples).values)
    doc = {
        "params": {"L": args.half_width, "n": args.n, "count": args.samples},
        "eigenvalues": eigs,
    }
    return 0, doc, ([], ["k", "eig_real", "eig_imag"], columns)


def _cmd_coeffs(args, sol, params):
    rep = diagnostics.decay_report(sol.grid, sol.values.T)
    # one row per coefficient, the last index varying fastest
    indices = [i.ravel() for i in np.indices(rep.coeffs.shape)]
    doc = {
        "params": params,
        "decay": {
            "odd_floor": rep.odd_floor,
            "even_floor": rep.even_floor,
            "fit_rate": rep.fit_rate,
            "plateau": rep.plateau,
        },
        "coefficients": rep.coeffs,
        "newton": _trace_doc(sol.trace),
    }
    columns = ["k", "l"][:rep.coeffs.ndim] + ["abs_coeff"]
    return 0, doc, ([], columns, [*indices, rep.coeffs.ravel()])


def _cmd_symmetry(args, sol, params):
    devs = asdict(diagnostics.symmetry_report(sol.interior))
    doc = {
        "params": params,
        "solution": {"u_max": sol.u_max, "center_value": sol.center_value()},
        "symmetry": devs,
        "newton": _trace_doc(sol.trace),
    }
    names = [key.removesuffix("_dev") for key in devs]
    return 0, doc, ([], ["symmetry", "deviation"], [names, list(devs.values())])


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


# the cell format of a table column, by numpy dtype kind; any other is "%s"
_CELL = {"i": "%d", "u": "%d", "f": "%.16e"}


def _table_text(header: str, columns, sep: str) -> str:
    """``header``, then one line per row of ``columns``: the cells in
    ``_CELL`` format, joined by ``sep``."""
    columns = [np.asarray(c) for c in columns]
    line = sep.join(_CELL.get(c.dtype.kind, "%s") for c in columns) + "\n"
    rows = len(columns[0])
    cells = [None] * (rows * len(columns))
    for j, c in enumerate(columns):
        cells[j::len(columns)] = c.tolist()
    return header + (line * rows) % tuple(cells)


def _array_text(values: list, indent: str) -> str:
    """The nonempty nested list of floats ``values`` as ``json.dumps`` with
    ``indent=2`` writes it on a line indented by ``indent``."""
    inner = indent + "  "
    if isinstance(values[0], list):
        items = [_array_text(v, inner) for v in values]
    else:
        items = map(float.__repr__, values)
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)`` with every ndarray written as its
    ``tolist()``.  The encoder that indents is pure Python, so each
    nonempty all-finite float array goes in as a placeholder and is
    written by :func:`_array_text` in its place."""
    arrays = []

    def placeholder(a):
        if a.dtype.kind != "f" or a.size == 0 or not np.isfinite(a).all():
            return a.tolist()
        arrays.append(a)
        return f"\0{len(arrays) - 1}"

    # a NUL cannot occur in a document string (argv entries and file paths
    # hold none, and the rest are constants), so each mark occurs once
    text = json.dumps(doc, indent=2, default=placeholder)
    for k, a in enumerate(arrays):
        mark = f'"\\u0000{k}"'
        start = text.index(mark)
        line = text[text.rfind("\n", 0, start) + 1:start]
        indent = line[:len(line) - len(line.lstrip(" "))]
        text = text[:start] + _array_text(a.tolist(), indent) + text[start + len(mark):]
    return text


def _render(doc, table, fmt: str) -> str:
    if fmt == "json" or table is None:
        return _json_text(doc) + "\n"
    comments, names, columns = table
    if fmt == "csv":
        return _table_text(",".join(names) + "\n", columns, ",")
    header = "".join(f"# {c}\n" for c in [*comments, "  ".join(names)])
    return _table_text(header, columns, "  ")


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
    except (InvalidArgumentError, MemoryError) as exc:
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
