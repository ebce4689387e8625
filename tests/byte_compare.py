"""Compare the command-line output of two source trees, request by request.

Usage::

    python tests/byte_compare.py --parent OLD_CHECKOUT --change NEW_CHECKOUT

Each tree's ``src/`` is imported in a subprocess of its own, which runs a
fixed list of argv through ``chebratu.cli.run`` and reports, per request,
the exit code and the output (stdout, then the ``--output`` file).  Every
request whose exit code or output bytes differ is printed, and a summary
line counts them by the parent's exit code; the exit status is 1 if any
differ.  Messages on stderr are not compared.

Each differing request whose two outputs are both JSON is also compared
number by number: any change in the Newton iteration count is printed,
and so is the largest absolute difference under each key path that has
one, list indices collapsed to ``[]`` (``solution.grid_values[][]``).  A
last table gives the largest difference per key path over the requests
that exit 0 in both trees.

The list covers all eight subcommands in json, csv and dat; n = 7, 12, 13,
15, 16, 32, 48 and 64, and 1D solves at n = 200 and 256, which only the
Newton update test ends; the exp, gelfand, cosh and sinh terms in both
dimensions (the 1D solve, stability and coefficient subcommands with each
term from both guesses); both branches; the eigenfunction guess in both
dimensions; ``file:`` guesses in both dimensions, among them an empty and
a NaN one; the exit-2 and exit-3 requests of ``tests/test_cli.py``; a
gelfand pole (exit 4); a negative ``--lambda`` and one of -0.0 in every
format; ``--n 3``, ``--epsilon`` with a term other than gelfand, an
``--L`` whose square overflows or is subnormal, one whose ``D2``
overflows and one whose closed-form ``lam`` underflows; a residual whose
2-norm overflows; a guess amplitude of 1e308 for every term but exp, and
a gelfand Jacobian that overflows; the whole spectrum of the smallest
grid; and the help text of the program and of each subcommand.
Guess files are written to a temporary directory shared by both runs, so
their paths, which the outputs record, agree.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

FORMATS = ("json", "csv", "dat")


def _guess_files(tmp: Path) -> dict:
    """Starting fields on disk, built with numpy alone: the closed-form 1D
    big solution at lam = 0.25 and 2D fields near each branch at lam = 0.5."""
    files = {}

    def points(n):
        return np.cos(np.pi * np.arange(n + 1) / n)

    x = points(32)
    b = np.arccosh(np.exp(4.0914672461892596 / 2.0))
    big_1d = 4.0914672461892596 - 2.0 * np.log(np.cosh(b * x))
    for name, data in (("1d_full", big_1d), ("1d_interior", big_1d[1:-1]),
                       ("1d_bad", big_1d[:10]), ("1d_nan", np.full(33, np.nan)),
                       ("2d_nan", np.full((17, 17), np.nan))):
        files[name] = tmp / f"{name}.txt"
        np.savetxt(files[name], data)
    files["empty"] = tmp / "empty.txt"
    files["empty"].write_text("")
    for n in (12, 16):
        x = points(n)
        small = 0.1 * np.outer(np.cos(np.pi * x / 2.0), np.cos(np.pi * x / 2.0))
        big = 5.5 * np.outer(1.0 - x**2, 1.0 - x**2)
        for name, data in ((f"2d_small_full_{n}", small),
                           (f"2d_big_interior_{n}", big[1:-1, 1:-1]),
                           (f"2d_bad_{n}", small[1:, 1:])):
            files[name] = tmp / f"{name}.txt"
            np.savetxt(files[name], data)
    return files


def requests(tmp: Path) -> list[list[str]]:
    files = _guess_files(tmp)
    reqs = []
    for fmt in FORMATS:
        f = ["--format", fmt]
        for half_width in ("0.3", "0.5", "1", "2", "10"):
            reqs.append(["bifurcation-1d", "--L", half_width, "--samples", "50", *f])
        reqs.append(["bifurcation-1d", *f])
        reqs.append(["bifurcation-2d-approx", "--samples", "40", *f])
        reqs.append(["bifurcation-2d-approx", *f])
        for n in ("7", "12", "13", "16"):
            reqs.append(["eig-2d", "--n", n, "--samples", "6", *f])
        reqs.append(["eig-2d", *f])
        for n in ("32", "48"):
            reqs.append(["eig-2d", "--n", n, "--samples", "40", *f])
        for n in ("48", "64"):
            reqs.append(["stability-1d", "--lambda", "0.5", "--n", n, *f])
            reqs.append(["stability-1d", "--lambda", "0.5", "--n", n, "--guess", "onepoint", *f])
        for n in ("7", "12", "13", "15", "16", "32"):
            for lam in ("0.1", "0.25", "0.5", "0.87"):
                reqs.append(["solve-1d", "--lambda", lam, "--n", n, *f])
                reqs.append(["solve-1d", "--lambda", lam, "--n", n, "--guess", "onepoint", *f])
            reqs.append(["solve-1d", "--lambda", "0.25", "--n", n, "--guess", "onepoint",
                         "--amplitude", "3", "--L", "0.5", *f])
            reqs.append(["stability-1d", "--lambda", "0.25", "--n", n, *f])
            reqs.append(["stability-1d", "--lambda", "0.5", "--n", n, "--guess", "onepoint", *f])
            reqs.append(["coeffs", "1d", "--lambda", "0.25", "--n", n, "--guess", "onepoint", *f])
        for n in ("16", "32", "48"):
            for nl in (["cosh"], ["sinh"], ["gelfand", "--epsilon", "0.1"]):
                for guess in ("zero", "onepoint"):
                    common = ["--lambda", "0.3", "--n", n, "--nonlinearity", *nl,
                              "--guess", guess, *f]
                    reqs += [["solve-1d", *common], ["stability-1d", *common],
                             ["coeffs", "1d", *common]]
        # the paper's small-branch start, the first eigenvector, in 1D
        for n in ("16", "32"):
            for lam in ("0.1", "0.87"):
                common = ["--lambda", lam, "--n", n, "--guess", "eigenfunction", *f]
                reqs += [["solve-1d", *common], ["stability-1d", *common],
                         ["coeffs", "1d", *common]]
        reqs.append(["solve-1d", "--lambda", "0.25", "--tol", "1e-4", "--max-iter", "12", *f])
        reqs.append(["stability-1d", "--lambda", "0.1", *f])
        reqs.append(["coeffs", "1d", "--lambda", "0.25", *f])
        for n in ("7", "12", "13", "15", "16"):
            for nl in (["exp"], ["gelfand", "--epsilon", "0.1"], ["cosh"], ["sinh"]):
                common = ["--lambda", "0.5", "--n", n, "--nonlinearity", *nl, *f]
                reqs.append(["solve-2d", *common])
                reqs.append(["solve-2d", *common, "--guess", "zero"])
                reqs.append(["coeffs", "2d", *common])
                reqs.append(["symmetry", *common, "--guess", "onepoint", "--amplitude", "0.5"])
            reqs.append(["solve-2d", "--lambda", "0.5", "--n", n, "--guess", "onepoint",
                         "--amplitude", "6", *f])
            reqs.append(["solve-2d", "--lambda", "1.2", "--n", n, "--guess", "eigenfunction",
                         "--amplitude", "0.3", "--L", "0.8", *f])
        reqs.append(["solve-2d", "--lambda", "0.5", "--n", "32", *f])
        # a negative zero, which params and the dat comment line record as -0.0
        for argv in (["solve-1d"], ["solve-2d"], ["coeffs", "2d"]):
            reqs.append([*argv, "--lambda=-0.0", *f])
        reqs.append(["solve-2d", "--lambda", "0.5", "--n", "32", "--guess", "onepoint",
                     "--amplitude", "5.5", *f])
        reqs.append(["coeffs", "2d", "--lambda", "0.5", "--n", "32", *f])
        reqs.append(["symmetry", "--lambda", "0.5", "--n", "32", "--guess", "onepoint",
                     "--amplitude", "5.5", *f])
        for name in ("1d_full", "1d_interior"):
            reqs.append(["solve-1d", "--lambda", "0.25", "--n", "32",
                         "--guess", f"file:{files[name]}", *f])
        for n in ("12", "16"):
            for name in (f"2d_small_full_{n}", f"2d_big_interior_{n}"):
                reqs.append(["solve-2d", "--lambda", "0.5", "--n", n,
                             "--guess", f"file:{files[name]}", *f])
                reqs.append(["symmetry", "--lambda", "0.5", "--n", n,
                             "--guess", f"file:{files[name]}", *f])
    # 1D grids whose residual floor lies above 1e-10, so that only the
    # Newton update test ends the solve
    for n in ("200", "256"):
        reqs.append(["solve-1d", "--lambda", "0.05", "--n", n, "--guess", "onepoint"])
    # exit 3: Newton failures with their trace (tests/test_cli.py and more)
    for argv in (["solve-2d", "--lambda", "5.0", "--n", "16", "--guess", "eigenfunction"],
                 ["solve-1d", "--lambda", "1.0"],
                 ["solve-1d", "--lambda", "1.75", "--n", "32"],
                 ["solve-2d", "--lambda", "2.0", "--n", "16", "--guess", "eigenfunction"],
                 ["solve-2d", "--lambda", "0.5", "--n", "32", "--guess", "onepoint"],
                 ["stability-1d", "--lambda", "1.0"],
                 ["coeffs", "2d", "--lambda", "3.0", "--n", "12"],
                 ["symmetry", "--lambda", "3.0", "--n", "12"],
                 ["solve-1d", "--lambda", "0.25", "--max-iter", "1", "--guess", "onepoint"]):
        reqs.extend([*argv, "--format", fmt] for fmt in FORMATS)
    # exit 4: the Newton iterate reaches the gelfand pole
    reqs.append(["solve-1d", "--lambda", "3", "--nonlinearity", "gelfand", "--epsilon", "0.9",
                 "--guess", "onepoint", "--amplitude", "-20"])
    # exit 2: invalid requests (tests/test_cli.py and the guess errors)
    reqs += [
        ["solve-1d", "--lambda", "0.25", "--n", "2"],
        ["solve-2d", "--lambda", "0.5", "--nonlinearity", "gelfand"],
        ["solve-2d", "--lambda", "-1.0"],
        ["bifurcation-1d", "--samples", "1"],
        ["bifurcation-2d-approx", "--samples", "1"],
        ["coeffs", "1d", "--lambda", "0.25", "--nonlinearity", "cosh", "--epsilon", "0.3"],
        ["solve-1d", "--lambda", "0.3", "--nonlinearity", "exp", "--epsilon", "0.5"],
        ["solve-1d", "--lambda", "0.25", "--output", str(tmp / "no" / "dir.json")],
        ["solve-1d"],
        ["solve-2d", "--lambda", "0.5", "--nonlinearity", "tanh"],
        ["frobnicate"],
        ["bifurcation-1d", "--jobs", "2"],
        ["solve-1d", "--lambda", "0.25", "--guess", "eigenfunction"],
        ["solve-1d", "--lambda", "0.25", "--guess", "mystery"],
        ["coeffs", "1d", "--lambda", "0.25", "--guess", "eigenfunction"],
        ["solve-2d", "--lambda", "0.5", "--guess", "mystery"],
        ["solve-2d", "--lambda", "0.5", "--guess", "eigenfunction", "--amplitude", "0"],
        ["solve-2d", "--lambda", "0.5", "--guess", "eigenfunction", "--amplitude", "-1"],
        ["symmetry", "--lambda", "0.5", "--guess", "eigenfunction", "--amplitude", "0"],
        ["solve-1d", "--lambda", "0.25", "--guess", f"file:{files['1d_bad']}"],
        ["solve-1d", "--lambda", "0.25", "--n", "16", "--guess", f"file:{files['1d_full']}"],
        ["solve-2d", "--lambda", "0.5", "--n", "12", "--guess", f"file:{files['2d_bad_12']}"],
        ["solve-2d", "--lambda", "0.5", "--n", "12",
         "--guess", f"file:{files['2d_small_full_16']}"],
        ["solve-2d", "--lambda", "0.5", "--guess", f"file:{tmp / 'missing.txt'}"],
        ["solve-1d", "--lambda", "0.25", "--guess", f"file:{tmp / 'missing.txt'}"],
        ["solve-1d", "--lambda", "0.25", "--guess", f"file:{files['empty']}"],
        ["solve-2d", "--lambda", "0.5", "--guess", f"file:{files['empty']}"],
        ["solve-1d", "--lambda", "0.25", "--guess", f"file:{files['1d_nan']}"],
        ["solve-2d", "--lambda", "0.5", "--guess", f"file:{files['2d_nan']}"],
        ["solve-2d", "--lambda", "0.5", "--n", "2"],
        ["solve-1d", "--lambda", "0.25", "--tol", "0"],
        ["eig-2d", "--samples", "0"],
    ]
    # one lam check and one grid-order floor (n >= 3) for both dimensions, and a
    # half-width whose square is not a finite nonzero float
    reqs += [["solve-1d", "--lambda", "-1"], ["stability-1d", "--lambda", "-1"],
             ["solve-1d", "--lambda", "0.25", "--n", "3"]]
    for argv in (["solve-1d", "--lambda", "0.25"], ["solve-2d", "--lambda", "0.5"],
                 ["coeffs", "1d", "--lambda", "0.25"], ["eig-2d"], ["bifurcation-1d"]):
        reqs.append([*argv, "--L", "1e200"])
    # a subnormal L**2, whose reciprocal overflows, and an L whose D2 overflows
    for argv in (["solve-1d", "--lambda", "0.5"], ["solve-2d", "--lambda", "0.5"],
                 ["bifurcation-1d"]):
        reqs.append([*argv, "--L", "1e-160"])
    # an L whose square is finite but whose lam(A) underflows to 0
    reqs.append(["bifurcation-1d", "--L", "1e154"])
    reqs += [["solve-1d", "--lambda", "0.5", "--L", "1e-153"],
             ["solve-2d", "--lambda", "0.5", "--L", "1e-153"]]
    # residual entries finite but their 2-norm overflowing: a failed Newton
    # step (exit 3) in both dimensions
    for lam in ("1e160", "1e200", "1e300", "1e308"):
        reqs.append(["solve-2d", "--lambda", lam])
    for amplitude in ("400", "500", "700"):
        reqs.append(["solve-2d", "--lambda", "0.5", "--n", "16", "--guess", "onepoint",
                     "--amplitude", amplitude])
    # the whole spectrum of the smallest grid, and one eigenpair too many
    reqs += [["eig-2d", "--n", "3", "--samples", "4"], ["eig-2d", "--n", "3", "--samples", "5"]]
    for command in ("solve-1d", "solve-2d"):
        for amplitude in ("nan", "inf"):
            reqs.append([command, "--lambda", "0.25", "--guess", "onepoint",
                         "--amplitude", amplitude])
        # a guess whose residual overflows (exit 3), for every term but exp,
        # and a gelfand Jacobian that overflows where the residual does not
        for nl in (["gelfand", "--epsilon", "0.1"], ["cosh"], ["sinh"]):
            reqs.append([command, "--lambda", "0.5", "--guess", "onepoint",
                         "--amplitude", "1e308", "--nonlinearity", *nl])
        reqs.append([command, "--lambda", "1.7e308", "--nonlinearity", "gelfand",
                     "--epsilon", "0.9", "--guess", "onepoint", "--amplitude", "-0.5"])
    # help text, which argparse writes to stdout before it exits 0
    reqs.append(["--help"])
    for command in ("bifurcation-1d", "solve-1d", "stability-1d", "eig-2d", "solve-2d",
                    "bifurcation-2d-approx", "coeffs", "symmetry"):
        reqs.append([command, "--help"])
    # --output writes a file instead of stdout
    for k, fmt in enumerate(FORMATS):
        reqs.append(["solve-2d", "--lambda", "0.5", "--n", "12", "--format", fmt,
                     "--output", str(tmp / f"out{k}")])
        reqs.append(["solve-1d", "--lambda", "0.25", "--format", fmt,
                     "--output", str(tmp / f"out{k}")])
    return reqs


def _serve(reqs) -> list:
    """Run every request in this process; ``[exit code, output text]``, the
    code being ``"raised <exception type>"`` for a request that ``run``
    does not return from."""
    from chebratu.cli import run

    results = []
    for argv in reqs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = run(argv)
            except Exception as exc:  # a crash is a result to compare, not the end of the run
                code = f"raised {type(exc).__name__}"
        text = out.getvalue()
        if "--output" in argv:
            path = Path(argv[argv.index("--output") + 1])
            if path.is_file():
                text += path.read_text(encoding="utf-8")
                path.unlink()
        results.append([code, text])
    return results


def _run_tree(tree: Path, request_file: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, __file__, "--serve", str(request_file)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _as_json(text):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _differences(a, b, path: str, out: dict) -> None:
    """Largest absolute difference of ``a`` and ``b`` under each key path,
    into ``out``; a change of type, keys or list length is ``"changed"``."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _differences(a[key], b[key], f"{path}.{key}" if path else key, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _differences(x, y, path + "[]", out)
    elif _is_number(a) and _is_number(b):
        diff = 0.0 if a == b or (a != a and b != b) else abs(a - b)
        out[path] = _merge(out.get(path, 0.0), diff if diff == diff else "changed")
    elif a != b:
        out[path] = "changed"


def _merge(old, new):
    """The larger of two differences, ``"changed"`` above every number."""
    return "changed" if "changed" in (old, new) else max(old, new)


def _newton_iterations(doc):
    newton = doc.get("newton") if isinstance(doc, dict) else None
    return newton.get("iterations") if isinstance(newton, dict) else None


def _print_numeric(code_a, code_b, text_a, text_b, overall: dict) -> None:
    a, b = _as_json(text_a), _as_json(text_b)
    if a is None or b is None:
        return
    its = _newton_iterations(a), _newton_iterations(b)
    if its[0] != its[1]:
        print(f"    newton iterations {its[0]} -> {its[1]}")
    diffs = {}
    _differences(a, b, "", diffs)
    for path, diff in sorted(diffs.items()):
        if diff != 0.0:
            print(f"    {path}: {diff if diff == 'changed' else format(diff, '.3e')}")
            if code_a == code_b == 0:
                overall[path] = _merge(overall.get(path, 0.0), diff)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve is not None:
        json.dump(_serve(json.loads(args.serve.read_text())), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    with tempfile.TemporaryDirectory() as tmp:
        reqs = requests(Path(tmp))
        request_file = Path(tmp) / "requests.json"
        request_file.write_text(json.dumps(reqs))
        before = _run_tree(args.parent.resolve(), request_file)
        after = _run_tree(args.change.resolve(), request_file)
    differ = Counter()
    overall = {}
    for argv, (code_a, text_a), (code_b, text_b) in zip(reqs, before, after):
        if code_a != code_b or text_a != text_b:
            differ[str(code_a)] += 1
            print(f"DIFFER exit {code_a} -> {code_b}, output "
                  f"{'same' if text_a == text_b else 'changed'}: {' '.join(argv)}")
            _print_numeric(code_a, code_b, text_a, text_b, overall)
    codes = sorted(Counter(str(code) for code, _ in before).items())
    print(f"{len(reqs)} requests, {differ.total()} differ; by parent exit code: "
          + ", ".join(f"{differ[code]} of {count} exit-{code} requests differ"
                      for code, count in codes))
    if overall:
        print("largest difference per key path, requests that exit 0 in both trees:")
        for path, diff in sorted(overall.items()):
            print(f"    {path}: {diff if diff == 'changed' else format(diff, '.3e')}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
