"""Compare the command-line output of two source trees, request by request.

Usage::

    python tests/byte_compare.py --parent OLD_CHECKOUT --change NEW_CHECKOUT

Each tree's ``src/`` is imported in a subprocess of its own, which runs a
fixed list of argv through ``chebratu.cli.run`` and reports, per request,
the exit code and the SHA-256 of the output (stdout, or the ``--output``
file).  Every request whose exit code or output bytes differ is printed;
the exit status is 1 if any differ.  Messages on stderr are not compared.

The list covers all eight subcommands in json, csv and dat; n = 7, 12, 13,
15, 16 and 32; the exp, gelfand, cosh and sinh terms; both branches;
``file:`` guesses in both dimensions; and the exit-2 and exit-3 requests
of ``tests/test_cli.py``.  Guess files are written to a temporary
directory shared by both runs, so their paths, which the outputs record,
agree.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
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
                       ("1d_bad", big_1d[:10])):
        files[name] = tmp / f"{name}.txt"
        np.savetxt(files[name], data)
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
        for n in ("7", "12", "13", "15", "16", "32"):
            for lam in ("0.1", "0.25", "0.5", "0.87"):
                reqs.append(["solve-1d", "--lambda", lam, "--n", n, *f])
                reqs.append(["solve-1d", "--lambda", lam, "--n", n, "--guess", "onepoint", *f])
            reqs.append(["solve-1d", "--lambda", "0.25", "--n", n, "--guess", "onepoint",
                         "--amplitude", "3", "--L", "0.5", *f])
            reqs.append(["stability-1d", "--lambda", "0.25", "--n", n, *f])
            reqs.append(["stability-1d", "--lambda", "0.5", "--n", n, "--guess", "onepoint", *f])
            reqs.append(["coeffs", "1d", "--lambda", "0.25", "--n", n, "--guess", "onepoint", *f])
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
    # exit 2: invalid requests (tests/test_cli.py and the guess errors)
    reqs += [
        ["solve-1d", "--lambda", "0.25", "--n", "2"],
        ["solve-2d", "--lambda", "0.5", "--nonlinearity", "gelfand"],
        ["solve-2d", "--lambda", "-1.0"],
        ["bifurcation-1d", "--samples", "1"],
        ["coeffs", "1d", "--lambda", "0.25", "--nonlinearity", "cosh", "--epsilon", "0.3"],
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
        ["solve-2d", "--lambda", "0.5", "--n", "2"],
        ["solve-1d", "--lambda", "0.25", "--tol", "0"],
        ["eig-2d", "--samples", "0"],
    ]
    # --output writes a file instead of stdout
    for k, fmt in enumerate(FORMATS):
        reqs.append(["solve-2d", "--lambda", "0.5", "--n", "12", "--format", fmt,
                     "--output", str(tmp / f"out{k}")])
        reqs.append(["solve-1d", "--lambda", "0.25", "--format", fmt,
                     "--output", str(tmp / f"out{k}")])
    return reqs


def _serve(reqs) -> list:
    """Run every request in this process; ``[exit code, sha256 of output]``."""
    from chebratu.cli import run

    results = []
    for argv in reqs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        text = out.getvalue().encode("utf-8")
        if "--output" in argv:
            path = Path(argv[argv.index("--output") + 1])
            if path.is_file():
                text += path.read_bytes()
                path.unlink()
        results.append([code, hashlib.sha256(text).hexdigest()])
    return results


def _run_tree(tree: Path, request_file: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, __file__, "--serve", str(request_file)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


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
    differ = 0
    for argv, (code_a, sha_a), (code_b, sha_b) in zip(reqs, before, after):
        if code_a != code_b or sha_a != sha_b:
            differ += 1
            print(f"DIFFER exit {code_a} -> {code_b}, output "
                  f"{'same' if sha_a == sha_b else 'changed'}: {' '.join(argv)}")
    codes = dict(sorted(Counter(code for code, _ in before).items()))
    print(f"{len(reqs)} requests (parent exit code: count {codes}), {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
