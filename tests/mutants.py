"""Mutation check of the numeric guards: does the test suite fail without each?

Usage::

    python tests/mutants.py [--tree CHECKOUT]

Each entry of ``MUTANTS`` names one guard and the ``(file, old, new)``
edit that switches it off.  For each entry the checkout (by default the
one holding this file) is copied to a temporary directory, the edit is
applied there (``old`` must occur exactly once in ``file``), and the tier-1
suite runs in the copy with ``-x``.  The mutant is "killed" when a test
fails, and the first failing test is printed; otherwise it "survived".  A
last line counts the kills; the exit status is 1 if any mutant survived.

An entry removes or weakens a guard: a check that raises, or a threshold
that decides what counts as data.  Edits that only move results by
rounding are not mutants.  Standard library only; pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, file, old, new)
MUTANTS = [
    ("gmres breakdown check", "src/chebratu/numerics.py",
     "        if not (math.isfinite(rho) and rho > 0.0):\n",
     "        if False:\n"),
    ("newton evaluate shape check", "src/chebratu/newton.py",
     "        if out.shape[0] != u.shape[0]:\n",
     "        if False:\n"),
    ("newton non-finite iterate check", "src/chebratu/newton.py",
     '            if not np.all(np.isfinite(u)):\n'
     '                raise DivergenceError("iterate became non-finite"',
     '            if False:\n'
     '                raise DivergenceError("iterate became non-finite"'),
    ("order-estimate rounding floor", "src/chebratu/newton.py",
     "_ORDER_FLOOR = 1e-14\n",
     "_ORDER_FLOOR = 1e-12\n"),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "*.egg-info")


def _first_failure(output: str) -> str | None:
    """The first ``FAILED`` or ``ERROR`` test of pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run_mutant(tree: Path, path: str, old: str, new: str) -> str | None:
    """The first test that fails in a copy of ``tree`` with ``old``
    replaced by ``new`` in ``path``, or None if the suite passes."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=_IGNORE)
        target = copy / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{path}: the edit's old text occurs {text.count(old)} times, not once")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, text=True)
        if result.returncode == 0:
            return None
        return _first_failure(result.stdout) or f"pytest exit {result.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to mutate (default: the one holding this file)")
    args = parser.parse_args(argv)
    killed = 0
    for name, path, old, new in MUTANTS:
        failure = run_mutant(args.tree, path, old, new)
        killed += failure is not None
        print(f"{'killed' if failure else 'survived':9} {name}" + (f": {failure}" if failure else ""),
              flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
