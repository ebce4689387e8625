"""Command-line contract: invariants that every request keeps, whatever its
arguments.

A derandomized ``hypothesis`` search sends argv lists through
``chebratu.cli.run`` in-process, over all eight subcommands and three
formats.  Floats span the whole double range, with nan, +-inf,
subnormals, 1e154 and 1e308 drawn often; ``--guess`` takes every name and
``file:`` tables that are not numbers, ragged, not UTF-8, empty,
non-finite or of any shape.  For every request:

* the exit code is 0, 2, 3 or 4, and ``run`` returns rather than raises;
* no warning is issued;
* stderr holds only the program's own ``chebratu:`` lines (or, for an
  argv that argparse rejects, its usage block and ``chebratu ...:
  error:`` line, exit 2);
* the same argv gives the same bytes;
* a json ``solve-2d`` payload from a named guess (not ``file:``) that
  exits 0 is invariant under ``U <-> U^T``: ``max|U - U^T| <= 1e-13 *
  max(1, max|U|)`` over its ``grid_values``.  An array guess may be
  asymmetric, and so may its solution.
"""

import contextlib
import hashlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chebratu.cli import run

# Grid orders and counts are capped at 24 (plus 10**18, which numpy can index
# but not allocate, and one value past numpy's index range) for run time
# only: a 2D request at n = 24 takes milliseconds, one at a size in between
# would allocate and then run for a long time.  The Newton iteration cap is bounded for
# the same reason.  No other input is narrowed.
SIZES = st.sampled_from([*range(25), 10**18, 10**20]).map(str)
MAX_ITER = st.integers(-1, 40).map(str)

# every double, with typical values and the edges of the range drawn often
FLOATS = st.one_of(
    st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0, 3.0]),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 5e-324, 1e-310, 0.0, -0.0,
                     1e154, -1e154, 1e308, -1e308]),
    st.floats(),
).map(repr)

FORMATS = ["json", "csv", "dat"]
SOLVES = {"solve-1d": None, "stability-1d": None, "solve-2d": None, "symmetry": None,
          "coeffs": ["1d", "2d"]}


def _table(rows: int, cols: int, value: str) -> bytes:
    return "".join(" ".join([value] * cols) + "\n" for _ in range(rows)).encode()


@st.composite
def _guess_file_content(draw) -> bytes:
    rows, cols = draw(st.integers(0, 26)), draw(st.integers(1, 26))
    return draw(st.sampled_from([
        b"abc\n",                      # text that is not a number
        b"1 2\n3\n",                   # rows of unequal length
        b"\xff\xfe\x00 1\n",           # bytes that are not UTF-8
        b"",                           # no data at all
        _table(rows, cols, "nan"),
        _table(rows, cols, "-inf"),
        _table(rows, cols, "0.1"),     # finite, of any shape
    ]))


@pytest.fixture(scope="module")
def guess_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("guesses")


def _option(name: str, values, often: bool = False) -> st.SearchStrategy:
    """``[]`` or ``[name=value]`` for a drawn string ``value``, the latter
    one time in three (two in three if ``often``): the ``=`` form, so that
    argparse reads ``-inf`` as a value, not as a flag."""
    present = st.sampled_from([False, often, True])
    return present.flatmap(lambda p: values.map(lambda v: [f"{name}={v}"]) if p
                           else st.just([]))


def _any_guess(guess_dir) -> st.SearchStrategy:
    return st.one_of(
        st.sampled_from(["zero", "onepoint", "eigenfunction", "mystery"]),
        _guess_file_content().map(lambda data: _write_guess(guess_dir, data)),
    )


@st.composite
def _argv(draw, guesses, commands=("bifurcation-1d", "bifurcation-2d-approx", "eig-2d",
                                   *SOLVES), formats=FORMATS) -> list[str]:
    command = draw(st.sampled_from(commands))
    argv = [command]
    if command == "coeffs":
        argv.append(draw(st.sampled_from(SOLVES[command])))
    if command in ("bifurcation-1d", "eig-2d") or command in SOLVES:
        argv += draw(_option("--L", FLOATS))
    if command in ("bifurcation-1d", "bifurcation-2d-approx", "eig-2d"):
        argv += draw(_option("--samples", SIZES))
    if command == "eig-2d" or command in SOLVES:
        argv += draw(_option("--n", SIZES))
    if command in SOLVES:
        argv.append(f"--lambda={draw(FLOATS)}")
        guess = draw(guesses)
        argv += draw(st.sampled_from([[], [f"--guess={guess}"]]))
        argv += draw(_option("--amplitude", FLOATS))
        term = draw(st.sampled_from([None, "exp", "gelfand", "cosh", "sinh"]))
        argv += [f"--nonlinearity={term}"] if term else []
        argv += draw(_option("--epsilon", FLOATS, often=term == "gelfand"))
        argv += draw(_option("--tol", FLOATS))
        argv += draw(_option("--max-iter", MAX_ITER))
    return argv + draw(_option("--format", st.sampled_from(formats)))


def _write_guess(directory, data: bytes) -> str:
    path = directory / f"{hashlib.sha256(data).hexdigest()[:16]}.txt"
    path.write_bytes(data)
    return f"file:{path}"


def _serve(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


_ARGPARSE_ERROR = re.compile(r"chebratu( \S+)*: error: ")


def _stray_stderr_lines(code, err: str) -> list[str]:
    """The lines of ``err`` that are not the program's own messages."""
    lines = err.splitlines()
    if code == 2 and lines and lines[0].startswith("usage: chebratu"):
        # argparse: the usage block, then one error line
        return [] if _ARGPARSE_ERROR.match(lines[-1]) else lines
    return [line for line in lines if not line.startswith("chebratu: ")]


def _named_guess_json_solve_2d(argv) -> bool:
    options = dict(arg.split("=", 1) for arg in argv if arg.startswith("--"))
    return (argv[0] == "solve-2d" and options.get("--format", "json") == "json"
            and not options.get("--guess", "").startswith("file:"))


def _assert_contract(argv):
    code, out, err, caught = _serve(argv)
    assert code in (0, 2, 3, 4)
    assert caught == []
    assert _stray_stderr_lines(code, err) == []
    assert _serve(argv) == (code, out, err, caught)
    if code == 0 and _named_guess_json_solve_2d(argv):
        u = np.array(json.loads(out)["solution"]["grid_values"])
        assert np.max(np.abs(u - u.T)) <= 1e-13 * max(1.0, np.max(np.abs(u)))


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_every_request_keeps_the_contract(guess_dir, data):
    _assert_contract(data.draw(_argv(_any_guess(guess_dir)), label="argv"))


# few of the requests above are json solve-2d from a named guess, so these
# draw only those, with every other input as wide as above
@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_named_guess_2d_solves_are_transpose_invariant(data):
    guesses = st.sampled_from(["zero", "onepoint", "eigenfunction"])
    _assert_contract(data.draw(_argv(guesses, ["solve-2d"], ["json"]), label="argv"))
