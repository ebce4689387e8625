"""Command-line interface: schemas, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from chebratu import cheb_points, exact_solution
from chebratu.cli import run


def _run_json(argv, tmp_path, name="out.json", expect=0):
    path = tmp_path / name
    code = run(argv + ["--output", str(path)])
    assert code == expect, path.read_text() if path.exists() else "no output"
    return json.loads(path.read_text())


def test_bifurcation_1d_json(tmp_path):
    doc = _run_json(["bifurcation-1d", "--L", "1", "--samples", "400"], tmp_path)
    assert abs(doc["fold"]["lambda"] - 0.87845768) < 1e-7
    assert len(doc["samples"]) == 400
    lams = [v for _, v in doc["samples"]]
    assert max(lams) <= doc["fold"]["lambda"]


def test_bifurcation_1d_dat(tmp_path):
    path = tmp_path / "curve.dat"
    assert run(["bifurcation-1d", "--samples", "50", "--format", "dat",
                "--output", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# fold:")
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == 50
    assert len(data[0].split()) == 2


def test_runs_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run(["solve-2d", "--lambda", "0.5", "--n", "12",
                    "--guess", "eigenfunction", "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_1d_schema_and_branches(tmp_path):
    doc = _run_json(["solve-1d", "--lambda", "0.25", "--n", "32"], tmp_path)
    assert set(doc) == {"params", "solution", "newton", "diagnostics"}
    assert doc["params"]["lambda"] == 0.25
    assert doc["solution"]["branch"] == "small"
    assert len(doc["solution"]["grid_values"][0]) == 33
    assert doc["newton"]["converged"] is True
    assert doc["newton"]["iterations"] == len(doc["newton"]["update_norms"])
    assert doc["diagnostics"]["odd_floor"] <= 1e-12
    assert doc["diagnostics"]["rot90_dev"] is None

    doc = _run_json(["solve-1d", "--lambda", "0.25", "--guess", "onepoint",
                     "--amplitude", "6"], tmp_path, "big.json")
    assert doc["solution"]["branch"] == "big"


def test_solve_1d_dat_columns(tmp_path):
    path = tmp_path / "sol.dat"
    assert run(["solve-1d", "--lambda", "0.25", "--format", "dat",
                "--output", str(path)]) == 0
    rows = [ln.split() for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 33
    x = np.array([float(r[0]) for r in rows])
    assert x[0] == 1.0 and x[-1] == -1.0


def test_solve_2d_small_and_big(tmp_path):
    doc = _run_json(["solve-2d", "--lambda", "0.5", "--n", "16",
                     "--guess", "eigenfunction"], tmp_path)
    assert abs(doc["solution"]["u_max"] - 0.16689576438605538) < 1e-9
    assert doc["newton"]["iterations"] <= 6
    assert doc["diagnostics"]["rot90_dev"] <= 1e-9
    assert len(doc["solution"]["grid_values"]) == 17

    doc = _run_json(["solve-2d", "--lambda", "0.5", "--n", "16", "--guess", "onepoint",
                     "--amplitude", "6", "--nonlinearity", "exp"], tmp_path, "big.json")
    assert abs(doc["solution"]["u_max"] - 5.084415865283538) < 1e-9
    assert doc["newton"]["iterations"] <= 10


def test_solve_2d_above_fold_exits_3_with_trace(tmp_path):
    path = tmp_path / "fail.json"
    code = run(["solve-2d", "--lambda", "5.0", "--n", "16",
                "--guess", "eigenfunction", "--output", str(path)])
    assert code == 3
    doc = json.loads(path.read_text())
    assert doc["solution"] is None
    assert doc["newton"]["converged"] is False
    assert len(doc["newton"]["update_norms"]) >= 1
    assert "error" in doc


def test_solve_1d_above_fold_exits_3(tmp_path, capsys):
    path = tmp_path / "fail.json"
    assert run(["solve-1d", "--lambda", "1.0", "--output", str(path)]) == 3
    doc = json.loads(path.read_text())
    assert doc["newton"]["converged"] is False


def test_singular_jacobian_exits_3_with_trace(tmp_path, capsys):
    # above the fold these Newton runs meet a singular Jacobian; that is a
    # solver failure like any other and is reported with its trace.  The 2D
    # requests are the above-fold probes of perfbench/deck.py, whose check
    # wants at least one Newton step: a GMRES solve that fails must never end
    # such a run before its first step
    argvs = [["solve-1d", "--lambda", "1.75", "--n", "32"]]
    for lam in ("2.0", "2.5"):
        for n in ("16", "24"):
            argvs += [["solve-2d", "--lambda", lam, "--n", n, "--guess", "eigenfunction"],
                      ["solve-2d", "--lambda", lam, "--n", n, "--guess", "onepoint",
                       "--amplitude", "1.5625", "--nonlinearity", "exp"]]
    for argv in argvs:
        doc = _run_json(argv, tmp_path, expect=3)
        assert doc["solution"] is None
        assert "singular" in doc["error"]
        assert doc["newton"]["converged"] is False
        assert doc["newton"]["iterations"] >= 1
        assert len(doc["newton"]["update_norms"]) == doc["newton"]["iterations"]
    capsys.readouterr()


def test_invalid_arguments_exit_2(tmp_path, capsys):
    assert run(["solve-1d", "--lambda", "0.25", "--n", "2"]) == 2
    assert run(["solve-2d", "--lambda", "0.5", "--nonlinearity", "gelfand"]) == 2
    assert run(["solve-2d", "--lambda", "-1.0"]) == 2
    assert run(["bifurcation-1d", "--samples", "1"]) == 2
    assert run(["solve-1d", "--lambda", "0.25",
                "--output", str(tmp_path / "no" / "dir.json")]) == 2
    # a Newton tolerance must be finite and positive: --tol inf would accept
    # the first update as a solution
    for tol in ("0", "-1e-12", "inf", "nan"):
        assert run(["solve-1d", "--lambda", "0.5", "--tol", tol]) == 2, tol
        assert run(["solve-2d", "--lambda", "0.5", "--tol", tol]) == 2, tol
    # guesses: names are checked, an amplitude must be finite whatever the
    # guess (the eigenfunction's also positive, in either dimension) and a
    # file must match the grid
    bad_1d = tmp_path / "bad1.txt"
    np.savetxt(bad_1d, np.zeros(10))
    bad_2d = tmp_path / "bad2.txt"
    np.savetxt(bad_2d, np.zeros((16, 16)))
    good_1d = tmp_path / "good1.txt"
    np.savetxt(good_1d, np.zeros(33))
    good_2d = tmp_path / "good2.txt"
    np.savetxt(good_2d, np.zeros((17, 17)))
    for argv in (["solve-1d", "--guess", "eigenfunction", "--amplitude", "0"],
                 ["solve-1d", "--guess", f"file:{bad_1d}"],
                 ["solve-2d", "--guess", "mystery"],
                 ["solve-2d", "--guess", "eigenfunction", "--amplitude", "0"],
                 ["symmetry", "--guess", "eigenfunction", "--amplitude", "-1"],
                 ["solve-2d", "--guess", f"file:{bad_2d}"],
                 ["solve-1d", "--guess", "onepoint", "--amplitude", "nan"],
                 ["solve-1d", "--guess", "onepoint", "--amplitude", "inf"],
                 ["solve-2d", "--guess", "onepoint", "--amplitude", "nan"],
                 ["solve-2d", "--guess", "onepoint", "--amplitude", "inf"],
                 ["solve-1d", "--guess", "zero", "--amplitude", "nan"],
                 ["solve-2d", "--guess", "zero", "--amplitude", "inf"],
                 ["solve-1d", "--guess", f"file:{good_1d}", "--amplitude", "nan"],
                 ["solve-2d", "--guess", f"file:{good_2d}", "--amplitude", "inf"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv[:1] + ["--lambda", "0.25"] + argv[1:]) == 2, argv
    capsys.readouterr()


def test_lambda_and_grid_order_are_checked_alike_in_both_dimensions(tmp_path, capsys):
    # one check in the shared solve: lam finite and nonnegative, grid order >= 3
    for argv in (["solve-1d"], ["stability-1d"], ["coeffs", "1d"], ["solve-2d"],
                 ["coeffs", "2d"]):
        for lam in ("-1", "nan", "inf"):
            assert run([*argv, "--lambda", lam]) == 2, (argv, lam)
    for command in ("solve-1d", "solve-2d"):
        assert run([command, "--lambda", "0.5", "--n", "2"]) == 2
        doc = _run_json([command, "--lambda", "0.5", "--n", "3"], tmp_path)
        assert doc["newton"]["converged"] is True
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["solve-1d", "--lambda", "0.25"],
                                  ["solve-2d", "--lambda", "0.5"],
                                  ["coeffs", "1d", "--lambda", "0.25"],
                                  ["eig-2d"],
                                  ["bifurcation-1d"]],
                         ids=["solve-1d", "solve-2d", "coeffs-1d", "eig-2d", "bifurcation-1d"])
@pytest.mark.parametrize("half_width", ["1e200", "1e-200", "1e-160"])
def test_half_width_whose_square_is_not_a_float_exits_2(argv, half_width, capsys):
    # L**2 overflows, underflows to 0 or is subnormal, so that 1 / L**2 and
    # D2 overflow: an invalid argument, not a crash and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--L", half_width]) == 2
    assert "half-width" in capsys.readouterr().err


def test_coeffs_1d_solves_the_requested_nonlinearity(tmp_path, capsys):
    # the 1D solve takes every reaction term, as the 2D one does; --epsilon
    # is rejected with every term but gelfand, the one that uses it
    exp = _run_json(["coeffs", "1d", "--lambda", "0.25"], tmp_path)
    doc = _run_json(["coeffs", "1d", "--lambda", "0.25", "--nonlinearity", "cosh"],
                    tmp_path, "cosh.json")
    for command in (["coeffs", "1d"], ["solve-1d"], ["solve-2d"]):
        for nl in ("exp", "cosh", "sinh"):
            assert run([*command, "--lambda", "0.25", "--nonlinearity", nl,
                        "--epsilon", "0.3"]) == 2
            assert "epsilon" in capsys.readouterr().err
    assert doc["params"]["nonlinearity"] == "cosh"
    assert doc["params"]["epsilon"] is None
    assert doc["newton"]["converged"] is True
    assert doc["decay"]["odd_floor"] <= 1e-12
    assert len(doc["coefficients"]) == 33
    assert doc["coefficients"] != exp["coefficients"]


def test_onepoint_guess_takes_zero_and_negative_amplitudes(tmp_path):
    for command in ("solve-1d", "solve-2d"):
        for amplitude in ("0", "-1"):
            doc = _run_json([command, "--lambda", "0.25", "--guess", "onepoint",
                             "--amplitude", amplitude], tmp_path)
            assert doc["newton"]["converged"] is True


def test_argparse_failures_exit_2(capsys):
    assert run(["solve-1d"]) == 2                      # missing --lambda
    assert run(["solve-2d", "--lambda", "0.5", "--nonlinearity", "tanh"]) == 2
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["-1e2", "-1E-3", "-.5e1", "-inf"])
@pytest.mark.parametrize("base, option", [
    (["solve-1d", "--lambda", "0.5", "--guess", "onepoint"], "--amplitude"),
    (["solve-2d", "--n", "8", "--guess", "onepoint"], "--amplitude"),
    (["solve-1d"], "--lambda"),
    (["solve-1d", "--lambda", "0.5"], "--L"),
    (["bifurcation-1d", "--samples", "4"], "--L"),
])
def test_negative_number_as_its_own_argv_entry(base, option, value, capsys):
    """A negative value in exponent notation, or -inf, after its option as
    a separate argv entry is read as that option's value, as in the
    ``--option=value`` form, not as an unknown option."""
    outcomes = []
    for argv in ([*base, option, value], [*base, f"{option}={value}"]):
        outcomes.append((run(argv), *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert "expected one argument" not in outcomes[0][2]


def test_stability_1d(tmp_path):
    doc = _run_json(["stability-1d", "--lambda", "0.25", "--n", "32"], tmp_path)
    assert doc["stability"]["stable"] is True
    assert doc["stability"]["mu_min"] > 0.0
    assert len(doc["stability"]["eigenvalues"]) == 31

    doc = _run_json(["stability-1d", "--lambda", "0.25", "--guess", "onepoint"],
                    tmp_path, "big.json")
    assert doc["stability"]["stable"] is False
    assert doc["stability"]["mu_min"] < 0.0


def test_eig_2d(tmp_path):
    doc = _run_json(["eig-2d", "--n", "16", "--samples", "4"], tmp_path)
    expect = np.pi**2 / 4.0 * np.array([2.0, 5.0, 5.0, 8.0])
    got = np.array([re for re, _ in doc["eigenvalues"]])
    assert np.max(np.abs(got - expect)) < 1e-8

    path = tmp_path / "eigs.csv"
    assert run(["eig-2d", "--n", "12", "--samples", "3", "--format", "csv",
                "--output", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "k,eig_real,eig_imag"
    assert len(lines) == 4


def test_coeffs_1d_and_2d(tmp_path):
    doc = _run_json(["coeffs", "1d", "--lambda", "0.25", "--n", "32"], tmp_path)
    assert doc["newton"]["converged"] is True
    assert doc["decay"]["odd_floor"] <= 1e-12
    assert doc["decay"]["fit_rate"] < 0.0
    assert len(doc["coefficients"]) == 33

    path = tmp_path / "c.dat"
    assert run(["coeffs", "1d", "--lambda", "0.25", "--format", "dat",
                "--output", str(path)]) == 0
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 33

    doc = _run_json(["coeffs", "2d", "--lambda", "0.5", "--n", "12",
                     "--guess", "eigenfunction"], tmp_path, "c2.json")
    assert doc["decay"]["odd_floor"] <= 1e-12
    assert len(doc["coefficients"]) == 13

    # the 2D table holds one (k, l, |a_kl|) row per coefficient
    for fmt in ("csv", "dat"):
        path = tmp_path / f"c2.{fmt}"
        assert run(["coeffs", "2d", "--lambda", "0.5", "--n", "12", "--guess", "eigenfunction",
                    "--format", fmt, "--output", str(path)]) == 0
        lines = path.read_text().splitlines()
        if fmt == "csv":
            assert lines[0] == "k,l,abs_coeff"
            rows = [ln.split(",") for ln in lines[1:]]
        else:
            assert lines[0] == "# k  l  abs_coeff"
            rows = [ln.split() for ln in lines[1:]]
        assert len(rows) == 13 * 13
        assert {len(r) for r in rows} == {3}
        assert [r[:2] for r in rows[:2]] == [["0", "0"], ["0", "1"]]


def test_symmetry_command(tmp_path):
    doc = _run_json(["symmetry", "--lambda", "0.5", "--n", "16",
                     "--guess", "onepoint", "--amplitude", "6"], tmp_path)
    assert doc["newton"]["converged"] is True
    for key in ("rot90_dev", "transpose_dev", "reflect_x_dev", "reflect_y_dev"):
        assert doc["symmetry"][key] <= 1e-9


def test_bifurcation_2d_approx(tmp_path):
    doc = _run_json(["bifurcation-2d-approx", "--samples", "100"], tmp_path)
    assert abs(doc["peak"]["lambda"] - 5.0 / np.e) < 1e-12
    assert len(doc["samples"]) == 101


def test_file_guess_round_trip(tmp_path):
    # seed a 1D solve with the closed-form big solution from disk
    grid = cheb_points(32, 1.0)
    guess_path = tmp_path / "guess.txt"
    np.savetxt(guess_path, exact_solution(4.0914672461892596, 1.0, grid.points))
    doc = _run_json(["solve-1d", "--lambda", "0.25", "--n", "32",
                     "--guess", f"file:{guess_path}"], tmp_path)
    assert doc["solution"]["branch"] == "big"
    assert doc["newton"]["iterations"] <= 3

    # a 2D guess file of interior or full-grid shape starts the same solve
    ref = _run_json(["solve-2d", "--lambda", "0.5", "--n", "12"], tmp_path, "ref.json")
    full = np.array(ref["solution"]["grid_values"])
    for name, data in (("full.txt", full), ("interior.txt", full[1:-1, 1:-1])):
        np.savetxt(tmp_path / name, data)
        doc = _run_json(["solve-2d", "--lambda", "0.5", "--n", "12",
                         "--guess", f"file:{tmp_path / name}"], tmp_path)
        assert doc["newton"]["iterations"] <= 2
        assert np.max(np.abs(np.array(doc["solution"]["grid_values"]) - full)) < 1e-12


def test_custom_tolerances(tmp_path):
    doc = _run_json(["solve-1d", "--lambda", "0.25", "--tol", "1e-4",
                     "--max-iter", "12"], tmp_path)
    assert doc["newton"]["iterations"] <= 3


def test_cli_import_loads_no_sparse_or_optimize_scipy(tmp_path):
    # SciPy would cost most of a request's start-up time and memory, and
    # every CLI request pays for its imports: with every scipy import made
    # to fail, the CLI serves all eight subcommands and attempts none
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = str(tmp_path / "out")
    code = f"""
import sys

blocked = []


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            blocked.append(name)
            raise ImportError("scipy is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from chebratu.cli import run
for argv in (["bifurcation-1d", "--samples", "20"],
             ["solve-1d", "--lambda", "0.5"],
             ["stability-1d", "--lambda", "0.5"],
             ["coeffs", "1d", "--lambda", "0.5"],
             ["eig-2d", "--n", "8"],
             ["solve-2d", "--lambda", "0.5", "--n", "8", "--guess", "eigenfunction"],
             ["coeffs", "2d", "--lambda", "0.5", "--n", "8"],
             ["symmetry", "--lambda", "0.5", "--n", "8"],
             ["bifurcation-2d-approx", "--samples", "20"]):
    assert run(argv + ["--output", {out!r}]) == 0, argv
print(blocked, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout.splitlines() == ["[] []"]


_TERMS = {"gelfand": ["--nonlinearity", "gelfand", "--epsilon", "0.1"],
          "cosh": ["--nonlinearity", "cosh"], "sinh": ["--nonlinearity", "sinh"]}


@pytest.mark.parametrize("argv", [
    ["solve-1d", "--guess", "onepoint"],
    ["solve-2d", "--guess", "onepoint"],
    ["solve-1d", "--guess", "eigenfunction"],
    ["solve-2d", "--guess", "eigenfunction"],
    *[[command, "--guess", "onepoint", *term] for command in ("solve-1d", "solve-2d")
      for term in _TERMS.values()],
], ids=["solve-1d-onepoint", "solve-2d-onepoint", "solve-1d-eigenfunction",
        "solve-2d-eigenfunction",
        *[f"{command}-onepoint-{name}" for command in ("solve-1d", "solve-2d")
          for name in _TERMS]])
def test_huge_guess_amplitude_exits_3_without_warnings(argv, tmp_path, capsys):
    # Lap u and the reaction term overflow at the guess; the Newton driver
    # evaluates them with overflow silent and its finiteness checks report it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--lambda", "0.5", "--amplitude", "1e308",
                    "--output", str(tmp_path / "out.json")])
    assert code == 3
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["solve-2d", "--lambda", "1e160"],
    ["solve-2d", "--lambda", "1e308"],
    ["solve-2d", "--lambda", "0.5", "--n", "16", "--guess", "onepoint", "--amplitude", "400"],
    ["solve-2d", "--lambda", "0.5", "--n", "16", "--guess", "onepoint", "--amplitude", "700"],
    ["solve-1d", "--lambda", "1e308"],
    ["solve-1d", "--lambda", "0.5", "--n", "16", "--guess", "onepoint", "--amplitude", "700"],
], ids=["2d-lambda-1e160", "2d-lambda-1e308", "2d-amplitude-400", "2d-amplitude-700",
        "1d-lambda-1e308", "1d-amplitude-700"])
def test_newton_step_with_overflowing_residual_norm_exits_3(argv, tmp_path, capsys):
    # every residual entry is finite but its 2-norm overflows: in 2D a failed
    # GMRES solve (and mean(lam f'(u)) of the preconditioner overflows without a
    # warning), reported like the 1D failure, with the trace
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        doc = _run_json(argv, tmp_path, expect=3)
    assert doc["solution"] is None
    assert doc["newton"]["converged"] is False
    assert len(doc["newton"]["update_norms"]) == doc["newton"]["iterations"]
    assert doc["error"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["solve-1d", "solve-2d"])
def test_jacobian_that_overflows_exits_3(command, tmp_path, capsys):
    # lam exp(u / d) is finite at the negative guess, but its derivative, that
    # divided by d**2 < 1, overflows: a Newton failure in both dimensions,
    # not a matrix the 1D QR step rejects as an invalid request
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        doc = _run_json([command, "--lambda", "1.7e308", "--nonlinearity", "gelfand",
                         "--epsilon", "0.9", "--guess", "onepoint", "--amplitude", "-0.5"],
                        tmp_path, expect=3)
    assert doc["error"] == "jacobian is not finite"
    assert doc["newton"]["iterations"] == 0
    assert capsys.readouterr().err == ""


def _table(value: str, shape) -> bytes:
    return b"".join((" ".join([value] * shape[-1]) + "\n").encode() for _ in range(shape[0]))


@pytest.mark.parametrize("content", [b"abc\n", b"1 2\n3\n", b"\xff\xfe 1\n", b"", "nan", "inf"],
                         ids=["text", "ragged", "not-utf8", "empty", "nan", "inf"])
@pytest.mark.parametrize("command, shape", [("solve-1d", (33,)), ("solve-2d", (17, 17))],
                         ids=["solve-1d", "solve-2d"])
def test_unreadable_guess_file_is_an_invalid_request(command, shape, content, tmp_path, capsys):
    # a file that is not a table of finite numbers (here a non-finite one of
    # the grid's shape) exits 2 with one line naming it, and numpy's own
    # messages, such as its warning on an empty file, do not reach stderr
    path = tmp_path / "guess.txt"
    path.write_bytes(_table(content, shape) if isinstance(content, str) else content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--lambda", "0.5", "--guess", f"file:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("chebratu: invalid request: guess file ")
    assert str(path) in captured.err
    assert captured.err.count("\n") == 1


def test_bifurcation_1d_lambda_underflows_without_warning(tmp_path):
    # L**2 exp(A) overflows at L = 1e154 for all but the smallest amplitudes,
    # so lam(A) = 2 b**2 / (L**2 exp(A)) is 0 there, and subnormal below
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        doc = _run_json(["bifurcation-1d", "--L", "1e154", "--samples", "20"], tmp_path)
    lams = [lam for _, lam in doc["samples"]]
    assert doc["fold"]["lambda"] == 0.0
    assert lams[-1] == 0.0
    assert all(0.0 <= lam < 1e-300 for lam in lams)


# one request per kind of size flag: a solve's grid order, eig-2d's and the curves' counts
_SIZE_REQUESTS = pytest.mark.parametrize("argv", [
    ["solve-1d", "--lambda", "0.5", "--n"],
    ["solve-2d", "--lambda", "0.5", "--n"],
    ["coeffs", "1d", "--lambda", "0.5", "--n"],
    ["eig-2d", "--n"],
    ["bifurcation-1d", "--samples"],
    ["bifurcation-2d-approx", "--samples"],
], ids=["solve-1d", "solve-2d", "coeffs", "eig-2d", "bifurcation-1d", "bifurcation-2d-approx"])


@_SIZE_REQUESTS
def test_size_too_large_to_index_exits_2(argv, capsys):
    # 10**20 is past numpy's index range, so it fails before any allocation
    assert run([*argv, str(10**20)]) == 2
    assert f"argument {argv[-1]}: {10**20} is too large" in capsys.readouterr().err


@_SIZE_REQUESTS
def test_size_too_large_to_allocate_exits_2(argv, capsys):
    # numpy can index 10**18 entries but cannot allocate them (8 EB): one
    # line on stderr, no traceback
    assert run([*argv, str(10**18)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("chebratu: invalid request: Unable to allocate")
    assert err.count("\n") == 1
