"""Self-test of the benchmark at toy size.

    python3 -m pytest -q perfbench

Runs each workload on a two-round deck cut down to n = 16 and checks that
every metric named in ``BENCHMARK.json`` is reported with its unit, and
that the oracles reject payloads corrupted by as little as 1e-6.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import deck as decks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def program():
    return run.import_program()


def at_n16(requests):
    return [req for req in requests if req.expect.get("n", 16) == 16]


def toy_deck(workload):
    """Two rounds cut down to n = 16, so that a traced run has both kinds of round."""
    return [at_n16(rnd) for rnd in decks.build_deck(workload, 0, rounds=2)]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(decks.WORKLOADS))
def test_every_named_metric_is_reported_with_its_unit(program, workload, trace):
    defects = at_n16(decks.WORKLOADS[workload].defects)
    result = run.measure(workload, 0, 0.0, trace, deck=toy_deck(workload),
                         setup_runs=1, defects=defects)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert not result["wrong_answers"]
    assert result["defects"]["requests"] == len(defects) >= 1
    line = json.loads(run.final_line([result]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(decks.WORKLOADS)
    assert all(w["why"] == decks.WORKLOADS[w["name"]].why for w in SPEC["workloads"])


def test_decks_hold_no_request_of_the_known_defects():
    for workload in decks.WORKLOADS:
        for rnd in decks.build_deck(workload, 3, rounds=4):
            for req in rnd:
                assert req.check != "above-fold"
                assert req.expect.get("guess", "small") == "small"


def test_latency_p50_is_the_mean_of_the_round_medians():
    lat = run.latency_summary([0.001, 0.002, 0.009, 0.010, 0.020, 0.030], ends=[3, 6])
    assert lat["p50_ms"] == pytest.approx(11.0)
    assert lat["median_ms"] == pytest.approx(9.5)


def test_deck_is_a_function_of_the_seed():
    for workload in decks.WORKLOADS:
        a, b, c = (decks.deck_hash(decks.build_deck(workload, seed, rounds=4))
                   for seed in (7, 7, 8))
        assert a == b != c


def test_tracer_refuses_a_cli_without_the_names_it_wraps(program, monkeypatch):
    import chebratu.cli
    import tracer

    monkeypatch.delattr(chebratu.cli, "_render")
    t = tracer.Tracer()
    with pytest.raises(tracer.MissingHook, match="_render"):
        t.install()
    assert not t.spans and not t._undo


def _serve(argv, tmp_path):
    import chebratu.cli

    path = tmp_path / "out"
    code = chebratu.cli.run([*argv, "--output", str(path)])
    return code, path.read_text(encoding="utf-8")


def test_oracle_rejects_a_perturbed_2d_grid_value(program, tmp_path):
    req = decks.Request(("solve-2d", "--lambda", "0.5", "--n", "16", "--guess", "eigenfunction"),
                        "solve-2d", {"lam": 0.5, "n": 16, "nonlinearity": "exp",
                                     "branch": "small"})
    code, text = _serve(req.argv, tmp_path)
    assert oracle.verdict(req, code, text) is None
    doc = json.loads(text)
    doc["solution"]["grid_values"][5][7] += 1e-6
    assert "residual" in oracle.verdict(req, code, json.dumps(doc))


@pytest.mark.parametrize("lam", [1.5e-4, 0.3])
def test_oracle_accepts_1d_solves_stopped_on_the_absolute_residual(program, tmp_path, lam):
    argv = ("solve-1d", "--lambda", repr(lam), "--n", "16")
    code, text = _serve(argv, tmp_path)
    req = decks.Request(argv, "solve-1d", {"lam": lam, "n": 16, "branch": "small"})
    assert oracle.verdict(req, code, text) is None


@pytest.mark.parametrize("lam", [0.0059, 0.3])
def test_oracle_accepts_2d_solves_stopped_on_the_absolute_residual(program, tmp_path, lam):
    argv = ("solve-2d", "--lambda", repr(lam), "--n", "16", "--guess", "onepoint",
            "--amplitude", repr(decks.boyd_amplitude(lam, "small")), "--nonlinearity", "cosh")
    code, text = _serve(argv, tmp_path)
    req = decks.Request(argv, "solve-2d", {"lam": lam, "n": 16, "nonlinearity": "cosh"})
    assert oracle.verdict(req, code, text) is None


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_oracle_rejects_a_perturbed_1d_grid_value(program, tmp_path, fmt):
    argv = ("solve-1d", "--lambda", "0.5", "--n", "32", "--format", fmt)
    req = decks.Request(argv, "solve-1d", {"lam": 0.5, "n": 32, "branch": "small"})
    code, text = _serve(argv, tmp_path)
    assert oracle.verdict(req, code, text) is None
    if fmt == "json":
        doc = json.loads(text)
        doc["solution"]["grid_values"][0][10] += 1e-6
        bad = json.dumps(doc)
    else:
        lines = text.splitlines()
        x, u = lines[11].split(",")
        lines[11] = f"{x},{float(u) + 1e-6!r}"
        bad = "\n".join(lines) + "\n"
    assert "residual" in oracle.verdict(req, code, bad)


def test_oracle_rejects_a_wrong_spectrum_and_a_missing_trace(program, tmp_path):
    req = decks.Request(("eig-2d", "--n", "16", "--samples", "6"), "eig-2d",
                        {"n": 16, "count": 6})
    code, text = _serve(req.argv, tmp_path)
    assert oracle.verdict(req, code, text) is None
    doc = json.loads(text)
    doc["eigenvalues"][3][0] *= 1.0 + 1e-5
    assert oracle.verdict(req, code, json.dumps(doc)) is not None

    req = decks.Request(("solve-1d", "--lambda", "1.2", "--n", "16"), "above-fold",
                        {"lam": 1.2, "n": 16})
    code, text = _serve(req.argv, tmp_path)
    assert code == 3 and oracle.verdict(req, code, text) is None
    doc = json.loads(text)
    doc["newton"] = None
    assert oracle.verdict(req, code, json.dumps(doc)) is not None
