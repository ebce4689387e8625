#!/usr/bin/env python3
"""Closed-loop benchmark of the chebratu command line.

    python3 perfbench/run.py --workload {sweep-1d,ground-2d,newton-2d,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One client sends the requests of a seeded deck (see
``deck.py``) one after another, each a call of ``chebratu.cli.run(argv)``
in this process with ``--output`` into a scratch directory, until
``--seconds`` have passed and the current round is complete.  Every
output is checked by ``oracle.py`` as it arrives; the checking time is
not counted.

Before the loop, the workload's fixed known-defect probe is sent once,
untimed; its outcomes are reported apart and are not counted in
``attempted`` or ``failed``.
``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median
over fresh processes of importing chebratu and serving the workload's
first request.  ``--trace 1`` alternates untraced rounds of the deck
with rounds traced by ``tracer.py``, and prints the per-layer metrics,
the tracing overhead and each layer's self time.
``--workload all`` runs each workload in a fresh process.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a full record goes to
``perfbench/out/``.
"""

import os

# BLAS threads are pinned before numpy can load: with the default
# threading, latencies of one request varied by more than 2x.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# Nothing that loads numpy is imported at module level: the set-up probe
# times the import of chebratu, numpy included.
import deck as decks  # noqa: E402
import tracer as tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 5
TAIL_BEYOND = 10


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def import_program():
    """Import chebratu from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "chebratu" / "__init__.py").is_file():
        raise SetupError(f"no chebratu sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chebratu
    import chebratu.cli
    if Path(chebratu.__file__).resolve().parent != (SRC / "chebratu").resolve():
        raise SetupError(f"chebratu was imported from {chebratu.__file__}, not {SRC}")
    return chebratu


def call(cli, argv, path):
    """One request.

    Returns the exit code (or the text of an exception), the wall-clock
    latency in seconds, the CPU seconds of this process over the request
    (all threads) and the output (or ``None``).
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    with contextlib.redirect_stderr(io.StringIO()):
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            code = cli.run([*argv, "--output", path])
        except Exception as exc:  # a crash is a failed request, not a harness error
            code = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        cpu = time.process_time() - cpu
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        text = None
    return code, latency, cpu, text


@dataclass
class Loop:
    """Outcome of the rounds of one kind (untraced or traced), per request in
    the order sent.

    ``latencies`` are wall-clock seconds and ``cpu`` the process's CPU
    seconds of each request.  ``verdicts`` holds ``None`` for a correct
    request, else the reason it failed; ``ends`` the index after the last
    request of each round; ``wall`` is the time of these rounds without
    the time spent checking.
    """

    requests: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    wall: float = 0.0


def closed_loop(cli, deck, seconds, scratch, tracer=None):
    """Send whole rounds of the deck until ``seconds`` of serving have passed.

    Each output is checked as soon as it arrives, so that no outputs pile
    up in memory, and the checking time is taken out of the wall time.
    Without a tracer, returns one ``Loop``.  With one, rounds alternate
    untraced and traced, so that both kinds see the same phases of the
    machine, and the result is the pair ``(untraced, traced)``; installing
    and removing the tracer between rounds is not timed.
    """
    import oracle

    path = os.path.join(scratch, "out")
    loops = (Loop(), Loop())
    rounds = 0
    while rounds < (1 if tracer is None else 2) or loops[0].wall + loops[1].wall < seconds:
        traced = tracer is not None and rounds % 2 == 1
        loop = loops[traced]
        if traced:
            tracer.install()
        try:
            checking = 0.0
            start = time.perf_counter()
            for req in deck[rounds % len(deck)]:
                if traced:
                    tracer.request = len(loop.latencies)
                code, latency, cpu, text = call(cli, req.argv, path)
                t = time.perf_counter()
                loop.verdicts.append(f"exception {code}" if isinstance(code, str)
                                     else oracle.verdict(req, code, text))
                checking += time.perf_counter() - t
                loop.requests.append(req)
                loop.latencies.append(latency)
                loop.cpu.append(cpu)
            loop.wall += time.perf_counter() - start - checking
            loop.ends.append(len(loop.latencies))
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
    return loops[0] if tracer is None else loops


def defect_probe(cli, requests, path):
    """Send the fixed known-defect requests once, untimed, and check each."""
    import oracle

    loop = Loop()
    for req in requests:
        code, _, _, text = call(cli, req.argv, path)
        loop.requests.append(req)
        loop.verdicts.append(f"exception {code}" if isinstance(code, str)
                             else oracle.verdict(req, code, text))
    ok, failures, wrong = judge(loop)
    return {"requests": len(requests), "failed": len(requests) - ok,
            "failures": dict(failures), "wrong_answers": dict(wrong)}


def probe(workload):
    """Fresh-process set-up: import chebratu and serve the first request."""
    start = time.perf_counter()
    import_program()
    import chebratu.cli as cli
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        code, _, _, _ = call(cli, decks.WORKLOADS[workload].probe, os.path.join(scratch, "out"))
    print(json.dumps({"setup_s": time.perf_counter() - start, "exit": code}))
    return 0 if code == 0 else 1


def setup_seconds(workload, runs):
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe", workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip() or proc.stdout.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times), times


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine_facts():
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(BLAS_THREADS),
                 "threads_pinned_by": "OPENBLAS/OMP/MKL/BLIS_NUM_THREADS before numpy loads"},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
    }


def latency_summary(latencies, ends):
    """Round-averaged median and the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    ``ends`` are the indices where the rounds end.  The median is taken
    per round and averaged over the rounds.  A shared 2-vCPU VM ran
    faster and slower in phases of 10-30 s: the median of a whole run
    takes its value from the phase that held most of the run's middle
    requests, while the mean of per-round medians weighs each phase by
    its share of the run, as ``requests_per_s`` does.
    """
    starts = [0, *ends[:-1]]
    lat = sorted(latencies)
    n = len(lat)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "p50_ms": 1e3 * statistics.fmean(statistics.median(latencies[a:b])
                                         for a, b in zip(starts, ends)),
        "median_ms": 1e3 * statistics.median(lat),
        "tail_ms": 1e3 * lat[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "samples": n,
    }


def judge(loop):
    """Counts over a loop: (correct requests, failures by reason, wrong answers)."""
    ok, failures, wrong = 0, Counter(), Counter()
    for req, reason in zip(loop.requests, loop.verdicts):
        if reason is None:
            ok += 1
        elif reason.startswith(("exit", "exception")):
            failures[f"{reason.split(',')[0]}: {req.label}"] += 1
        else:
            failures[f"{req.label}: {reason}"] += 1
            wrong[f"{req.label}: {reason}"] += 1
    return ok, failures, wrong


def measure(workload, seed, seconds, trace, deck=None, setup_runs=SETUP_RUNS, defects=None):
    """Run one workload in this process; returns the full result record."""
    import_program()
    import chebratu.cli as cli

    facts = machine_facts()
    if deck is None:
        deck = decks.build_deck(workload, seed)
    if defects is None:
        defects = decks.WORKLOADS[workload].defects
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "why": decks.WORKLOADS[workload].why,
        "deck": {"sha256": decks.deck_hash(deck), "rounds": len(deck),
                 "requests_per_round": len(deck[0])},
        "machine": facts,
        "client": "closed loop, 1 client, sequential in-process cli.run calls",
    }
    if not trace:
        setup, setup_all = setup_seconds(workload, setup_runs)
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT)
    try:
        # warm-up: the first round's requests on the smallest grid, untimed
        n_min = min(req.expect["n"] for req in deck[0] if "n" in req.expect)
        for req in deck[0]:
            if req.expect.get("n", n_min) == n_min:
                call(cli, req.argv, os.path.join(scratch, "out"))
        result["defects"] = defect_probe(cli, defects, os.path.join(scratch, "out"))
        # The deck and the imported modules are long-lived: freeze them so
        # that full collections during the loop do not scan them.
        gc.collect()
        gc.freeze()
        if not trace:
            loop = closed_loop(cli, deck, seconds, scratch)
        else:
            tracer = tracing.Tracer()
            plain, loop = closed_loop(cli, deck, seconds, scratch, tracer)
    finally:
        gc.unfreeze()
        shutil.rmtree(scratch, ignore_errors=True)

    ok, failures, wrong = judge(loop)
    attempted = len(loop.verdicts)
    result.update(attempted=attempted, correct_requests=ok, failed=attempted - ok,
                  wall_s=loop.wall, failures=dict(failures), wrong_answers=dict(wrong))
    if not trace:
        lat, cpu = (latency_summary(x, loop.ends) for x in (loop.latencies, loop.cpu))
        result["latency"] = {"wall": lat, "cpu": cpu, "rounds": len(loop.ends)}
        result["setup_runs_s"] = setup_all
        metrics = {
            "setup_s": (setup, "s"),
            "requests_per_s": (ok / loop.wall, "1/s"),
            "latency_p50_ms": (lat["p50_ms"], "ms"),
            "latency_tail_ms": (cpu["tail_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        result["fail_ratio"] = (attempted - ok) / attempted
    else:
        plain_ok, _, _ = judge(plain)
        metrics = tracing.layer_metrics(tracer.spans, loop.latencies)
        untraced_rps, traced_rps = plain_ok / plain.wall, ok / loop.wall
        metrics["trace.overhead_rps"] = (traced_rps - untraced_rps, "1/s")
        result["untraced_requests_per_s"] = untraced_rps
        result["traced_requests_per_s"] = traced_rps
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def report(result):
    """Human-readable lines for one workload result."""
    lines = [f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
             f"deck sha256 {result['deck']['sha256']}"]
    lines.append(f"   why: {result['why']}")
    lines.append("   machine: " + json.dumps(result["machine"], sort_keys=True))
    n, ok = result["attempted"], result["correct_requests"]
    lines.append(f"   {result['client']}: {n} requests in {result['wall_s']:.2f} s, {ok} correct")
    for name, m in result["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            lat = result["latency"]["cpu"]
            note = (f"CPU time, p{lat['tail_percentile']:.2f}, {lat['tail_beyond']} samples "
                    f"beyond, n={lat['samples']}; wall-clock "
                    f"{result['latency']['wall']['tail_ms']:.4g} ms")
        elif name == "latency_p50_ms":
            note = (f"mean of {result['latency']['rounds']} round medians, n={n}; "
                    f"median of the run {result['latency']['wall']['median_ms']:.4g} ms")
        elif name == "requests_per_s":
            note = f"n={n}"
        elif name == "setup_s":
            note = "median of " + ", ".join(f"{t:.3f}" for t in result["setup_runs_s"])
        lines.append(f"   {name:26s} {m['value']:14.6g} {m['unit']:9s} {note}")
    if "fail_ratio" in result:
        lines.append(f"   {'fail_ratio':26s} {result['fail_ratio']:14.6g} {'ratio':9s} "
                     f"{n - ok} of {n}")
    for kind, count in sorted(result["failures"].items(), key=lambda kv: -kv[1]):
        lines.append(f"   failed {count:5d}  {kind}")
    for kind, count in sorted(result["wrong_answers"].items()):
        lines.append(f"   WRONG  {count:5d}  {kind}")
    probe = result["defects"]
    lines.append(f"   known-defect probe (fixed, untimed, not in attempted/failed): "
                 f"{probe['failed']} of {probe['requests']} failed")
    for kind, count in sorted(probe["failures"].items(), key=lambda kv: -kv[1]):
        lines.append(f"   defect {count:5d}  {kind}")
    for kind, count in sorted(probe["wrong_answers"].items()):
        lines.append(f"   WRONG  {count:5d}  {kind} (probe)")
    return "\n".join(lines)


def final_line(results):
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        metrics.update({prefix + k: v for k, v in res["metrics"].items()})
    return json.dumps({
        "correct": all(not res["wrong_answers"] and not res["defects"]["wrong_answers"]
                       for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*decks.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=list(decks.WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--json-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe:
            return probe(args.probe)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            results = []
            for name in decks.WORKLOADS:
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--json-only"],
                    cwd=ROOT, capture_output=True, text=True, timeout=900)
                if proc.returncode != 0:
                    raise SetupError(f"{name} failed: {proc.stderr.strip()}")
                results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        else:
            results = [measure(args.workload, args.seed, args.seconds, args.trace)]
    except (SetupError, tracing.MissingHook) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.json_only:
        print(json.dumps(results[0]))
        return 0
    for res in results:
        print(report(res))
        path = OUT / f"result-{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
        path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    print(final_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
