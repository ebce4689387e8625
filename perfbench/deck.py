"""Seeded request decks for the three benchmark workloads.

A deck is a list of rounds.  Each round holds one request per cell
(subcommand, grid order, nonlinearity, branch), with every grid order
of the workload's set weighted alike; the occasional bifurcation curve
of sweep-1d comes every other round.  So runs of the same length get
the same mix of request costs whatever the seed.  The seed sets the
order of the requests inside each round and the offset of a golden-ratio
(Weyl) sequence that places lambda inside each cell's range.  Every
prefix of such a sequence covers the range evenly.

The decks hold only requests that the program can serve: lambda below
the fold, on the small branch or, in 1D, on the big branch from its
closed-form amplitude.  Requests that hit the program's known defects
(above the fold, where some exit 4 instead of 3, and 2D big-branch
guesses) make up a fixed defect probe per workload instead, the same for
every seed, so that the number of failures does not depend on how many
requests a run gets through.

The program sees only the generated argv; ``Request.check`` and
``Request.expect`` are for the oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

FORMATS = ("json", "csv", "dat")
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

LAMBDA_MAX_1D = 0.87        # below the 1D fold lambda* = 0.8785 on [-1, 1]
# Below lambda ~ 3e-4 the big-branch spike is not resolved at n <= 48 and
# the solve exits 4; that case is in the defect probe instead.
LAMBDA_MIN_1D = 1e-3
TINY_LAMBDA_1D = 1e-4
ABOVE_FOLD_1D = (0.9, 1.2, 1.5, 1.75)  # up to about twice lambda*
LAMBDA_MAX_2D = 1.6         # below the 2D fold, which lies in (1.7, 1.8)
ABOVE_FOLD_2D = (2.0, 2.5)
GELFAND_EPSILON = 0.1
REFERENCE_LAMBDA_2D = 0.5   # exp small branch with a published u_max
GRIDS_GROUND = (16, 24, 32)
GRIDS_NEWTON = (16, 24, 32, 40)
BIFURCATION_SAMPLES = 400   # the CLI's default for bifurcation-1d
EIG_SAMPLES = 10            # the CLI's default for eig-2d
BOYD_PEAK = 1.0 / 0.64      # amplitude at the peak 5/e of 3.2 A exp(-0.64 A)
# B tanh B = 1 gives the 1D fold on [-1, 1]: lambda* = 2 (B^2 - 1)
FOLD_B = 1.1996786402577338

WHY = {
    "sweep-1d": "1D solves are tiny (at most 47x47), so time goes to branch "
                "labelling and CLI overhead; the 2D code is never touched",
    "ground-2d": "small-branch 2D solves and eig-2d, where the dense "
                 "nonsymmetric eig of the (n-1)^2 Laplacian takes most of the time",
    "newton-2d": "onepoint-guess 2D solves with no eig call, where the "
                 "per-iteration dense LU and Jacobian assembly set the time",
}


@dataclass(frozen=True)
class Request:
    """One CLI invocation (without ``--output``) and what the oracle expects."""

    argv: tuple
    check: str
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Request kind for failure reports, e.g. ``solve-2d exp big-guess n=24``."""
        e = self.expect
        guess = f"{e['guess']}-guess" if "guess" in e else e.get("branch")
        parts = (self.check, e.get("nonlinearity"), guess, f"n={e['n']}" if "n" in e else None)
        return " ".join(p for p in parts if p)

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1] if "--format" in self.argv else "json"


class _Draws:
    """Seeded randomness shared by one deck: Weyl offsets and shuffles."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")
        self.offsets: dict = {}

    def lam(self, key, index: int, lo: float, hi: float) -> float:
        """The ``index``-th point of cell ``key``'s sequence, in ``(lo, hi]``."""
        if key not in self.offsets:
            self.offsets[key] = self.rng.random()
        u = (self.offsets[key] + index * INV_PHI) % 1.0
        return hi - (hi - lo) * u


def _num(x: float) -> str:
    return repr(float(x))


def _bisect(g, lo: float, hi: float, rising: bool) -> float:
    """Root of ``g`` in ``[lo, hi]``, where ``g`` rises (or falls) through 0."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (g(mid) < 0.0) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def branch_amplitude(lam: float, branch: str) -> float:
    """Closed-form ``u(0)`` of the 1D problem on [-1, 1] for ``0 < lam < lambda*``.

    With ``B = sqrt(lam exp(A) / 2)`` the boundary condition reads
    ``lam = 2 B^2 / cosh(B)^2``, which rises on ``(0, FOLD_B)`` and falls
    beyond; bisection on the requested side gives ``B``, then
    ``A = 2 log cosh B``.
    """
    def g(b):
        return 2.0 * b * b / math.cosh(b) ** 2 - lam

    side = (0.0, FOLD_B) if branch == "small" else (FOLD_B, 40.0)
    return 2.0 * math.log(math.cosh(_bisect(g, *side, rising=branch == "small")))


def boyd_amplitude(lam: float, side: str) -> float:
    """Invert Boyd's one-point estimate ``3.2 A exp(-0.64 A) = lam``.

    Returns the root on the requested side of the peak, or the peak
    amplitude itself when ``lam`` is at or above the peak value ``5/e``.
    """
    def g(a):
        return 3.2 * a * math.exp(-0.64 * a) - lam

    if g(BOYD_PEAK) <= 0.0:
        return BOYD_PEAK
    bracket = (0.0, BOYD_PEAK) if side == "small" else (BOYD_PEAK, 80.0)
    return _bisect(g, *bracket, rising=side == "small")


def _solve_1d(cmd, lam, n, branch, fmt="json"):
    """A 1D request from the zero guess (small) or the closed-form amplitude (big)."""
    guess = ("--guess", "onepoint", "--amplitude", _num(branch_amplitude(lam, "big"))) \
        if branch == "big" else ("--guess", "zero")
    argv = (*cmd, "--lambda", _num(lam), "--n", str(n), *guess, "--format", fmt)
    return Request(argv, "-".join(cmd), {"lam": lam, "n": n, "branch": branch})


def _sweep_round(d: _Draws, r: int) -> list:
    reqs = []
    for k, n in enumerate((16, 32, 48)):
        lam = d.lam(("below", n), r, LAMBDA_MIN_1D, LAMBDA_MAX_1D)

        def one(cmd, branch, j):
            return _solve_1d(cmd, lam, n, branch, FORMATS[(r + k + j) % 3])

        alt = ("small", "big") if r % 2 == 0 else ("big", "small")
        reqs += [
            one(("solve-1d",), "small", 0),
            one(("solve-1d",), "big", 1),
            one(("stability-1d",), alt[0], 2),
            one(("coeffs", "1d"), alt[1], 0),
        ]
    if r % 2 == 0:
        samples = BIFURCATION_SAMPLES
        argv = ("bifurcation-1d", "--samples", str(samples), "--format", FORMATS[(r // 2) % 3])
        reqs.append(Request(argv, "bifurcation-1d", {"samples": samples}))
    return reqs


def _ground_round(d: _Draws, r: int) -> list:
    reqs = []
    for k, n in enumerate(GRIDS_GROUND):
        argv = ("eig-2d", "--n", str(n), "--samples", str(EIG_SAMPLES),
                "--format", FORMATS[(r + k) % 3])
        reqs.append(Request(argv, "eig-2d", {"n": n, "count": EIG_SAMPLES}))
        # a drawn lambda and the reference lambda = 0.5 on every grid
        for lam in (d.lam(("small", n), r, 0.0, LAMBDA_MAX_2D), REFERENCE_LAMBDA_2D):
            argv = ("solve-2d", "--lambda", _num(lam), "--n", str(n), "--guess", "eigenfunction")
            reqs.append(Request(argv, "solve-2d", {"lam": lam, "n": n, "nonlinearity": "exp",
                                                   "branch": "small"}))
    return reqs


_NEWTON_COMMANDS = (("solve-2d",), ("coeffs", "2d"), ("symmetry",))


def _onepoint_2d(cmd, lam, n, nl, side):
    """A 2D request with the ``onepoint`` guess from Boyd's estimate on ``side``."""
    argv = (*cmd, "--lambda", _num(lam), "--n", str(n), "--guess", "onepoint",
            "--amplitude", _num(boyd_amplitude(lam, side)), "--nonlinearity", nl)
    if nl == "gelfand":
        argv += ("--epsilon", _num(GELFAND_EPSILON))
    return Request(argv, "-".join(cmd), {"lam": lam, "n": n, "nonlinearity": nl,
                                         "epsilon": GELFAND_EPSILON, "guess": side})


def _newton_round(d: _Draws, r: int) -> list:
    cells = [(nl, n) for n in GRIDS_NEWTON for nl in ("exp", "gelfand", "cosh")]
    return [_onepoint_2d(_NEWTON_COMMANDS[(r + k) % 3], d.lam((nl, n), r, 0.0, LAMBDA_MAX_2D),
                         n, nl, "small")
            for k, (nl, n) in enumerate(cells)]


def _above_fold(argv, lam, n):
    return Request(argv, "above-fold", {"lam": lam, "n": n})


# Known-defect probes: fixed requests, sent once per run outside the timed
# loop.  Above the fold the program must exit 3 with a Newton trace; 1D
# solves from lambda = 1.5 on and every 2D one listed here exit 4 on a
# singular Jacobian instead.  The exp big-branch guesses at lambda = 0.2
# (n = 16-32) and 0.5 (n = 32) are the documented 2D big-branch failures.
DEFECTS_1D = tuple(
    [_above_fold(("solve-1d", "--lambda", _num(lam), "--n", str(n)), lam, n)
     for lam in ABOVE_FOLD_1D for n in (16, 32, 48)]
    + [_solve_1d(("solve-1d",), TINY_LAMBDA_1D, n, "big") for n in (16, 32, 48)])
DEFECTS_GROUND = tuple(
    _above_fold(("solve-2d", "--lambda", _num(lam), "--n", str(n), "--guess", "eigenfunction"),
                lam, n)
    for lam in ABOVE_FOLD_2D for n in (16, 24))
DEFECTS_NEWTON = tuple(
    [_onepoint_2d(("solve-2d",), lam, n, "exp", "big")
     for lam, n in ((0.2, 16), (0.2, 24), (0.2, 32), (0.5, 32))]
    + [_above_fold(_onepoint_2d(("solve-2d",), lam, n, "exp", "big").argv, lam, n)
       for lam in ABOVE_FOLD_2D for n in (16, 24)])


@dataclass(frozen=True)
class Workload:
    why: str
    rounds: int        # deck length; a run that outlasts it starts over
    probe: tuple       # fixed first request of a fresh process (setup_s)
    build_round: object
    defects: tuple     # fixed known-defect probe, outside the timed loop


WORKLOADS = {
    "sweep-1d": Workload(WHY["sweep-1d"], 128,
                         ("solve-1d", "--lambda", "0.5", "--n", "32"), _sweep_round,
                         DEFECTS_1D),
    "ground-2d": Workload(WHY["ground-2d"], 32,
                          ("eig-2d", "--n", "16"), _ground_round, DEFECTS_GROUND),
    "newton-2d": Workload(WHY["newton-2d"], 32,
                          ("solve-2d", "--lambda", "0.5", "--n", "16", "--guess", "onepoint",
                           "--amplitude", _num(boyd_amplitude(0.5, "small"))),
                          _newton_round, DEFECTS_NEWTON),
}


def build_deck(workload: str, seed: int, rounds: int | None = None) -> list:
    """The deck of ``workload`` for ``seed``: a list of rounds of requests."""
    spec = WORKLOADS[workload]
    d = _Draws(workload, seed)
    deck = []
    for r in range(spec.rounds if rounds is None else rounds):
        reqs = spec.build_round(d, r)
        d.rng.shuffle(reqs)
        deck.append(reqs)
    return deck


def deck_hash(deck) -> str:
    """SHA-256 of the argv lists of a deck, in order."""
    argvs = [list(req.argv) for rnd in deck for req in rnd]
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()
