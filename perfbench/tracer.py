"""Span tracer that wraps chebratu's layer entry points from outside.

``Tracer.install`` replaces every public function of the layer modules,
in every chebratu namespace that holds it, so a name imported with
``from .x import y`` is traced where it is looked up (``chebratu.newton.
lu_solve``, ``chebratu.pde2d.eig_general``, ...).  The CLI's parse,
payload and render steps and the Newton residual/Jacobian callbacks get
spans of their own.  Spans are kept in memory as lists
``[name, parent, start, end, request, attrs]``; ``uninstall`` restores
the originals.  Wrapping private CLI names ties the tracer to the
current CLI: when one of them is gone, ``install`` raises ``MissingHook``
before it replaces anything, rather than report zeros for the CLI spans.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("cli", "chebyshev", "numerics", "newton", "bratu1d", "pde2d", "diagnostics")

NAME, PARENT, START, END, REQUEST, ATTRS = range(6)

# Closed-form scalar helpers called hundreds of times inside each labelling
# span; wrapping them would inflate those spans by the tracer's own cost.
UNTRACED = {"lambda_of_amplitude", "lambda_slope", "exact_solution"}

# private CLI names wrapped for the parse, handler, render and write spans
CLI_HOOKS = ("_build_parser", "_HANDLERS", "_render", "_write")


class MissingHook(LookupError):
    """A CLI name the tracer wraps does not exist in this version."""


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording a span per call.

        ``before(args, kwargs)`` returns ``(args, kwargs, attrs)`` and may
        replace arguments; ``after(result_or_exception)`` returns attrs.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if before is not None:
                args, kwargs, attrs = before(args, kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.request, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = perf_counter()
                stack.pop()
                if after is not None:
                    span[ATTRS] = after(exc)
                raise
            span[END] = perf_counter()
            stack.pop()
            if after is not None:
                span[ATTRS] = after(result)
            return result

        return traced

    def _replace(self, namespace, attr, new):
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    # -- installation ------------------------------------------------------

    def install(self):
        package = importlib.import_module("chebratu")
        modules = {layer: importlib.import_module(f"chebratu.{layer}") for layer in LAYERS}
        cli = modules["cli"]
        missing = [f"chebratu.cli.{attr}" for attr in CLI_HOOKS if not hasattr(cli, attr)]
        if missing:
            raise MissingHook("the tracer cannot wrap " + ", ".join(missing))
        namespaces = [package, *modules.values()]
        hooks = {
            "lu_solve": (_matrix_size, None),
            "eig_general": (_matrix_size, None),
            "newton_kantorovich": (self._wrap_callbacks, _newton_outcome),
            "_write": (_bytes_out, None),
        }
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", []):
                fn = getattr(module, attr)
                if (attr in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn, *hooks.get(attr, (None, None)))
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._replace(ns, attr, traced)
        for attr, name in (("_render", "cli.render"), ("_write", "cli.write")):
            self._replace(cli, attr, self.wrap(name, getattr(cli, attr),
                                               *hooks.get(attr, (None, None))))
        self._replace(cli, "_build_parser", self.wrap("cli.build_parser", cli._build_parser))
        # on the class, so that a parser built once and kept is traced as well
        self._replace(argparse.ArgumentParser, "parse_args",
                      self.wrap("cli.parse_args", argparse.ArgumentParser.parse_args))
        for command, fn in list(cli._HANDLERS.items()):
            self._undo.append((cli._HANDLERS, command, fn))
            cli._HANDLERS[command] = self.wrap("cli.handler", fn)

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def _wrap_callbacks(self, args, kwargs):
        args = list(args)
        for i, (key, name) in enumerate((("residual", "newton.residual"),
                                         ("jacobian", "newton.jacobian"))):
            if i < len(args):
                args[i] = self.wrap(name, args[i])
            elif key in kwargs:
                kwargs[key] = self.wrap(name, kwargs[key])
        return tuple(args), kwargs, None

    def write(self, path):
        """Write the spans as gzipped JSON lines, times in microseconds:
        ``[id, parent, request, name, start_us, end_us, attrs]``."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps([i, s[PARENT], s[REQUEST], s[NAME],
                                         round(s[START] * 1e6, 1), round(s[END] * 1e6, 1),
                                         s[ATTRS]]) + "\n")


def _matrix_size(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", None)
    return args, kwargs, {"m": int(shape[0])} if shape else None


def _bytes_out(args, kwargs):
    text = args[0] if args else kwargs.get("text", "")
    return args, kwargs, {"bytes": len(text.encode("utf-8"))}


def _newton_outcome(result):
    if isinstance(result, Exception):
        trace = getattr(result, "trace", None)
        return {"outcome": type(result).__name__,
                "iterations": trace.iterations if trace is not None else 0}
    return {"outcome": "converged", "iterations": result[1].iterations}


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

_GRID = {"chebyshev.cheb_points", "chebyshev.diff_matrix", "chebyshev.second_diff_matrix"}
_TRANSFORM = {"chebyshev.cheb_transform", "chebyshev.cheb_transform_2d",
              "chebyshev.inverse_cheb_transform", "chebyshev.inverse_cheb_transform_2d"}
_RESAMPLE = {"chebyshev.barycentric_resample", "chebyshev.barycentric_resample_2d"}
_LABEL = {"bratu1d.critical_point", "bratu1d.branch_amplitudes"}
_GUESS = {"pde2d.guess_eigenfunction", "pde2d.guess_onepoint"}
_FAILURES = {"newton.singular": "SingularJacobianError",
             "newton.nonconverged": "NonConvergenceError",
             "newton.diverged": "DivergenceError"}


def layer_metrics(spans, request_walls) -> dict:
    """Per-layer figures from the spans of one traced run.

    ``request_walls`` holds the client-side wall time of each traced
    request.  Times and counts are per request unless the name says
    otherwise; values are ``(value, unit)`` pairs.
    """
    n_req = max(len(request_walls), 1)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def outermost(names):
        """Indices of spans in ``names`` with no ancestor in ``names``."""
        out = []
        for i, s in enumerate(spans):
            if s[NAME] not in names:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in names:
                p = spans[p][PARENT]
            if p < 0:
                out.append(i)
        return out

    def busy_ms(names):
        return 1e3 * sum(dur[i] for i in outermost(names)) / n_req

    def of(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    lu, eig = of("numerics.lu_solve"), of("numerics.eig_general")
    lu_time = sum(dur[i] for i in lu)
    lu_flops = sum(2.0 / 3.0 * spans[i][ATTRS]["m"] ** 3 for i in lu)
    solves = [spans[i][ATTRS] for i in outermost({"newton.newton_kantorovich"})]
    n_solves = max(len(solves), 1)
    label = sum(dur[i] for i, s in enumerate(spans)
                if s[NAME] in _LABEL and s[PARENT] >= 0
                and spans[s[PARENT]][NAME] == "bratu1d.solve_1d")
    roots = of("cli.run")

    m = {
        "bratu1d.label_ms": (1e3 * label / n_req, "ms"),
        "cli.self_ms": (1e3 * sum(dur[i] - child[i] for i in roots) / n_req, "ms"),
        "cli.parse_ms": (busy_ms({"cli.build_parser", "cli.parse_args"}), "ms"),
        "cli.render_ms": (busy_ms({"cli.render", "cli.write"}), "ms"),
        "cli.bytes_out": (sum(spans[i][ATTRS]["bytes"] for i in of("cli.write")) / n_req, "B"),
        "numerics.eig_calls": (len(eig) / n_req, "calls"),
        "numerics.eig_ms": (1e3 * sum(dur[i] for i in eig) / n_req, "ms"),
        "pde2d.guess_ms": (busy_ms(_GUESS), "ms"),
        "numerics.lu_calls": (len(lu) / n_req, "calls"),
        "numerics.lu_ms": (1e3 * lu_time / n_req, "ms"),
        "numerics.lu_gflops": (lu_flops / lu_time / 1e9 if lu_time > 0 else 0.0, "GFLOP/s"),
        "newton.jacobian_ms": (busy_ms({"newton.jacobian"}), "ms"),
        "newton.residual_ms": (busy_ms({"newton.residual"}), "ms"),
        "pde2d.assemble_ms": (busy_ms({"pde2d.assemble_laplacian"}), "ms"),
        "numerics.bytes_computed": (sum(8.0 * spans[i][ATTRS]["m"] ** 2 for i in lu + eig)
                                    / n_req, "B"),
        "newton.iterations": (sum(s["iterations"] for s in solves) / n_solves, "iter/solve"),
        "newton.converged_ratio": (sum(s["outcome"] == "converged" for s in solves) / n_solves,
                                   "ratio"),
        "chebyshev.grid_ms": (busy_ms(_GRID), "ms"),
        "chebyshev.transform_ms": (busy_ms(_TRANSFORM), "ms"),
        "chebyshev.resample_ms": (busy_ms(_RESAMPLE), "ms"),
        "diagnostics.ms": (busy_ms({s[NAME] for s in spans if s[NAME].startswith("diagnostics.")}),
                           "ms"),
    }
    for name, kind in _FAILURES.items():
        m[name] = (sum(s["outcome"] == kind for s in solves) / n_solves, "ratio")
    selfs = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        selfs[s[NAME].split(".")[0]] += dur[i] - child[i]
    wall = sum(request_walls)
    for layer, t in selfs.items():
        m[f"self.{layer}_ms"] = (1e3 * t / n_req, "ms")
    m["self.client_ms"] = (1e3 * (wall - sum(dur[i] for i in roots)) / n_req, "ms")
    m["trace.coverage"] = (sum(selfs.values()) / wall if wall > 0 else 0.0, "ratio")
    return m
