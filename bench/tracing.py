"""Span tracing of the resil layers, installed from outside the package.

`Tracer.install()` wraps every public function of the traced modules, plus a
few named methods, so that each call records a span: name, start, end and
the span that was open when it began.  Spans are kept in flat in-memory
arrays and written out once, after the timed commands.  `layer_metrics()`
turns them into the per-layer figures the benchmark reports.

Part of each traced call's bookkeeping lies outside its own [start, end]
window and so lands in its parent's self time.  `span_cost()` measures that
cost on a wrapped no-op, and `layer_metrics()` subtracts it once per direct
child from every self time.

The oracle runs with one worker, so every traced call happens on the main
thread and spans nest exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "resil"
LAYERS = ("exprs", "subsystem", "oracle", "resilience", "interconnect",
          "hybrid_sim", "model_io", "cli")

# Public methods traced in addition to each module's public functions.
METHODS = {
    "exprs": ("CompiledExpression.__call__",),
    "subsystem": ("Subsystem.clamp_mu", "Subsystem.mu_values"),
}

EXPR_CALL = "exprs.CompiledExpression.__call__"


def _noop():
    pass


def _call_loop(fn, calls):
    for _ in range(calls):
        fn()


def _empty_loop(fn, calls):
    for _ in range(calls):
        pass


def span_cost(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds that one traced call adds to its parent's self time: a traced
    loop of `calls` traced no-op calls, minus its children's spans and minus
    the same loop with an empty body, per call.  Median over `rounds`."""
    costs = []
    for _ in range(rounds):
        start = time.perf_counter()
        _empty_loop(_noop, calls)
        empty = time.perf_counter() - start
        probe = Tracer()
        probe._wrap("probe.loop", _call_loop)(probe._wrap("probe.noop", _noop), calls)
        starts, ends = probe.span_start, probe.span_end
        children = sum(ends[i] - starts[i] for i in range(1, len(starts)))
        costs.append((ends[0] - starts[0] - children - empty) / calls)
    return statistics.median(costs)


def _grid_points(stats, bound, result, parent):
    """grid points per dim ^ dims x scan rounds, from the call's arguments."""
    axes, settings = bound.arguments["axes"], bound.arguments["settings"]
    rounds = settings.refinement_rounds + 1
    stats["oracle.points"] += settings.grid_points_per_dim ** len(axes) * rounds if axes else 1


def _candidate(stats, bound, result, parent):
    if parent == "resilience.compute_index":
        stats["resilience.candidates"] += 1
        stats["resilience.accepted"] += int(result.passed)


def _schedules(stats, bound, result, parent):
    stats["hybrid_sim.schedules"] += len(result)


def _csv_bytes(stats, bound, result, parent):
    stats["hybrid_sim.export_csv_bytes"] += os.path.getsize(bound.arguments["path"])


# Counters taken from a call's arguments and result.  Each hook receives the
# counter map, the bound arguments, the result and the parent span's name.
HOOKS = {
    "oracle.grid_minimize": _grid_points,
    "resilience.verify_index": _candidate,
    "hybrid_sim.generate_schedule": _schedules,
    "hybrid_sim.export_trace_csv": _csv_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = [-1]
        self.stats: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, stack, stats = self.names, self.stack, self.stats
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        is_expr_call = name == EXPR_CALL
        clock = time.perf_counter
        empty_region = None
        if name == "oracle.grid_minimize":
            empty_region = importlib.import_module(
                f"{PACKAGE}.oracle").EmptyRegionError

        def traced(*args, **kwargs):
            i = len(span_start)
            parent = stack[-1]
            span_name.append(nid)
            span_parent.append(parent)
            span_end.append(0.0)
            stack.append(i)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span_end[i] = clock()
                stack.pop()
                if empty_region is not None and isinstance(exc, empty_region):
                    stats["oracle.empty_region"] += 1
                raise
            span_end[i] = clock()
            stack.pop()
            if is_expr_call:
                stats["exprs.elements"] += getattr(result, "size", 1)
            elif hook is not None:
                hook(stats, signature.bind(*args, **kwargs), result,
                     names[span_name[parent]] if parent >= 0 else None)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap the traced callables and rebind every reference to them that
        the package's modules hold, so calls across modules are traced too."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    replaced[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(f"{layer}.{qual}", vars(cls)[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(mod, attr, wrapper)

    # -- reporting ---------------------------------------------------------

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            names = self.names
            for i, (nid, t0, t1, parent) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end, self.span_parent)):
                fh.write(f"{i},{names[nid]},{t0!r},{t1!r},{parent}\n")

    def layer_metrics(self, cost: float) -> dict[str, float]:
        """Per-layer counts and times.  Self time is a span's duration minus
        the durations of its direct children and minus `cost` (the tracer's
        own time, from `span_cost()`) per direct child.  Inclusive time of a
        name (or a layer) sums only spans whose parent has another name (or
        layer), so nested calls count once."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i] + cost
        calls = Counter()
        incl = defaultdict(float)
        self_t = defaultdict(float)
        layer_incl = defaultdict(float)
        layer_self = defaultdict(float)
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            layer = name.split(".", 1)[0]
            p = self.span_parent[i]
            parent_name = names[self.span_name[p]] if p >= 0 else ""
            calls[name] += 1
            self_t[name] += dur[i] - child[i]
            layer_self[layer] += dur[i] - child[i]
            if parent_name != name:
                incl[name] += dur[i]
            if parent_name.split(".", 1)[0] != layer:
                layer_incl[layer] += dur[i]

        def ratio(a, b):
            return a / b if b else 0.0

        st = self.stats
        expr_self = self_t[EXPR_CALL]
        export_s = incl["hybrid_sim.export_trace_csv"]
        gen_s = incl["hybrid_sim.generate_schedule"]
        return {
            "exprs.calls": calls[EXPR_CALL],
            "exprs.self_s": layer_self["exprs"],
            "exprs.us_per_call": ratio(expr_self, calls[EXPR_CALL]) * 1e6,
            "exprs.elements": st["exprs.elements"],
            "exprs.elements_per_s": ratio(st["exprs.elements"], expr_self),
            "oracle.calls": calls["oracle.grid_minimize"],
            "oracle.self_s": layer_self["oracle"],
            "oracle.points": st["oracle.points"],
            "oracle.points_per_s": ratio(st["oracle.points"], incl["oracle.grid_minimize"]),
            "oracle.empty_region": st["oracle.empty_region"],
            "resilience.compute_index_s": incl["resilience.compute_index"],
            "resilience.candidates": st["resilience.candidates"],
            "resilience.accept_ratio": ratio(st["resilience.accepted"],
                                             st["resilience.candidates"]),
            "interconnect.propagate_s": incl["interconnect.propagate_indices"],
            "interconnect.verify_network_s": incl["interconnect.verify_network"],
            "interconnect.verify_network_self_s": self_t["interconnect.verify_network"],
            "hybrid_sim.generate_schedule_s": gen_s,
            "hybrid_sim.schedules_per_s": ratio(st["hybrid_sim.schedules"], gen_s),
            "hybrid_sim.simulate_batch_s": incl["hybrid_sim.simulate_batch"],
            "hybrid_sim.simulate_batch_self_s": self_t["hybrid_sim.simulate_batch"],
            "hybrid_sim.check_trace_safety_s": incl["hybrid_sim.check_trace_safety"],
            "hybrid_sim.export_csv_s": export_s,
            "hybrid_sim.export_csv_bytes": st["hybrid_sim.export_csv_bytes"],
            "hybrid_sim.export_csv_mb_per_s": ratio(st["hybrid_sim.export_csv_bytes"] / 1e6,
                                                    export_s),
            "subsystem.clamp_mu_calls": calls["subsystem.Subsystem.clamp_mu"],
            "subsystem.clamp_mu_s": incl["subsystem.Subsystem.clamp_mu"],
            "model_io.s": layer_incl["model_io"],
            "cli.self_s": layer_self["cli"],
            "trace.span_cost_us": cost * 1e6,
        }
