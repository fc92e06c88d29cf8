"""Traced in-process run: per-layer self times and counts.

Wraps the public functions of each ``transopt`` module from outside (module
attributes, restored afterwards) and drives every job of the workload
through ``transopt.cli.main([...])`` in this process.  Each wrapped call
records a span (id, parent id, request id, layer, start, end) in memory; a
layer's self time is its spans' durations minus the time their child spans
cover.  Every job also runs unwrapped, interleaved with its wrapped run,
which gives the tracing overhead.  Fresh
processes time the interpreter and the ``transopt.cli`` import, and a size
ladder per family measures the complexity slopes.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from transopt.fuel import make_fuel_instance, min_initial_fuel
from transopt.hampath import (CurveInstance, SimplePolygon, curve_weighted_ham_path,
                              visibility_matrix)
from transopt.ovrp import OvrpInstance, solve_leaf_interval
from transopt.tree import build_rooted_tree

import workloads

_GRAPH = ("graph_min_gas_backward", "graph_min_gas_binary_forward",
          "graph_free_depots", "graph_vertex_depots_continuous")

# layer -> the module attributes whose calls are its spans.  The CLI binds
# build_rooted_tree by name, so both bindings are wrapped.
SPANS = {
    "cli.main": [("transopt.cli", "main")],
    "cli.load": [("transopt.cli", "load_instance")],
    "tree.build": [("transopt.cli", "build_rooted_tree"),
                   ("transopt.tree", "build_rooted_tree")],
    "ovrp.interval": [("transopt.ovrp", "solve_leaf_interval")],
    "ovrp.greedy": [("transopt.ovrp", "solve_greedy")],
    "ovrp.dp2": [("transopt.ovrp", "solve_knapsack_v2")],
    "ovrp.dp1": [("transopt.ovrp", "solve_knapsack_v1")],
    "fuel.solve": [("transopt.fuel", "min_initial_fuel")],
    "jeep.subdivision": [("transopt.jeep", "equal_subdivision")],
    "jeep.exact": [("transopt.jeep", "eval_subdivision_exact")],
    "jeep.fast": [("transopt.jeep", "eval_equal_fast")],
    "jeep.threshold": [("transopt.jeep", "threshold_search")],
    "jeep.graph": [("transopt.jeep", name) for name in _GRAPH],
    "hampath.polygon": [("transopt.hampath", "SimplePolygon")],
    "hampath.visibility": [("transopt.hampath", "visibility_matrix")],
    "hampath.dp": [("transopt.hampath", "shortest_ham_path_fixed_start"),
                   ("transopt.hampath", "shortest_ham_path_free_start"),
                   ("transopt.hampath", "curve_weighted_ham_path")],
}
# called too often for a span each; counted only
COUNTED = {
    "fuel.probes": ("transopt.fuel", "feasible"),
    "jeep.forward_probes": ("transopt.jeep", "graph_forward_feasible"),
}

TIME_METRICS = {
    "cli.load_s": "cli.load", "cli.main_self_s": "cli.main",
    "tree.build_s": "tree.build",
    "ovrp.interval_s": "ovrp.interval", "ovrp.greedy_s": "ovrp.greedy",
    "ovrp.dp2_s": "ovrp.dp2", "ovrp.dp1_s": "ovrp.dp1",
    "fuel.solve_s": "fuel.solve",
    "jeep.subdivision_s": "jeep.subdivision", "jeep.exact_s": "jeep.exact",
    "jeep.fast_s": "jeep.fast", "jeep.threshold_s": "jeep.threshold",
    "jeep.graph_s": "jeep.graph",
    "hampath.polygon_s": "hampath.polygon",
    "hampath.visibility_s": "hampath.visibility", "hampath.dp_s": "hampath.dp",
    "oracles.self_s": "oracles",
}


def _oracle_targets():
    mod = importlib.import_module("transopt.oracles")
    return [("transopt.oracles", name) for name, fn in vars(mod).items()
            if callable(fn) and not name.startswith("_")
            and getattr(fn, "__module__", None) == "transopt.oracles"]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [id, parent, request, layer, start, end]
        self.stack = []
        self.request = -1
        self.counts = defaultdict(float)
        self._targets = None
        self._saved = []

    # ---------------------------------------------------------- wrapping

    def span(self, layer, fn, after=None):
        tracer = self

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [sid, parent, tracer.request, layer, 0.0, 0.0]
            tracer.spans.append(rec)
            tracer.stack.append(sid)
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                # a span of its own, so the caller's self time excludes it
                hook = [len(tracer.spans), parent, tracer.request, "trace.hooks",
                        time.perf_counter(), 0.0]
                tracer.spans.append(hook)
                after(tracer, args, result)
                hook[5] = time.perf_counter()
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        if self._targets is None:
            self._targets = dict(SPANS, oracles=_oracle_targets())
        for layer, attrs in self._targets.items():
            for modname, attr in attrs:
                self._patch(modname, attr,
                            lambda fn, layer=layer, after=AFTER.get(attr):
                            self.span(layer, fn, after))
        for name, (modname, attr) in COUNTED.items():
            self._patch(modname, attr, lambda fn, name=name: self.counter(name, fn))

    def _patch(self, modname, attr, make):
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr, None)
        if callable(fn):  # a renamed or removed function leaves its layer missing
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, make(fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # ---------------------------------------------------------- summaries

    def self_times(self):
        """Layer -> summed self time over all recorded spans."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, _, _, layer, t0, t1 in self.spans:
            out[layer] += (t1 - t0) - child[sid]
        return out


def _after_routes(tracer, args, sol):
    tracer.counts["ovrp.route_entries"] += sum(len(r) for r in sol.routes)


def _after_fuel(tracer, args, result):
    tracer.counts["fuel.multi_child"] += sum(
        1 for ch in args[0].tree.children if len(ch) >= 2)


def _after_fast(tracer, args, result):
    tracer.counts["jeep.touched"] += result[1]
    tracer.counts["jeep.points"] += args[1] + 1


def _after_visibility(tracer, args, result):
    n = args[0].n
    tracer.counts["hampath.vis_pairs"] += n * (n - 3) / 2 if n > 3 else 0


def _after_dp(tracer, args, result):
    tracer.counts["hampath.dp_cells"] += 2 * args[0].n ** 2


AFTER = {
    "solve_leaf_interval": _after_routes, "solve_greedy": _after_routes,
    "min_initial_fuel": _after_fuel, "eval_equal_fast": _after_fast,
    "visibility_matrix": _after_visibility,
    "shortest_ham_path_fixed_start": _after_dp,
    "shortest_ham_path_free_start": _after_dp,
    "curve_weighted_ham_path": _after_dp,
}


# -------------------------------------------------------------- driving

def run_job(cli, job, inst_dir):
    """One job through ``transopt.cli.main`` in this process.

    Returns (seconds, (exit code, stdout bytes)).  An exception escaping
    ``main`` is what a process would die of: exit code 1, partial output.
    """
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(job.argv + [str(inst_dir / job.file)])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = 1
    return time.perf_counter() - t0, (rc, buf.getvalue().encode())


def sweep(workload, inst_dir, tracer):
    """Every job twice, unwrapped and wrapped, alternating which goes first,
    so that warm-up and drift fall on both sides alike.

    Returns {False: (seconds, results), True: (seconds, results)}, keyed by
    whether the wrappers were installed.
    """
    cli = importlib.import_module("transopt.cli")
    out = {False: [0.0, []], True: [0.0, []]}
    for j, job in enumerate(workload.jobs):
        for wrapped in ((False, True) if j % 2 == 0 else (True, False)):
            if wrapped:
                tracer.request += 1
                tracer.install()
            try:
                dt, result = run_job(cli, job, inst_dir)
            finally:
                tracer.uninstall()
            out[wrapped][0] += dt
            out[wrapped][1].append(result)
    return out


def _settle():
    """Collect, then hide every live object from the cyclic collector, so a
    pass does not pay to traverse what earlier passes and checks left alive."""
    gc.collect()
    gc.freeze()


def fresh_process_times(src, reps):
    """Median wall time of a bare interpreter and of ``import transopt.cli``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    spawn, imp = [], []
    for _ in range(reps):
        for code, bucket in (("pass", spawn), ("import transopt.cli", imp)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            bucket.append(time.perf_counter() - t0)
    return statistics.median(spawn), statistics.median(imp)


def _timed(fn, arg, reps):
    best = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(arg)
        best.append(time.perf_counter() - t0)
    return statistics.median(best)


def _loglog_slope(sizes, times):
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)


def slopes(workload_name, seed, reps=3):
    """Log-log slope of solver time against n on a three-size ladder built
    with the workload's own generators; {} for workloads without one."""
    rng = random.Random(f"slopes:{workload_name}:{seed}")
    ladders = {}
    if workload_name == "large":
        def interval(n):
            e = workloads.tree_edges(rng, n, "deep")
            return solve_leaf_interval, OvrpInstance(build_rooted_tree(n, e), 10)

        def fuel(n):
            p = workloads.fuel_payload(rng, n, "bushy")
            tree = build_rooted_tree(n, p["edges"])
            return min_initial_fuel, make_fuel_instance(tree, p["gas"])

        def vis(n):
            p = workloads.hampath_payload(rng, n, 0.85, start=False)
            return visibility_matrix, SimplePolygon(tuple(map(tuple, p["vertices"])))

        def dp(n):
            p = workloads.curve_payload(rng, n, rng.randrange(n))
            return curve_weighted_ham_path, CurveInstance(
                tuple(p["gaps"]), tuple(p["weights"]), p["start"])
        ladders["ovrp.interval.slope"] = (interval, (5_000, 15_000, 45_000))
        ladders["fuel.solve.slope"] = (fuel, (3_000, 9_000, 27_000))
        ladders["hampath.visibility.slope"] = (vis, (25, 50, 100))
        ladders["hampath.dp.slope"] = (dp, (100, 200, 400))
    out = {}
    for name, (make, sizes) in ladders.items():
        times = []
        for n in sizes:
            fn, arg = make(n)
            times.append(_timed(fn, arg, reps))
        out[name] = {"value": _loglog_slope(sizes, times), "unit": "exponent",
                     "samples": len(sizes),
                     "stat": f"log-log fit over n={list(sizes)}, median of {reps} "
                             f"timings each: {[round(t, 6) for t in times]} s"}
    return out


def traced_run(workload, seed, inst_dir, checker, src, seconds):
    """Sweep the jobs, each unwrapped and wrapped, until ``seconds`` are used
    (at least one sweep), then measure the controls and the slopes.

    Returns (metrics, per-pass failure reasons, tracer).
    """
    plain, wrapped, reasons = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        _settle()
        out = sweep(workload, inst_dir, tracer)
        plain.append(out[False][0])
        wrapped.append(out[True][0])
        results = out[True][1]
        reasons += [checker.check_pass(out[False][1]), checker.check_pass(results)]
        typical = statistics.median(a + b for a, b in zip(plain, wrapped))
        if time.perf_counter() - start + typical > seconds:
            break

    gc.unfreeze()
    passes = len(wrapped)
    self_s = tracer.self_times()
    metrics = {}

    def put(name, value, unit, note):
        metrics[name] = {"value": value, "unit": unit, "samples": passes,
                         "stat": note}

    spawn, imp = fresh_process_times(src, reps=5)
    metrics["cli.spawn_s"] = {"value": spawn, "unit": "s", "samples": 5,
                              "stat": "median of fresh `python -c pass`"}
    metrics["cli.import_s"] = {"value": imp - spawn, "unit": "s", "samples": 5,
                               "stat": "median fresh `import transopt.cli` "
                                       "minus cli.spawn_s"}
    per_pass = "self time summed over one pass, mean of the traced passes"
    for name, layer in TIME_METRICS.items():
        if layer in self_s:
            put(name, self_s[layer] / passes, "s", per_pass)
    put("cli.in_bytes", sum((inst_dir / j.file).stat().st_size
                            for j in workload.jobs), "bytes",
        "instance bytes read in one pass")
    put("cli.out_bytes", sum(len(raw) for _, raw in results), "bytes",
        "envelope bytes printed in the last traced pass")
    counts = tracer.counts
    if "ovrp.route_entries" in counts:
        put("ovrp.route_entries", counts["ovrp.route_entries"] / passes, "count",
            "walk entries returned per pass")
    if "fuel.probes" in counts:
        probes = counts["fuel.probes"]
        put("fuel.probes", probes / passes, "count", "calls to fuel.feasible per pass")
        put("fuel.probe_yield", counts["fuel.multi_child"] / probes, "ratio",
            "multi-child vertices / feasibility probes")
    if "jeep.points" in counts:
        put("jeep.touch_ratio", counts["jeep.touched"] / counts["jeep.points"],
            "ratio", "points touched / (k+1), summed over eval_equal_fast calls")
    if "jeep.forward_probes" in counts:
        put("jeep.forward_probes", counts["jeep.forward_probes"] / passes, "count",
            "calls to graph_forward_feasible per pass")
    for name in ("hampath.vis_pairs", "hampath.dp_cells"):
        if name in counts:
            put(name, counts[name] / passes, "count",
                "computed from n per call, summed per pass")
    put("trace.overhead_frac",
        (statistics.median(wrapped) - statistics.median(plain))
        / statistics.median(plain), "ratio",
        "(wrapped - unwrapped) / unwrapped job time per sweep, medians, in-process")
    metrics.update(slopes(workload.name, seed))
    return metrics, reasons, tracer


# every per-layer metric the traced run can report, in report order
ALL_METRICS = (
    ["cli.spawn_s", "cli.import_s"] + list(TIME_METRICS)[:2]
    + ["cli.in_bytes", "cli.out_bytes"] + list(TIME_METRICS)[2:]
    + ["ovrp.route_entries", "fuel.probes", "fuel.probe_yield",
       "jeep.touch_ratio", "jeep.forward_probes", "hampath.vis_pairs",
       "hampath.dp_cells", "trace.overhead_frac", "ovrp.interval.slope",
       "fuel.solve.slope", "hampath.visibility.slope", "hampath.dp.slope"])
