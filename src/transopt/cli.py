"""Batch command-line front end.

Subcommands: ``solve`` runs a named solver on JSON instance files,
``oracle`` runs the matching brute-force reference, ``check`` runs both and
reports agreement, ``bench-jeep`` times the two equal-subdivision jeep
evaluators against each other.  Exit codes: 0 ok, 2 infeasible, 1 error.
The first three read ``PROBLEMS``: per problem tag, its algos and the one
function that parses an instance once and returns the ``solve`` that runs
any of them or the oracle on it, so ``check`` runs both on one instance.  Each prints one
envelope per file from ``_run_one``; ``check``'s is the ``solve`` envelope
plus ``agreement``, ``solver_objective`` and ``oracle_objective``.

The ``transopt`` console script and ``python -m transopt.cli`` both call
``run``: it runs one command, flushes stdout and stderr and ends with
``os._exit``, skipping interpreter teardown; a reader that closes the pipe
early gets exit code 1 and no traceback.  ``main`` itself returns the exit
code, so in-process callers keep a normal exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time

# Solver modules are imported inside the branches that run them, so a
# process loads only the solver it needs, and numpy only past a rows gate.
from .errors import BudgetUnreachableError, InfeasibleError, TransoptError

INSTANCE_SCHEMA = "transopt-instance/1"
RESULT_SCHEMA = "transopt-result/1"


class SchemaError(TransoptError):
    """Instance file does not match its schema."""


def default_eps():
    """``TRANSOPT_EPS`` (default 1e-6): the relative agreement tolerance of
    ``check`` and the search tolerance of ``jeep-graph-binary``.  A
    ValueError unless it is a finite number > 0."""
    raw = os.environ.get("TRANSOPT_EPS", "1e-6")
    try:
        eps = float(raw)
    except ValueError:
        eps = math.nan
    if not 0.0 < eps < math.inf:
        raise ValueError(f"TRANSOPT_EPS must be a finite number > 0, got {raw!r}")
    return eps


_REQUIRED = object()


def _field(payload, name, types, default=_REQUIRED):
    if name not in payload:
        if default is not _REQUIRED:
            return default
        raise SchemaError(f"missing field '{name}'")
    v = payload[name]
    if not isinstance(v, types) or isinstance(v, bool):
        raise SchemaError(f"field '{name}' has wrong type {type(v).__name__}")
    return v


_MAX = sys.float_info.max


def _finite(v):
    # type() rather than isinstance(): a JSON true/false is not a number.
    # NaN fails both comparisons; an int beyond the float range fails one.
    return type(v) in (int, float) and -_MAX <= v <= _MAX


def _number(payload, name, default=_REQUIRED):
    """Scalar field as a float; a SchemaError unless it is a finite number."""
    v = _field(payload, name, (int, float), default)
    if not _finite(v):
        raise SchemaError(f"field '{name}' must be a finite number, got {v!r}")
    return float(v)


def _numbers(payload, name, default=_REQUIRED):
    """List field whose entries must all be finite numbers, returned as is."""
    v = _field(payload, name, list, default)
    # Fast path in C: int/float entries with min, max and sum in float range
    # are all finite (a NaN fails the sum).  Anything else gets the scan.
    if v and not (set(map(type, v)) <= {int, float} and -_MAX <= min(v)
                  and max(v) <= _MAX and -_MAX <= sum(v, 0.0) <= _MAX):
        for t, x in enumerate(v):
            if not _finite(x):
                raise SchemaError(f"field '{name}[{t}]' must be a finite number")
    return v


def load_instance(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read instance file: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"field '<root>' is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise SchemaError("field '<root>' must be a JSON object")
    schema = _field(payload, "schema", str, INSTANCE_SCHEMA)
    if schema != INSTANCE_SCHEMA:
        raise SchemaError(f"field 'schema' must be {INSTANCE_SCHEMA!r}, got {schema!r}")
    problem = _field(payload, "problem", str)
    if problem not in PROBLEMS:
        raise SchemaError(f"field 'problem' has unknown tag {problem!r}")
    return payload


def _edges_field(payload):
    """The checked edge list, popped so that its user holds the only reference."""
    raw = _field(payload, "edges", list)
    for t, e in enumerate(raw):
        u, v, w = e if type(e) is list and len(e) == 3 else (None, None, None)
        # _finite(w) inlined: this loop runs once per edge of trees up to 1e5
        if type(u) is not int or type(v) is not int or \
                type(w) not in (int, float) or not -_MAX <= w <= _MAX:
            raise SchemaError(f"field 'edges[{t}]' must be [u, v, length] with "
                              f"integer vertices and a finite length")
    return payload.pop("edges")


def _tree_from(payload):
    from . import tree
    n = _field(payload, "n", int)
    root = _field(payload, "root", int, 1)
    # on CPython 3.11+ the call moves that reference into the build, which
    # frees the lists once its adjacency holds the edges
    return tree.build_rooted_tree(n, _edges_field(payload), root)


def _jeep_params(payload):
    from . import jeep
    return jeep.JeepParams(_number(payload, "m"), _number(payload, "g"))


# One function per problem tag.  Each parses and validates the instance for
# ``algo`` (one of its tag's algos, or "oracle" for the brute-force
# reference) and returns ``solve``: solve(algo), for that algo or the oracle,
# returns (objective, solution, diagnostics) or raises.  So ``check`` runs
# both on one parsed instance.  Solvers are looked up on their module at call
# time, so a wrapper put on a module attribute (as perfbench/tracing.py does)
# sees every call.

def _ovrp(payload, algo):
    from . import ovrp
    inst = ovrp.OvrpInstance(_tree_from(payload), _field(payload, "p", int))

    def solve(algo):
        if algo == "oracle":
            from . import oracles
            return oracles.ovrp_brute(inst), None, None
        if algo == "ovrp-dp1":
            return ovrp.solve_knapsack_v1(inst), None, None
        if algo == "ovrp-dp2":
            return ovrp.solve_knapsack_v2(inst), None, None
        sol = ovrp.solve_greedy(inst) if algo == "ovrp-greedy" else \
            ovrp.solve_leaf_interval(inst)
        return sol.total_cost, {"routes": sol.routes}, \
            {"vehicles_used": sol.vehicles_used}
    return solve


def _fuel(payload, algo):
    from . import fuel
    tree = _tree_from(payload)
    gas = _numbers(payload, "gas")
    if len(gas) != tree.n:
        raise SchemaError(f"field 'gas' must list {tree.n} values")
    # older instance files may carry value_mode and epsilon; both are ignored
    inst = fuel.make_fuel_instance(tree, gas)

    def solve(algo):
        if algo == "oracle":
            from . import oracles
            return oracles.fuel_brute(inst), None, None
        c, walk = fuel.min_initial_fuel(inst)
        return c, {"walk": walk}, None
    return solve


def _jeep(payload, algo):
    from . import jeep
    params = _jeep_params(payload)
    mode = _field(payload, "mode", str, "faithful")
    if algo == "jeep-fast":
        x, k = _number(payload, "x"), _field(payload, "k", int)
    elif algo == "jeep-threshold":
        x, budget = _number(payload, "x"), _number(payload, "budget")
        search = dict(schedule=_field(payload, "schedule", str, "multiplicative"),
                      ct=_field(payload, "ct", int, 2),
                      k1=_field(payload, "k1", int, 0),
                      method=_field(payload, "method", str, "exact"))
    elif "points" in payload:
        d = jeep.Subdivision(tuple(float(p) for p in _numbers(payload, "points")))
    else:
        d = jeep.equal_subdivision(_number(payload, "x"), _field(payload, "k", int))

    def solve(algo):
        if algo == "jeep-fast":
            g0, touched = jeep.eval_equal_fast(x, k, params)
            return g0, None, {"points_touched": touched}
        if algo == "jeep-threshold":
            k_found, val = jeep.threshold_search(x, params, budget, **search)
            return val, {"k": k_found}, None
        f0, plans = jeep.eval_subdivision_exact(d, params, mode=mode)
        if algo == "oracle":
            from . import oracles
            return oracles.jeep_simulate_plan(d, params, plans), None, None
        # json writes each SegmentPlan tuple as its [rt, q] array
        return f0, {"plans": plans}, None
    return solve


_NO_GRAPH_ORACLE = "no oracle for problem 'jeep-graph'"


def _jeep_graph(payload, algo):
    if algo == "oracle":
        raise SchemaError(_NO_GRAPH_ORACLE)
    from . import jeep
    graph = jeep.JeepGraph(
        _field(payload, "n", int),
        tuple((u, v, float(w)) for u, v, w in _edges_field(payload)),
        _field(payload, "source", int, 1), _field(payload, "target", int, -1))
    params = _jeep_params(payload)
    if algo == "jeep-graph-vertex":
        k_per_edge = _field(payload, "k_per_edge", int, 0)

    def solve(algo):
        if algo == "oracle":  # under check
            raise SchemaError(_NO_GRAPH_ORACLE)
        if algo == "jeep-graph-backward":
            val = jeep.graph_min_gas_backward(graph, params)[graph.source]
        elif algo == "jeep-graph-binary":
            val = jeep.graph_min_gas_binary_forward(graph, params,
                                                    eps=default_eps())
        elif algo == "jeep-graph-free":
            val = jeep.graph_free_depots(graph, params)
        else:
            val = jeep.graph_vertex_depots_continuous(
                graph, params, k_per_edge)[graph.source]
        if val == math.inf:
            raise InfeasibleError("target unreachable with any amount of gas")
        return val, None, None
    return solve


def _hampath(payload, algo):
    from . import hampath
    verts = _field(payload, "vertices", list)
    for t, p in enumerate(verts):
        if not (isinstance(p, list) and len(p) == 2 and _finite(p[0])
                and _finite(p[1])):
            raise SchemaError(f"field 'vertices[{t}]' must be a pair of finite "
                              f"numbers")
    poly = hampath.SimplePolygon(verts)
    # a start is checked whichever algo runs; hampath-fixed requires one
    start = _field(payload, "start", int,
                   _REQUIRED if algo == "hampath-fixed" else None)
    if start is not None and not 0 <= start < poly.n:
        raise SchemaError(f"start {start} outside 0..{poly.n - 1}")

    def solve(algo):
        if algo == "oracle":
            from . import oracles
            length, path = oracles.ham_brute(poly, start)
        elif algo == "hampath-fixed":
            length, path = hampath.shortest_ham_path_fixed_start(poly, start)
        else:
            length, path = hampath.shortest_ham_path_free_start(poly)
        if length == math.inf:
            raise InfeasibleError("no Hamiltonian path stays inside the polygon")
        return length, {"path": path}, None
    return solve


def _curve(payload, algo):
    from . import hampath
    inst = hampath.CurveInstance(_numbers(payload, "gaps"),
                                 _numbers(payload, "weights", None),
                                 _field(payload, "start", int, None))

    def solve(algo):
        if algo == "curve":
            return hampath.curve_ham_path(inst), None, None
        if algo == "oracle":
            from . import oracles
            cost, path = oracles.curve_zigzag_brute(inst)
        else:
            cost, path = hampath.curve_weighted_ham_path(inst)
        return cost, {"path": path}, None
    return solve


# problem tag -> (its algos, the default first; the function that parses an
# instance for one of them and returns its solve)
PROBLEMS = {
    "ovrp": (("ovrp-interval", "ovrp-greedy", "ovrp-dp1", "ovrp-dp2"), _ovrp),
    "fuel": (("fuel",), _fuel),
    "jeep": (("jeep-exact", "jeep-fast", "jeep-threshold"), _jeep),
    "jeep-graph": (("jeep-graph-backward", "jeep-graph-binary",
                    "jeep-graph-free", "jeep-graph-vertex"), _jeep_graph),
    "hampath": (("hampath-free", "hampath-fixed"), _hampath),
    "curve": (("curve-weighted", "curve"), _curve),
}
# every algo -> its problem tag
ALGOS = {algo: tag for tag, (algos, _) in PROBLEMS.items() for algo in algos}


def _default_algo(payload):
    problem = payload["problem"]
    if problem == "hampath" and "start" in payload:
        return "hampath-fixed"  # the oracle honors the start; stay comparable
    return PROBLEMS[problem][0][0]


def _parse(payload, algo):
    """The ``solve`` of a loaded instance, parsed once for ``algo`` (or the
    oracle for ``"oracle"``): solve(algo) returns (objective, solution,
    diagnostics) or raises Infeasible/etc."""
    problem = payload["problem"]
    expected = problem if algo == "oracle" else ALGOS.get(algo)
    if problem != expected:
        raise SchemaError(f"field 'problem' is {problem!r} but algo {algo!r} "
                          f"expects {expected!r}")
    return PROBLEMS[problem][1](payload, algo)


def _envelope(solver, status, objective=None, solution=None, diagnostics=None,
              wall_time=0.0):
    env = {"schema": RESULT_SCHEMA, "status": status, "solver": solver,
           "wall_time": wall_time}
    if status == "ok":
        env["objective"] = objective
        if solution is not None:
            env["solution"] = solution
    if diagnostics:
        env["diagnostics"] = diagnostics
    return env


def _failure(solver, exc, t0):
    """(envelope, exit code) for an instance that raised ``exc``."""
    status, code = ("infeasible", 2) if isinstance(
        exc, (InfeasibleError, BudgetUnreachableError)) else ("error", 1)
    return _envelope(solver, status, diagnostics={"reason": str(exc)},
                     wall_time=time.perf_counter() - t0), code


def _run_one(path, algo):
    """Run ``algo`` (None: the tag's default; "oracle": the brute-force
    reference; "check": the default, then the oracle, exit code 1 unless they
    agree) on one instance file; returns (envelope, exit code)."""
    t0 = time.perf_counter()
    check = algo == "check"
    if check:
        algo = None
    try:
        payload = load_instance(path)
        algo = algo or _default_algo(payload)
        eps = default_eps() if check else None
        solve = _parse(payload, algo)
        objective, solution, diagnostics = solve(algo)
        if not math.isfinite(objective):  # an overflow, not an answer
            raise ValueError(f"objective {objective} is not finite")
        if check:  # the oracle on the same parsed instance
            o_obj = solve("oracle")[0]
    except (TransoptError, ValueError) as exc:
        return _failure(algo or "?", exc, t0)
    env = _envelope(algo, "ok", objective, solution, diagnostics,
                    time.perf_counter() - t0)
    if not check:
        return env, 0
    agree = abs(objective - o_obj) <= eps * max(1.0, abs(objective), abs(o_obj))
    env.update(agreement=agree, solver_objective=objective,
               oracle_objective=o_obj)
    return env, 0 if agree else 1


def _cmd_solve(args):
    files = args.files
    if args.jobs > 1 and len(files) > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            results = list(pool.map(_run_one, files,
                                    [args.algo] * len(files)))
    else:
        results = [_run_one(f, args.algo) for f in files]
    code = 0
    for env, c in results:
        print(json.dumps(env))
        code = max(code, c)
    return code


def bench_jeep(x, m, g, k_list, repeats_budget=20000):
    """Time Method 1 vs Method 2 on equal subdivisions; rows of
    (k, f, g_val, r1, r2, ratio, points_touched, touch_ratio).

    Each time is the best of at least three alternating runs, so one slow
    run at a large k does not decide the ratio; ``touch_ratio`` is the share
    of the k+1 indices Method 2 visits, the work count behind its time."""
    from . import jeep
    params = jeep.JeepParams(m, g)
    rows = []
    for k in k_list:
        r1 = r2 = math.inf
        # alternating the two evaluators lets a slow spell hit both
        for _ in range(max(3, repeats_budget // (k + 1))):
            d = jeep.equal_subdivision(x, k)
            t0 = time.perf_counter()
            f_val, _ = jeep.eval_subdivision_exact(d, params, collect_plans=False)
            r1 = min(r1, time.perf_counter() - t0)
            t0 = time.perf_counter()
            g_val, touched = jeep.eval_equal_fast(x, k, params)
            r2 = min(r2, time.perf_counter() - t0)
        rows.append({"k": k, "f": f_val, "g": g_val, "r1": r1, "r2": r2,
                     "ratio": r2 / r1, "points_touched": touched,
                     "touch_ratio": touched / (k + 1)})
    return rows


def _cmd_bench(args):
    k_list = [int(s) for s in args.k_list.split(",") if s]
    if not k_list:
        print("bench-jeep: empty --k-list", file=sys.stderr)
        return 1
    try:
        rows = bench_jeep(args.x, args.m, args.g, k_list)
    except (TransoptError, ValueError) as exc:
        print(f"bench-jeep: {exc}", file=sys.stderr)
        return 1
    for row in rows:
        print(json.dumps(row))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="transopt",
        description="Tree routing, fuel caching and polygon path solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a solver on instance files")
    p_solve.add_argument("files", nargs="+")
    p_solve.add_argument("--algo", choices=ALGOS, default=None,
                         help="solver (defaults per problem tag)")
    p_solve.add_argument("--jobs", type=int, default=1,
                         help="parallel workers for multiple files")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="run the brute-force reference")
    p_oracle.add_argument("files", nargs=1, metavar="file")
    p_oracle.set_defaults(func=_cmd_solve, algo="oracle", jobs=1)

    p_check = sub.add_parser("check", help="compare solver against oracle")
    p_check.add_argument("files", nargs=1, metavar="file")
    p_check.set_defaults(func=_cmd_solve, algo="check", jobs=1)

    p_bench = sub.add_parser("bench-jeep",
                             help="time the two equal-subdivision evaluators")
    p_bench.add_argument("--x", type=float, required=True)
    p_bench.add_argument("--m", type=float, default=1.0)
    p_bench.add_argument("--g", type=float, default=1.0)
    p_bench.add_argument("--k-list", required=True,
                         help="comma-separated subdivision sizes")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    """Run one command.  The cyclic garbage collector is paused meanwhile:
    solver data is trees and lists of numbers without reference cycles,
    which reference counting frees, so a collection would only traverse
    them.  The caller gets the collector back in the state it left it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    finally:
        if enabled:
            gc.enable()


def run():
    """The process entry point, for the ``transopt`` console script and
    ``python -m transopt.cli``: one command per process.  Once its output is
    flushed, ``os._exit`` ends the process without finalizing the
    interpreter (tearing down every module and object), which a one-shot
    process has no use for."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse: --help, bad arguments
            code = exc.code
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when its fd was closed at start
                stream.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; as the signal module's docs
        # advise, point stdout at devnull so nothing writes to it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
