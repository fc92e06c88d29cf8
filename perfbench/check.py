"""Output checker: every envelope either passes or counts as a failure.

An envelope must be exactly one line of standard JSON (``NaN`` and
``Infinity`` are rejected), match the result schema and carry the exit code
its status implies.  Solutions are then replayed with code written here
(route recosting, walk adjacency, path lengths, weighted arrival costs), or
compared with ``transopt.oracles`` within their size limits, and the algos
that ran on one instance file must agree.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

from transopt import oracles
from transopt.errors import TransoptError
from transopt.fuel import make_fuel_instance, simulate_route
from transopt.hampath import CurveInstance, SimplePolygon
from transopt.jeep import (JeepParams, SegmentPlan, Subdivision, equal_subdivision,
                           eval_equal_naive)
from transopt.ovrp import OvrpInstance
from transopt.tree import build_rooted_tree

from workloads import odd_harmonic_gas

RESULT_SCHEMA = "transopt-result/1"
REL_TOL = 1e-9  # replayed lengths and costs against the printed objective
CHECK_TOL = 1e-6  # the CLI's own default solver-vs-oracle tolerance
BINARY_TOL = 1e-5  # jeep-graph-binary stops within 1e-6 of the backward answer
STATUS_CODE = {"ok": 0, "error": 1, "infeasible": 2}
_WALL_TIME = re.compile(rb'"wall_time": [^,}]*')


class CheckFailure(Exception):
    pass


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_strict(text):
    return json.loads(text, parse_constant=_reject_constant)


def _expect(cond, reason):
    if not cond:
        raise CheckFailure(reason)


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def read_envelope(raw):
    """The single JSON object printed by one process."""
    text = raw.decode("utf-8", errors="replace").strip()
    _expect(text, "no envelope printed")
    _expect("\n" not in text, "more than one output line")
    try:
        env = parse_strict(text)
    except ValueError as exc:
        raise CheckFailure(f"envelope is not standard JSON: {exc}")
    _expect(isinstance(env, dict), "envelope is not a JSON object")
    return env


def check_result_envelope(env, rc):
    _expect(env.get("schema") == RESULT_SCHEMA, f"schema is {env.get('schema')!r}")
    status = env.get("status")
    _expect(status in STATUS_CODE, f"unknown status {status!r}")
    _expect(isinstance(env.get("solver"), str), "solver is not a string")
    _expect(rc == STATUS_CODE[status], f"exit code {rc} with status {status!r}")
    if status == "ok":
        _expect(_finite(env.get("objective")), f"objective {env.get('objective')!r}")
    else:
        diag = env.get("diagnostics")
        _expect(isinstance(diag, dict) and isinstance(diag.get("reason"), str),
                "no diagnostics.reason")


# ------------------------------------------------------------ instances

class TreeView:
    """Adjacency and edge lengths of a tree payload, built independently."""

    def __init__(self, payload):
        self.n = payload["n"]
        self.edges = [tuple(e) for e in payload["edges"]]
        self.length = {(min(u, v), max(u, v)): float(w) for u, v, w in self.edges}

    def step(self, a, b):
        key = (min(a, b), max(a, b))
        _expect(key in self.length, f"move {a}->{b} is not a tree edge")
        return self.length[key]

    def library_tree(self):
        return build_rooted_tree(self.n, self.edges)


def check_routes(view, payload, env):
    routes = env.get("solution", {}).get("routes")
    _expect(isinstance(routes, list) and routes, "no routes")
    _expect(len(routes) <= payload["p"], f"{len(routes)} routes for p={payload['p']}")
    covered, total = set(), 0.0
    for walk in routes:
        _expect(walk and walk[0] == 1, "route does not start at the root")
        covered.update(walk)
        total += sum(view.step(a, b) for a, b in zip(walk, walk[1:]))
    _expect(covered == set(range(1, view.n + 1)), "routes miss a vertex")
    _expect(_close(total, env["objective"]),
            f"routes cost {total}, objective {env['objective']}")


def check_fuel(view, payload, env):
    c = env["objective"]
    walk = env.get("solution", {}).get("walk")
    n = view.n
    _expect(isinstance(walk, list) and len(walk) == 2 * n - 1,
            "walk does not traverse every edge twice")
    _expect(walk[0] == 1 and walk[-1] == 1, "walk does not start and end at the root")
    for a, b in zip(walk, walk[1:]):
        view.step(a, b)
    _expect(set(walk) == set(range(1, n + 1)), "walk misses a vertex")
    inst = make_fuel_instance(view.library_tree(), payload["gas"])
    _expect(simulate_route(inst, c, walk) >= 0.0, f"tank runs dry at C={c}")
    if float(c).is_integer() and c >= 1:
        _expect(simulate_route(inst, c - 1, walk) < 0.0,
                f"walk also completes at C-1={c - 1}")
    return inst


def check_polygon(payload, env, fixed):
    verts = payload["vertices"]
    path = env.get("solution", {}).get("path")
    n = len(verts)
    _expect(isinstance(path, list) and sorted(path) == list(range(n)),
            "path is not a permutation of the vertices")
    if fixed:
        _expect(path[0] == payload["start"], f"path starts at {path[0]}, "
                f"not at start {payload['start']}")
    length = sum(math.hypot(verts[a][0] - verts[b][0], verts[a][1] - verts[b][1])
                 for a, b in zip(path, path[1:]))
    _expect(_close(length, env["objective"]),
            f"path length {length}, objective {env['objective']}")


def curve_weighted_cost(payload, path):
    gaps, weights = payload["gaps"], payload["weights"]
    pre = [0.0]
    for g in gaps:
        pre.append(pre[-1] + g)
    total = pre[-1]
    t = cost = 0.0
    for a, b in zip(path, path[1:]):
        fwd = pre[b] - pre[a] if a <= b else total - (pre[a] - pre[b])
        t += min(fwd, total - fwd)
        cost += weights[b] * t
    return cost


def check_curve_path(payload, env):
    path = env.get("solution", {}).get("path")
    n = len(payload["gaps"])
    _expect(isinstance(path, list) and sorted(path) == list(range(n)),
            "path is not a permutation of the vertices")
    if "start" in payload:
        _expect(path[0] == payload["start"], "path ignores the start vertex")
    cost = curve_weighted_cost(payload, path)
    _expect(_close(cost, env["objective"]),
            f"replayed cost {cost}, objective {env['objective']}")


def jeep_subdivision(payload):
    if "points" in payload:
        return Subdivision(tuple(float(p) for p in payload["points"]))
    return equal_subdivision(float(payload["x"]), payload["k"])


def jeep_params(payload):
    return JeepParams(float(payload["m"]), float(payload["g"]))


# ------------------------------------------------------------ per-job checks

class Checker:
    """Verdicts for one workload; identical outputs are judged once."""

    def __init__(self, workload, small):
        self.workload = workload
        self.small = small  # compare with the brute-force oracles
        self._views = {}
        self._memo = {}

    def _view(self, file):
        if file not in self._views:
            self._views[file] = TreeView(self.workload.instances[file])
        return self._views[file]

    def judge(self, j, rc, raw):
        """(failure reason or None, objective or None) for one job run."""
        key = (j, rc, hashlib.sha1(_WALL_TIME.sub(b"", raw)).hexdigest())
        if key not in self._memo:
            env = None
            try:
                env = read_envelope(raw)
                self._check_job(self.workload.jobs[j], rc, env)
                reason = None
            except CheckFailure as exc:
                reason = str(exc)
            except (KeyError, TypeError, ValueError, IndexError, AttributeError,
                    TransoptError) as exc:
                reason = f"malformed solution: {type(exc).__name__}: {exc}"
            ok = reason is None and isinstance(env, dict)
            self._memo[key] = (reason, env.get("objective") if ok else None)
        return self._memo[key]

    def _check_job(self, job, rc, env):
        if job.kind == "check":
            self._check_check(rc, env)
            return
        check_result_envelope(env, rc)
        if job.kind == "check-rejects":
            _expect(env["status"] != "ok", "check accepted an infeasible instance")
            return
        if job.kind in ("error", "infeasible"):
            want = "error" if job.kind == "error" else "infeasible"
            _expect(env["status"] == want, f"status {env['status']!r}, want {want!r}")
            return
        _expect(env["status"] == "ok", f"status {env['status']!r}: "
                f"{env.get('diagnostics', {}).get('reason')}")
        _expect(env["solver"] == job.algo, f"solver {env['solver']!r}, "
                f"want {job.algo!r}")
        payload = self.workload.instances[job.file]
        getattr(self, "_solve_" + payload["problem"].replace("-", "_"))(
            job, payload, env)

    def _check_check(self, rc, env):
        _expect(env.get("schema") == RESULT_SCHEMA, "check envelope has no schema")
        _expect(env.get("status") == "ok", f"check status {env.get('status')!r}")
        _expect(env.get("agreement") is True, "solver and oracle disagree")
        s, o = env.get("solver_objective"), env.get("oracle_objective")
        _expect(_finite(s) and _finite(o), "non-finite check objectives")
        _expect(_close(s, o, CHECK_TOL), f"solver {s} vs oracle {o}")
        _expect(rc == 0, f"exit code {rc} on agreement")

    def _solve_ovrp(self, job, payload, env):
        view = self._view(job.file)
        if job.algo in ("ovrp-interval", "ovrp-greedy"):
            check_routes(view, payload, env)
        if self.small:
            ref = oracles.ovrp_brute(OvrpInstance(view.library_tree(), payload["p"]))
            _expect(_close(ref, env["objective"]), f"oracle {ref}")

    def _solve_fuel(self, job, payload, env):
        inst = check_fuel(self._view(job.file), payload, env)
        if self.small:
            ref = oracles.fuel_brute(inst)
            _expect(ref == env["objective"], f"oracle {ref}")

    def _solve_jeep(self, job, payload, env):
        params = jeep_params(payload)
        obj = env["objective"]
        if job.algo == "jeep-exact":
            d = jeep_subdivision(payload)
            plans = env.get("solution", {}).get("plans")
            _expect(isinstance(plans, list) and len(plans) == len(d.points) - 1,
                    "one plan per segment expected")
            replay = oracles.jeep_simulate_plan(
                d, params, [SegmentPlan(rt, q) for rt, q in plans])
            _expect(_close(replay, obj), f"plan replays to {replay}")
        elif job.algo == "jeep-fast":
            ref = eval_equal_naive(float(payload["x"]), payload["k"], params)
            _expect(obj == ref, f"naive loop gives {ref}")
            touched = env.get("diagnostics", {}).get("points_touched")
            _expect(isinstance(touched, int) and 1 <= touched <= payload["k"] + 2,
                    f"points_touched {touched!r}")
        else:  # jeep-threshold
            k = env.get("solution", {}).get("k")
            _expect(isinstance(k, int) and k >= 0, f"k {k!r}")
            _expect(obj <= payload["budget"], f"{obj} exceeds the budget")
        if "x" in payload:
            low = odd_harmonic_gas(float(payload["x"]), params.m, params.g)
            _expect(obj >= low * (1 - REL_TOL), f"below the continuous bound {low}")

    def _solve_jeep_graph(self, job, payload, env):
        _expect(env["objective"] >= 0.0, "negative gas")

    def _solve_hampath(self, job, payload, env):
        fixed = job.algo == "hampath-fixed"
        check_polygon(payload, env, fixed)
        if self.small:
            start = payload["start"] if fixed else None
            ref, _ = oracles.ham_brute(SimplePolygon(
                tuple(tuple(v) for v in payload["vertices"])), start)
            _expect(_close(ref, env["objective"]), f"oracle {ref}")

    def _solve_curve(self, job, payload, env):
        if job.algo == "curve-weighted":
            check_curve_path(payload, env)
        if self.small:
            inst = CurveInstance(tuple(payload["gaps"]), tuple(payload["weights"]),
                                 payload.get("start"))
            objective = "weighted" if job.algo == "curve-weighted" else "length"
            ref, _ = oracles.curve_zigzag_brute(inst, objective)
            _expect(_close(ref, env["objective"]), f"oracle {ref}")

    # -------------------------------------------------------- one pass

    def check_pass(self, results):
        """Failure reason (or None) per job for one pass of (rc, stdout) pairs."""
        jobs = self.workload.jobs
        reasons, objective = [], {}
        for j, (rc, raw) in enumerate(results):
            reason, obj = self.judge(j, rc, raw)
            reasons.append(reason)
            if reason is None and jobs[j].kind == "solve":
                objective[j] = obj
        groups = {}
        for j in objective:
            groups.setdefault(jobs[j].file, {})[jobs[j].algo] = j
        for file, by_algo in groups.items():
            bad = group_disagreement({a: objective[j] for a, j in by_algo.items()})
            if bad:
                for j in by_algo.values():
                    reasons[j] = bad
        return reasons


def group_disagreement(obj):
    """Reason the algos that ran on one instance disagree, or None."""
    ovrp = [v for a, v in obj.items() if a.startswith("ovrp-")]
    if len(set(ovrp)) > 1:
        return f"ovrp algos disagree: {sorted(obj.items())}"
    if "jeep-exact" in obj and "jeep-fast" in obj:
        if obj["jeep-fast"] < obj["jeep-exact"] * (1 - REL_TOL):
            return "jeep-fast below jeep-exact"
    back = obj.get("jeep-graph-backward")
    if back is not None:
        if "jeep-graph-vertex" in obj and obj["jeep-graph-vertex"] != back:
            return "jeep-graph vertex and backward differ"
        if "jeep-graph-binary" in obj and \
                abs(obj["jeep-graph-binary"] - back) > BINARY_TOL * max(1.0, back):
            return "jeep-graph binary and backward differ"
        if "jeep-graph-free" in obj and obj["jeep-graph-free"] > back * (1 + REL_TOL):
            return "jeep-graph free depots cost more than vertex depots"
    if "hampath-fixed" in obj and "hampath-free" in obj:
        if obj["hampath-fixed"] < obj["hampath-free"] * (1 - REL_TOL):
            return "fixed-start path shorter than free-start path"
    return None
