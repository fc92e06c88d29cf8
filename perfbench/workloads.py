"""Seeded instance generators and job lists for the benchmark workloads.

A workload is a list of jobs.  Each job is one ``transopt`` process: a
subcommand, its flags and one instance file.  The generators here build the
instance payloads from a seed; ``transopt`` only ever sees the files written
from them.  Jobs that share an instance file form a group, and the checker
requires the algos of a group to agree.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

SCHEMA = "transopt-instance/1"

WORKLOADS = ("cli-small", "large")


@dataclass
class Job:
    name: str
    file: str  # instance file name, relative to the work directory
    argv: list  # transopt arguments; the instance path is appended
    kind: str  # "solve" | "check" | "check-rejects" | "error" | "infeasible"
    algo: str = None  # solver the envelope must name (solve jobs)
    defect: str = None  # known defect this input triggers, if any


@dataclass
class Workload:
    name: str
    instances: dict = field(default_factory=dict)  # file -> payload or raw text
    jobs: list = field(default_factory=list)

    def add(self, file, payload):
        self.instances[file] = payload
        return file

    def solve(self, file, algo, name=None, defect=None, pass_algo=True):
        argv = ["solve", "--algo", algo] if pass_algo else ["solve"]
        self.jobs.append(Job(name or f"{algo}:{file}", file, argv, "solve",
                             algo, defect))

    def check(self, file, kind="check", defect=None):
        self.jobs.append(Job(f"{kind}:{file}", file, ["check"], kind,
                             defect=defect))

    def expect(self, file, kind, defect=None):
        self.jobs.append(Job(f"{kind}:{file}", file, ["solve"], kind,
                             defect=defect))


# ---------------------------------------------------------------- trees

def tree_edges(rng, n, shape, max_len=9):
    """Edge list [u, v, length] of an n-vertex tree rooted at vertex 1.

    ``deep``: each parent lies within 10 ids of its child (depth about n/5.5);
    ``bushy``: uniform random parent (depth about ln n);
    ``star``: every vertex hangs off the root.
    """
    edges = []
    for i in range(2, n + 1):
        if shape == "deep":
            par = rng.randint(max(1, i - 10), i - 1)
        elif shape == "bushy":
            par = rng.randint(1, i - 1)
        elif shape == "star":
            par = 1
        else:
            raise ValueError(f"unknown tree shape {shape!r}")
        edges.append([par, i, rng.randint(1, max_len)])
    return edges


def ovrp_payload(rng, n, shape, p):
    return {"schema": SCHEMA, "problem": "ovrp", "n": n,
            "edges": tree_edges(rng, n, shape), "p": p}


def fuel_payload(rng, n, shape):
    return {"schema": SCHEMA, "problem": "fuel", "n": n,
            "edges": tree_edges(rng, n, shape),
            "gas": [rng.randint(0, 9) for _ in range(n)]}


def small_tree_edges(rng, n, max_children):
    counts = {}
    edges = []
    for i in range(2, n + 1):
        while True:
            par = rng.randint(1, i - 1)
            if counts.get(par, 0) < max_children:
                break
        counts[par] = counts.get(par, 0) + 1
        edges.append([par, i, rng.randint(1, 9)])
    return edges


# ---------------------------------------------------------------- polygons and curves

def star_polygon(rng, n, r_lo):
    """Counterclockwise star-shaped polygon around the origin.

    Angles are jittered around n equal sectors, so the ring is simple by
    construction; its boundary is itself a Hamiltonian path, so every
    instance is feasible.  ``r_lo`` close to 1 keeps it nearly convex.
    """
    verts = []
    for i in range(n):
        a = 2.0 * math.pi * (i + rng.uniform(-0.3, 0.3)) / n
        r = rng.uniform(r_lo, 1.0)
        verts.append([r * math.cos(a), r * math.sin(a)])
    return verts


def hampath_payload(rng, n, r_lo, start=True):
    out = {"schema": SCHEMA, "problem": "hampath",
           "vertices": star_polygon(rng, n, r_lo)}
    if start:
        out["start"] = rng.randrange(n)
    return out


def l_shape_payload(rng):
    """Six-vertex L-shaped room whose free-start optimum avoids vertex 2."""
    s = rng.uniform(1.0, 3.0)
    dx, dy = rng.uniform(-5, 5), rng.uniform(-5, 5)
    ring = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    return {"schema": SCHEMA, "problem": "hampath",
            "vertices": [[dx + s * x, dy + s * y] for x, y in ring], "start": 2}


def curve_payload(rng, n, start=None):
    out = {"schema": SCHEMA, "problem": "curve",
           "gaps": [rng.randint(1, 9) for _ in range(n)],
           "weights": [rng.randint(0, 5) for _ in range(n)]}
    if start is not None:
        out["start"] = start
    return out


# ---------------------------------------------------------------- jeep

def jeep_graph_payload(rng, n, step_lo, step_hi, chords):
    """Connected graph: a path 1..n of short edges plus longer random chords.

    Source 1, target n.  Path edges are shorter than half a tank, so every
    instance is feasible; the source-target distance is well beyond one tank,
    so the answers need multi-trip caching.
    """
    edges = [[i, i + 1, rng.uniform(step_lo, step_hi)] for i in range(1, n)]
    for _ in range(chords):
        a, b = sorted(rng.sample(range(1, n + 1), 2))
        edges.append([a, b, (b - a) * rng.uniform(step_hi, 2.0 * step_hi)])
    return {"schema": SCHEMA, "problem": "jeep-graph", "n": n, "edges": edges,
            "m": 1.0, "g": 1.0}


def odd_harmonic_gas(x, m, g):
    """Least gas to cross x miles with caches anywhere (odd-harmonic series).

    Computed here independently of the solver; used to set reachable
    threshold budgets and as a lower bound in the checker.
    """
    if x <= m / g:
        return g * x
    target, s, t = g * x / m, 0.0, 0
    while True:
        t += 1
        prev = s
        s += 1.0 / (2 * t - 1)
        if s >= target:
            return (t - 1) * m + g * (2 * t - 1) * (x - (m / g) * prev)


def threshold_payload(rng, x, slack_exp):
    budget = odd_harmonic_gas(x, 1.0, 1.0) * (1.0 + 10.0 ** -slack_exp)
    return {"schema": SCHEMA, "problem": "jeep", "x": x, "m": 1.0, "g": 1.0,
            "budget": budget}


# ---------------------------------------------------------------- workloads

def cli_small(seed):
    """About a hundred tiny instances: every problem tag and every algo,
    a quarter through ``check``, plus error, infeasible and known-defect
    inputs.  Sizes stay inside the oracles' limits."""
    rng = random.Random(f"cli-small:{seed}")
    w = Workload("cli-small")
    ovrp_algos = ("ovrp-greedy", "ovrp-dp1", "ovrp-dp2", "ovrp-interval")
    graph_algos = ("jeep-graph-backward", "jeep-graph-binary",
                   "jeep-graph-free", "jeep-graph-vertex")

    for t in range(5):
        n = rng.randint(2, 12)
        f = w.add(f"ovrp{t}.json", {"schema": SCHEMA, "problem": "ovrp", "n": n,
                                     "edges": small_tree_edges(rng, n, 4),
                                     "p": rng.randint(1, 4)})
        for algo in ovrp_algos:
            w.solve(f, algo)
    for t in range(6):
        n = rng.randint(2, 8)
        f = w.add(f"ovrpc{t}.json", {"schema": SCHEMA, "problem": "ovrp", "n": n,
                                      "edges": small_tree_edges(rng, n, 4),
                                      "p": rng.randint(1, 3)})
        w.check(f)

    for t in range(12):
        n = rng.randint(2, 10)
        f = w.add(f"fuel{t}.json", {"schema": SCHEMA, "problem": "fuel", "n": n,
                                     "edges": small_tree_edges(rng, n, 4),
                                     "gas": [rng.randint(0, 9) for _ in range(n)]})
        if t < 6:
            w.solve(f, "fuel")
        else:
            w.check(f)

    for t in range(4):
        f = w.add(f"jeep{t}.json", {"schema": SCHEMA, "problem": "jeep",
                                     "x": rng.uniform(0.5, 2.5),
                                     "k": rng.randint(10, 100),
                                     "m": 1.0, "g": 1.0})
        w.solve(f, "jeep-exact")
        w.solve(f, "jeep-fast")
    for t in range(6):
        # segments shorter than half a tank keep every subdivision feasible
        pts = [0.0]
        for _ in range(rng.randint(1, 8)):
            pts.append(round(pts[-1] + rng.uniform(0.05, 0.45), 6))
        f = w.add(f"jeepp{t}.json", {"schema": SCHEMA, "problem": "jeep",
                                      "points": pts, "m": 1.0, "g": 1.0})
        if t < 2:
            w.solve(f, "jeep-exact")
        else:
            w.check(f)
    for t in range(2):
        f = w.add(f"thr{t}.json",
                  threshold_payload(rng, rng.uniform(1.2, 2.0), rng.uniform(1, 2)))
        w.solve(f, "jeep-threshold")

    for t in range(3):
        f = w.add(f"graph{t}.json",
                  jeep_graph_payload(rng, rng.randint(3, 8), 0.05, 0.3, 2))
        for algo in graph_algos:
            w.solve(f, algo)

    for t in range(4):
        f = w.add(f"poly{t}.json", hampath_payload(rng, rng.randint(4, 8), 0.4))
        w.solve(f, "hampath-free")
        w.solve(f, "hampath-fixed")
    for t in range(5):
        # the oracle enumerates (n-1)! orders per start: fixed n keeps its cost
        # the same on every seed
        fixed = t % 2 == 0
        f = w.add(f"polyc{t}.json",
                  hampath_payload(rng, 8 if fixed else 6, 0.4, start=fixed))
        w.check(f)

    for t in range(4):
        n = rng.randint(2, 14)
        start = rng.randrange(n) if t % 2 else None
        f = w.add(f"curve{t}.json", curve_payload(rng, n, start))
        w.solve(f, "curve")
        w.solve(f, "curve-weighted")
    for t in range(5):
        n = rng.randint(2, 12)
        f = w.add(f"curvec{t}.json",
                  curve_payload(rng, n, rng.randrange(n) if t % 2 else None))
        w.check(f)

    # inputs the CLI must reject: exit 1 with an error envelope
    bad_tree = small_tree_edges(rng, 5, 4) + [[2, 3, 1]]
    w.expect(w.add("err-cycle.json", {"schema": SCHEMA, "problem": "ovrp", "n": 5,
                                      "edges": bad_tree, "p": 1}), "error")
    w.expect(w.add("err-tag.json", {"schema": SCHEMA, "problem": "tsp", "n": 3}),
             "error")
    w.expect(w.add("err-json.txt", '{"schema": "transopt-instance/1", "problem": '),
             "error")
    w.expect(w.add("err-field.json", {"schema": SCHEMA, "problem": "fuel", "n": 3,
                                      "edges": [[1, 2, 1], [1, 3, 1]]}), "error")
    w.jobs.append(Job("error:algo-mismatch", "ovrp0.json",
                      ["solve", "--algo", "fuel"], "error"))
    # infeasible inputs: exit 2 with an infeasible envelope
    w.expect(w.add("inf-jeep.json", {"schema": SCHEMA, "problem": "jeep",
                                     "x": rng.uniform(2.0, 3.0), "k": 0,
                                     "m": 1.0, "g": 1.0}), "infeasible")
    w.expect(w.add("inf-graph.json", {"schema": SCHEMA, "problem": "jeep-graph",
                                      "n": 2, "edges": [[1, 2, rng.uniform(1.5, 3.0)]],
                                      "m": 1.0, "g": 1.0}), "infeasible")
    w.jobs.append(Job("infeasible:threshold", w.add("inf-thr.json", {
        "schema": SCHEMA, "problem": "jeep", "x": 2.0, "m": 1.0, "g": 1.0,
        "budget": odd_harmonic_gas(2.0, 1.0, 1.0) * 0.99, "ct": 2048}),
        ["solve", "--algo", "jeep-threshold"], "infeasible"))

    # known defects, kept so that fail_frac records them
    f = w.add("defect-start.json", l_shape_payload(rng))
    w.solve(f, "hampath-fixed", name="defect:hampath-start-ignored",
            defect="solve without --algo ignores the hampath start field",
            pass_algo=False)
    w.expect(w.add("defect-vertices.json", {"schema": SCHEMA, "problem": "hampath",
                                            "vertices": [[0, 0], [1]]}),
             "error", defect="short vertex pair crashes with IndexError")
    w.expect(w.add("defect-weights.json", {"schema": SCHEMA, "problem": "curve",
                                           "gaps": [1, 2, 3], "weights": 5}),
             "error", defect="scalar weights crash with TypeError")
    w.check(w.add("defect-check.json", {"schema": SCHEMA, "problem": "jeep",
                                        "x": rng.uniform(2.0, 3.0), "k": 0,
                                        "m": 1.0, "g": 1.0}),
            "check-rejects",
            defect="check prints its error envelope without the schema field")
    nan_tree = small_tree_edges(rng, 6, 4)
    nan_tree[rng.randrange(5)][2] = math.nan
    w.expect(w.add("defect-nan.json", {"schema": SCHEMA, "problem": "ovrp", "n": 6,
                                       "edges": nan_tree, "p": 2}),
             "error", defect="NaN edge length returns status ok with a NaN objective")
    return w


def add_trees(w, rng):
    """Trees of n = 2e3..1e5 in deep, bushy and star shapes under the ovrp
    and fuel solvers; each ovrp tree runs under at least two algos so their
    objectives cross-check."""
    for shape, n, algos in (
            ("deep", 10_000, ("ovrp-interval", "ovrp-greedy", "ovrp-dp2")),
            ("star", 2_001, ("ovrp-interval", "ovrp-greedy", "ovrp-dp2")),
            ("deep", 30_000, ("ovrp-interval", "ovrp-greedy")),
            ("bushy", 30_000, ("ovrp-interval", "ovrp-greedy"))):
        f = w.add(f"ovrp-{shape}-{n}.json", ovrp_payload(rng, n, shape, 10))
        for algo in algos:
            w.solve(f, algo)
    for shape, n in (("deep", 30_000), ("bushy", 10_000), ("bushy", 100_000),
                     ("star", 2_001)):
        f = w.add(f"fuel-{shape}-{n}.json", fuel_payload(rng, n, shape))
        w.solve(f, "fuel")


def add_paths_and_jeeps(w, rng):
    """Polygons of n ~ 100-120, a weighted curve of n = 800, equal-subdivision
    jeep up to k = 1e6, a reachable threshold search and a 500-vertex jeep
    graph under all four graph algos."""
    for t, n in enumerate((105, 115)):
        f = w.add(f"poly{t}-{n}.json", hampath_payload(rng, n, 0.85))
        w.solve(f, "hampath-free")
        w.solve(f, "hampath-fixed")
    w.solve(w.add("curve-800.json", curve_payload(rng, 800, rng.randrange(800))),
            "curve-weighted")
    # k = 1e6 runs only under jeep-fast: printing its 1e6 plans takes jeep-exact
    # about 9 s, longer than the rest of the list together
    f = w.add("jeep-1000000.json", {"schema": SCHEMA, "problem": "jeep",
                                    "x": rng.uniform(9.0, 9.01), "k": 1_000_000,
                                    "m": 1.0, "g": 1.0})
    w.solve(f, "jeep-fast")
    f = w.add("jeep-100000.json", {"schema": SCHEMA, "problem": "jeep",
                                   "x": rng.uniform(9.0, 9.01), "k": 100_000,
                                   "m": 1.0, "g": 1.0})
    w.solve(f, "jeep-exact")
    w.solve(f, "jeep-fast")
    w.solve(w.add("threshold.json",
                  threshold_payload(rng, rng.uniform(2.5, 2.51), 3.2)),
            "jeep-threshold")
    f = w.add("graph-500.json", jeep_graph_payload(rng, 500, 0.002, 0.006, 40))
    for algo in ("jeep-graph-backward", "jeep-graph-binary",
                 "jeep-graph-free", "jeep-graph-vertex"):
        w.solve(f, algo)


def large(seed):
    """The tree list, where tree build, the ovrp and fuel solvers and MB-sized
    JSON dominate, then the path and jeep list, where pure-Python loops
    dominate tiny inputs.  One workload rather than two: for a fixed total
    benchmark time, fewer workloads give each run longer to average out drift
    in machine speed.  Sizes are fixed, so every seed asks for the same amount
    of work."""
    rng = random.Random(f"large:{seed}")
    w = Workload("large")
    add_trees(w, rng)
    add_paths_and_jeeps(w, rng)
    return w


BUILDERS = {"cli-small": cli_small, "large": large}


def build(name, seed):
    return BUILDERS[name](seed)


def write_instances(workload, directory):
    """Write every instance file; returns the total bytes written."""
    total = 0
    for file, payload in workload.instances.items():
        text = payload if isinstance(payload, str) else json.dumps(payload)
        data = text.encode()
        (directory / file).write_bytes(data)
        total += len(data)
    return total
