"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``[criterion N] PASS``/``FAIL`` line (visible with
``pytest -s`` or in captured output on failure) in addition to the normal
pytest verdict.
"""

import functools
import math
import random
import time

from transopt.fuel import make_fuel_instance, min_initial_fuel, simulate_route
from transopt.cli import bench_jeep
from transopt.errors import InfeasibleError, InvalidPolygonError
from transopt.hampath import (
    CurveInstance,
    SimplePolygon,
    curve_ham_path,
    curve_weighted_ham_path,
    shortest_ham_path_fixed_start,
    shortest_ham_path_free_start,
)
from transopt.jeep import (
    JeepGraph,
    JeepParams,
    Subdivision,
    continuous_optimum,
    equal_subdivision,
    eval_equal_fast,
    eval_equal_naive,
    eval_subdivision_exact,
    fdiv,
    graph_min_gas_backward,
    graph_min_gas_binary_forward,
    graph_vertex_depots_continuous,
)
from transopt.oracles import (
    curve_zigzag_brute,
    fuel_brute,
    ham_brute,
    jeep_simulate_plan,
    ovrp_brute,
    single_vehicle_closed_form,
)
from transopt.ovrp import (
    OvrpInstance,
    solve_greedy,
    solve_knapsack_v1,
    solve_knapsack_v2,
    solve_leaf_interval,
)
from transopt.tree import build_rooted_tree, walk_cost

from treegen import random_tree

UNIT = JeepParams(1.0, 1.0)


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL")
                raise
            print(f"[criterion {num}] PASS")
        return wrapper
    return deco


@criterion(1)
def test_criterion_1_ovrp_cross_validation():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(200):
        tr = random_tree(rng, rng.randint(1, 8))
        for p in (1, 2, 3):
            inst = OvrpInstance(tr, p)
            ref = ovrp_brute(inst)
            assert solve_knapsack_v1(inst) == ref
            assert solve_knapsack_v2(inst) == ref
            assert solve_leaf_interval(inst).total_cost == ref
            assert solve_greedy(inst).total_cost == ref
            if p == 1:
                assert single_vehicle_closed_form(inst) == ref
                longest = max(tr.droot[v] for v in range(1, tr.n + 1))
                assert ref == 2.0 * tr.total_edge_len() - longest
    assert time.perf_counter() - t0 < 10.0


@criterion(2)
def test_criterion_2_ovrp_route_audit():
    rng = random.Random(102)
    for _ in range(120):
        tr = random_tree(rng, rng.randint(1, 9))
        for p in (1, 2, 3):
            inst = OvrpInstance(tr, p)
            for sol in (solve_greedy(inst), solve_leaf_interval(inst)):
                covered = set()
                total = 0.0
                for walk in sol.routes:
                    assert walk[0] == tr.root
                    for a, b in zip(walk, walk[1:]):
                        assert tr.parent[a] == b or tr.parent[b] == a
                    total += walk_cost(tr, walk)
                    covered.update(walk)
                assert covered == set(range(1, tr.n + 1))
                assert total == sol.total_cost


@criterion(3)
def test_criterion_3_fuel_oracle_equivalence():
    rng = random.Random(103)
    t0 = time.perf_counter()
    for _ in range(200):
        tr = random_tree(rng, rng.randint(1, 10), max_children=4)
        gas = [rng.randint(0, 9) for _ in range(tr.n)]
        inst = make_fuel_instance(tr, gas)
        c, walk = min_initial_fuel(inst)
        assert c == fuel_brute(inst)
        assert simulate_route(inst, c, walk) >= 0.0
        if c >= 1:  # integer data: the walk needs every unit of c
            assert simulate_route(inst, c - 1, walk) < 0.0
    assert time.perf_counter() - t0 < 30.0


@criterion(4)
def test_criterion_4_jeep_method1_self_consistency():
    rng = random.Random(104)
    for _ in range(300):
        m = rng.choice([1.0, 2.0, rng.uniform(0.5, 3.0)])
        g = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        params = JeepParams(m, g)
        x = rng.uniform(0.1, 2.5) * m / g
        if rng.random() < 0.5:
            d = equal_subdivision(x, rng.randint(0, 40))
        else:
            cuts = sorted(rng.uniform(0.0, x) for _ in range(rng.randint(0, 6)))
            pts = [0.0] + [c for c in cuts if 0.0 < c < x] + [x]
            pts = sorted(set(pts))
            d = Subdivision(tuple(pts))
        try:
            f, plans = eval_subdivision_exact(d, params)
        except InfeasibleError:
            continue
        assert jeep_simulate_plan(d, params, plans) == f
        cont = continuous_optimum(x, params)
        assert f >= cont - 1e-9 * max(1.0, cont)
        if x <= m / g:
            # the fold sums g*(d_{i+1} - d_i) segment by segment, so the
            # result matches g*x up to float reassociation only
            assert math.isclose(f, g * x, rel_tol=1e-12)


def _naive_with_last_l(x, k, params):
    a = params.g * x / (k + 1)
    net = params.m - 2.0 * a
    mult = 0
    last_l = 0
    for _ in range(k + 1):
        last_l = fdiv(mult * a, net)
        mult += 2 * last_l + 1
    return mult * a, last_l


@criterion(5)
def test_criterion_5_jeep_method2_properties():
    rng = random.Random(105)
    for _ in range(200):
        m = rng.choice([1.0, 2.0, rng.uniform(0.5, 3.0)])
        g = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        params = JeepParams(m, g)
        x = rng.uniform(0.1, 3.0) * m / g
        k = rng.randint(0, 300)
        a = g * x / (k + 1)
        if m - 2.0 * a <= 0:
            continue
        g_fast, touched = eval_equal_fast(x, k, params)
        g_naive, l0 = _naive_with_last_l(x, k, params)
        assert g_fast == g_naive
        assert touched <= min(l0 + 2, k + 2)
        f, _ = eval_subdivision_exact(equal_subdivision(x, k), params,
                                      collect_plans=False)
        assert g_fast >= f - 1e-12 * max(1.0, f)

    vals = []
    for k in (10, 100, 1000):
        f, plans = eval_subdivision_exact(equal_subdivision(4.0 / 3.0, k), UNIT)
        assert jeep_simulate_plan(equal_subdivision(4.0 / 3.0, k), UNIT, plans) == f
        vals.append(f)
    assert vals[0] >= vals[1] >= vals[2]
    assert 2.0 <= vals[2] <= 2.1


@criterion(6)
def test_criterion_6_jeep_benchmark_ratio_decreases():
    t0 = time.perf_counter()
    rows = bench_jeep(10.0, 1.0, 1.0, [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])
    ratios = [r["ratio"] for r in rows]
    assert ratios[0] > ratios[-1]  # middle points may jitter
    for r in rows:
        assert r["g"] >= r["f"] > 0
    assert time.perf_counter() - t0 < 60.0


@criterion(7)
def test_criterion_7_jeep_graph_methods():
    rng = random.Random(107)
    eps = 1e-7
    feasible_pairs = 0
    while feasible_pairs < 50:
        n = rng.randint(2, 8)
        edges = [(i, i + 1, rng.uniform(0.05, 0.6)) for i in range(1, n)]
        for _ in range(rng.randint(0, 4)):
            a, b = rng.sample(range(1, n + 1), 2)
            edges.append((a, b, rng.uniform(0.05, 0.8)))
        graph = JeepGraph(n, tuple(edges))
        back = graph_min_gas_backward(graph, UNIT)
        assert graph_vertex_depots_continuous(graph, UNIT, 0) == back
        if back[1] == math.inf:
            continue
        fwd = graph_min_gas_binary_forward(graph, UNIT, eps=eps)
        assert abs(fwd - back[1]) <= 10 * eps
        feasible_pairs += 1

    for _ in range(40):
        # build the path from subdivision points so edge lengths are the
        # exact same float differences the evaluator sees
        nseg = rng.randint(1, 6)
        pts = sorted({0.0} | {rng.uniform(0.05, 2.0) for _ in range(nseg)})
        d = Subdivision(tuple(pts))
        lens = [b - a for a, b in zip(pts, pts[1:])]
        graph = JeepGraph(len(pts),
                          tuple((i, i + 1, l) for i, l in enumerate(lens, 1)))
        h = graph_min_gas_backward(graph, UNIT)[1]
        try:
            f, _ = eval_subdivision_exact(d, UNIT, mode="corrected",
                                          collect_plans=False)
        except InfeasibleError:
            f = math.inf
        assert h == f


def _random_convex(rng, n):
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    if n > 1 and min(b - a for a, b in zip(angles, angles[1:])) < 0.05:
        return None
    try:
        return SimplePolygon(tuple((math.cos(a), math.sin(a)) for a in angles))
    except InvalidPolygonError:
        return None


def _random_simple(rng, n):
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    if n > 1 and min(b - a for a, b in zip(angles, angles[1:])) < 0.1:
        return None
    try:
        return SimplePolygon(tuple((r * math.cos(a), r * math.sin(a))
                                   for a, r in ((a, rng.uniform(0.3, 1.0))
                                                for a in angles)))
    except InvalidPolygonError:
        return None


@criterion(8)
def test_criterion_8_hampath_oracle_equivalence():
    rng = random.Random(108)
    t0 = time.perf_counter()

    done = 0
    while done < 100:
        poly = _random_convex(rng, rng.randint(4, 8))
        if poly is None:
            continue
        ref_free, _ = ham_brute(poly)
        got_free, _ = shortest_ham_path_free_start(poly)
        assert abs(got_free - ref_free) <= 1e-9 * max(1.0, ref_free)
        s = rng.randrange(poly.n)
        ref_fix, _ = ham_brute(poly, start=s)
        got_fix, _ = shortest_ham_path_fixed_start(poly, s)
        assert abs(got_fix - ref_fix) <= 1e-9 * max(1.0, ref_fix)
        done += 1

    done = 0
    while done < 100:
        poly = _random_simple(rng, rng.randint(4, 8))
        if poly is None:
            continue
        ref, _ = ham_brute(poly)
        got, _ = shortest_ham_path_free_start(poly)
        # the DP searches a subset of the brute force's paths, so it can only
        # tie; no path for one means no path for the other
        if ref == math.inf:
            assert got == math.inf, poly.vertices
        else:
            assert abs(got - ref) <= 1e-9 * max(1.0, ref), (poly.vertices, got, ref)
        done += 1
    assert time.perf_counter() - t0 < 60.0


@criterion(9)
def test_criterion_9_curve_variants():
    rng = random.Random(109)
    for _ in range(120):
        n = rng.randint(2, 10)
        gaps = tuple(rng.randint(1, 9) for _ in range(n))
        free = CurveInstance(gaps)
        assert curve_ham_path(free) == curve_zigzag_brute(free, "length")[0]
        s = rng.randrange(n)
        fixed = CurveInstance(gaps, start=s)
        assert curve_ham_path(fixed) == curve_zigzag_brute(fixed, "length")[0]

    for _ in range(100):
        n = rng.randint(2, 10)
        inst = CurveInstance(
            tuple(rng.randint(1, 9) for _ in range(n)),
            weights=tuple(rng.randint(0, 5) for _ in range(n)),
            start=rng.randrange(n) if rng.random() < 0.7 else None)
        assert curve_weighted_ham_path(inst)[0] == curve_zigzag_brute(inst)[0]


@criterion(10)
def test_criterion_10_complexity_smoke():
    rng = random.Random(110)

    n = 10 ** 5
    edges = [(rng.randint(max(1, i - 10), i - 1), i, rng.randint(1, 9))
             for i in range(2, n + 1)]
    tr = build_rooted_tree(n, edges)
    inst = OvrpInstance(tr, 10)
    t0 = time.perf_counter()
    solve_leaf_interval(inst)
    assert time.perf_counter() - t0 < 2.0

    n2 = 10 ** 3
    tr2 = random_tree(rng, n2)
    t0 = time.perf_counter()
    solve_knapsack_v2(OvrpInstance(tr2, 50))
    assert time.perf_counter() - t0 < 5.0

    gas = [rng.randint(0, 9) for _ in range(n)]
    finst = make_fuel_instance(tr, gas)
    t0 = time.perf_counter()
    min_initial_fuel(finst)
    assert time.perf_counter() - t0 < 5.0
