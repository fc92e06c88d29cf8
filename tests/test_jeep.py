import hashlib
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transopt import jeep
from transopt.cli import main
from transopt.errors import BudgetUnreachableError, InfeasibleError
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
    graph_forward_feasible,
    graph_free_depots,
    graph_min_gas_backward,
    graph_min_gas_binary_forward,
    graph_vertex_depots_continuous,
    segment_step_exact,
    threshold_search,
)
from transopt.oracles import jeep_simulate_plan

UNIT = JeepParams(1.0, 1.0)


def test_params_and_subdivision_validation():
    with pytest.raises(ValueError):
        JeepParams(0.0, 1.0)
    with pytest.raises(ValueError):
        JeepParams(1.0, -1.0)
    with pytest.raises(ValueError):
        Subdivision((0.0,))
    with pytest.raises(ValueError):
        Subdivision((0.5, 1.0))
    with pytest.raises(ValueError):
        Subdivision((0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        equal_subdivision(-1.0, 0)
    with pytest.raises(ValueError):
        equal_subdivision(1.0, -1)


def test_equal_subdivision_endpoint_exact():
    d = equal_subdivision(4.0 / 3.0, 7)
    assert d.points[0] == 0.0
    assert d.points[-1] == 4.0 / 3.0
    assert d.k == 7 and d.x == 4.0 / 3.0


def test_fdiv_absorbs_representation_error():
    assert fdiv(0.6, 0.2) == 3  # 0.6/0.2 is 2.9999... in floats
    assert fdiv(1.0, 0.3) == 3
    assert fdiv(0.59, 0.2) == 2


def test_segment_step_one_way():
    f, plan = segment_step_exact(0.0, 1.0, JeepParams(2.0, 1.0))
    assert f == 1.0 and plan.rt == 0 and plan.q == 0.0


def test_segment_step_round_trips():
    f, plan = segment_step_exact(1.0, 1.0 / 3.0, UNIT)
    assert abs(f - 8.0 / 3.0) < 1e-12
    assert plan.rt == 2


def test_segment_step_infeasible():
    with pytest.raises(InfeasibleError):
        segment_step_exact(1.0, 1.0, UNIT)
    with pytest.raises(ValueError):
        segment_step_exact(1.0, 0.25, UNIT, mode="bogus")


def test_segment_step_corrected_no_worse():
    rng = random.Random(31)
    for _ in range(300):
        m = rng.uniform(0.5, 3.0)
        g = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.01, 0.45) * m / g
        f_next = rng.uniform(0.0, 5.0 * m)
        params = JeepParams(m, g)
        f1, _ = segment_step_exact(f_next, c, params, "faithful")
        f2, _ = segment_step_exact(f_next, c, params, "corrected")
        assert f2 <= f1 + 1e-12


@given(
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.floats(0.01, 0.45),
)
@settings(max_examples=200)
def test_segment_step_monotone_in_requirement(fa, fb, frac):
    lo, hi = sorted((fa, fb))
    c = frac  # m = g = 1, so any c < 0.5 admits round trips
    assert segment_step_exact(lo, c, UNIT)[0] <= segment_step_exact(hi, c, UNIT)[0]


def test_eval_trivial_crossing():
    f, plans = eval_subdivision_exact(equal_subdivision(1.0, 4), UNIT)
    assert f == 1.0
    assert all(p.rt == 0 for p in plans)


def test_eval_known_two_segments():
    d = Subdivision((0.0, 1.0 / 3.0, 4.0 / 3.0))
    f, plans = eval_subdivision_exact(d, UNIT)
    assert abs(f - 8.0 / 3.0) < 1e-12
    assert len(plans) == 2
    assert jeep_simulate_plan(d, UNIT, plans) == f


def test_eval_collect_plans_off():
    f, plans = eval_subdivision_exact(equal_subdivision(1.0, 4), UNIT,
                                      collect_plans=False)
    assert f == 1.0 and plans is None


def test_eval_refinement_anchor_values():
    f10, _ = eval_subdivision_exact(equal_subdivision(4.0 / 3.0, 10), UNIT)
    f100, _ = eval_subdivision_exact(equal_subdivision(4.0 / 3.0, 100), UNIT)
    f1000, _ = eval_subdivision_exact(equal_subdivision(4.0 / 3.0, 1000), UNIT)
    assert f10 >= f100 >= f1000
    assert 2.0 <= f1000 <= 2.1


def test_fast_matches_naive_known():
    g, touched = eval_equal_fast(1.0, 4, UNIT)
    assert g == eval_equal_naive(1.0, 4, UNIT) == 2.2
    assert touched == 4
    g0, touched0 = eval_equal_fast(0.2, 0, UNIT)
    assert g0 == 0.2 and touched0 <= 2


def test_equal_eval_infeasible_when_too_coarse():
    with pytest.raises(InfeasibleError):
        eval_equal_naive(2.0, 0, UNIT)
    with pytest.raises(InfeasibleError):
        eval_equal_fast(2.0, 0, UNIT)


def test_fast_bit_for_bit_randomized():
    rng = random.Random(33)
    for _ in range(120):
        m = rng.choice([1.0, 2.0, rng.uniform(0.5, 3.0)])
        g = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        params = JeepParams(m, g)
        x = rng.uniform(0.1, 3.0) * m / g
        k = rng.randint(0, 400)
        a = g * x / (k + 1)
        if m - 2.0 * a <= 0:
            continue
        fast, touched = eval_equal_fast(x, k, params)
        assert fast == eval_equal_naive(x, k, params)
        assert touched <= k + 2


def test_fast_bit_for_bit_with_single_index_runs():
    # x in [5, 9.5]: past the first few round-trip counts every run holds
    # one index, the regime the direct single step serves
    rng = random.Random(36)
    for _ in range(14):
        m = rng.choice([1.0, 2.0, rng.uniform(0.5, 3.0)])
        g = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        x = rng.uniform(5.0, 9.5) * m / g
        k = int(10 ** rng.uniform(2, 5))
        params = JeepParams(m, g)
        if m - 2.0 * g * x / (k + 1) <= 0:
            continue
        fast, touched = eval_equal_fast(x, k, params)
        assert fast == eval_equal_naive(x, k, params), (m, g, x, k)
        assert touched <= k + 2


def test_fast_pinned_value_and_touched_count():
    # the CLI reports points_touched, so a change to the count shows here
    assert eval_equal_fast(9.005, 100_000, UNIT) == (9324014.85920336, 46784)


def test_fast_huge_tank_gives_one_ok_envelope(tmp_path, capsys):
    # room / denom overflows to inf in the run's closed form: one run
    # reaches index 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema": "transopt-instance/1", "problem": "jeep",
                                "x": 1.0, "k": 4, "m": 1e308, "g": 1.0}))
    for algo in ("jeep-fast", "jeep-exact"):
        assert main(["solve", "--algo", algo, str(path)]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        env = json.loads(line)
        assert (env["status"], env["objective"]) == ("ok", 1.0)
    assert eval_equal_fast(1.0, 4, JeepParams(1e308, 1.0)) == (1.0, 2)
    for k in (0, 1, 4, 1000):
        assert eval_equal_fast(1.0, k, JeepParams(1e308, 1.0))[0] == \
            eval_equal_naive(1.0, k, JeepParams(1e308, 1.0))


def _envelopes(tmp_path, capsys, payload, argvs):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(payload, schema="transopt-instance/1")))
    out = []
    for argv in argvs:
        code = main(argv + [str(path)])
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        assert captured.err == ""
        out.append((code, json.loads(line)))
    return out


def test_fast_gas_per_segment_underflowing_to_0_gives_exact_answer(tmp_path,
                                                                  capsys):
    # a = g x/(k+1) rounds to 0, so the closed form's divisor (2l+1) a is 0:
    # like an infinite quotient, the run reaches index 1
    payload = {"problem": "jeep", "x": 1.5, "k": 4, "m": 1, "g": 5e-324}
    for code, env in _envelopes(tmp_path, capsys, payload, [
            ["solve", "--algo", "jeep-fast"], ["solve", "--algo", "jeep-exact"]]):
        assert code == 0 and (env["status"], env["objective"]) == ("ok", 0.0)
    params = JeepParams(1.0, 5e-324)
    assert eval_equal_fast(1.5, 4, params) == (0.0, 2)
    assert eval_equal_naive(1.5, 4, params) == 0.0


@pytest.mark.parametrize("payload", [
    {"problem": "jeep", "x": 5e-324, "k": 1, "m": 1e308, "g": 1},
    {"problem": "jeep", "x": 1.0, "k": 10 ** 400, "m": 1, "g": 1},
], ids=["spacing-underflows", "k-past-float-range"])
def test_a_spacing_that_is_not_a_positive_float_is_one_error(tmp_path, capsys,
                                                            payload):
    results = _envelopes(tmp_path, capsys, payload, [
        ["solve", "--algo", "jeep-exact"], ["solve", "--algo", "jeep-fast"],
        ["oracle"], ["check"]])
    for code, env in results:
        assert code == 1 and env["status"] == "error"
        assert env["diagnostics"]["reason"] == \
            "point spacing x/(k+1) underflows to 0"


def _runs_by_binsearch(x, k, params):
    """Method 2 with index skipping, each run's first index found by
    bisection on the division the naive loop makes: the reference for the
    closed form in ``eval_equal_fast``.  Returns (value, points touched)
    and the runs as (first index, last index) pairs."""
    a = params.g * x / (k + 1)
    net = params.m - 2.0 * a
    mult, idx, runs = 0, k + 1, []
    while idx > 0:
        l = fdiv(mult * a, net)
        step = 2 * l + 1
        lo, hi = 1, idx  # the count only grows as the index falls
        while lo < hi:
            mid = (lo + hi) // 2
            if fdiv((mult + (idx - mid) * step) * a, net) == l:
                hi = mid
            else:
                lo = mid + 1
        runs.append((lo, idx))
        mult += (idx - lo + 1) * step
        idx = lo - 1
    return (mult * a, len(runs) + 1), runs


def test_first_index_direct_equals_binsearch(monkeypatch):
    calls = [0]

    def counted(num, den):
        calls[0] += 1
        return fdiv(num, den)

    monkeypatch.setattr(jeep, "fdiv", counted)
    rng = random.Random(34)
    skipped = 0
    for t in range(300):
        m = rng.choice([1.0, 2.0, 0.75])
        g = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        k = rng.randint(0, 3000)
        x = rng.uniform(0.1, 6.0) * m / g
        if t % 3 == 0:  # a dyadic spacing a: room falls on exact multiples
            j = rng.randint(3, 9)
            g, k = 1.0, rng.randint(0, min(3000, int(5 * m * 2 ** j)))
            x = (k + 1) / 2 ** j
        params = JeepParams(m, g)
        if m - 2.0 * g * x / (k + 1) <= 0:
            continue
        calls[0] = 0
        fast = eval_equal_fast(x, k, params)
        expected, runs = _runs_by_binsearch(x, k, params)
        assert fast == expected, (m, g, x, k)
        # a one-index run divides once; a longer one divides for the next
        # count, the closed form, one check on each side of the first index
        # (none below index 1) and the count after the run: no nudge ran
        assert calls[0] == sum(1 if u == v else 4 + (u > 1) for u, v in runs), \
            (m, g, x, k)
        skipped += fast[1] < k + 1
    assert skipped > 200  # most cases have runs the closed form jumps


def test_continuous_examples():
    assert continuous_optimum(1.0, UNIT) == 1.0
    assert continuous_optimum(0.3, UNIT) == 0.3
    assert abs(continuous_optimum(4.0 / 3.0, UNIT) - 2.0) < 1e-12
    # far beyond the exact-scan window: sanity only
    huge = continuous_optimum(20.0, UNIT)
    assert huge > 1e15
    assert continuous_optimum(1e9, UNIT) == math.inf


def test_continuous_lower_bounds_subdivisions():
    rng = random.Random(35)
    for _ in range(60):
        x = rng.uniform(0.2, 2.5)
        k = rng.randint(0, 200)
        cont = continuous_optimum(x, UNIT)
        try:
            f, _ = eval_subdivision_exact(equal_subdivision(x, k), UNIT,
                                          collect_plans=False)
        except InfeasibleError:
            continue
        assert f >= cont - 1e-9 * max(1.0, cont)


def test_threshold_search_examples():
    assert threshold_search(1.0, UNIT, 1.0, k1=4) == (4, 1.0)
    assert threshold_search(0.5, UNIT, 0.5) == (0, 0.5)
    k, val = threshold_search(4.0 / 3.0, UNIT, 2.05)
    assert k == 128 and val <= 2.05


def test_threshold_search_unreachable_budget():
    with pytest.raises(BudgetUnreachableError) as ei:
        threshold_search(4.0 / 3.0, UNIT, 1.9, method="fast", cap=2 ** 14)
    assert ei.value.best_value > 1.9


def test_threshold_search_additive_steps():
    # k = 0, 1 and 2 admit no transfer; 3 and 4 miss the budget; 5 meets it
    assert threshold_search(1.5, UNIT, 3.0, schedule="additive", ct=1) == (5, 3.0)


def test_threshold_search_cap_reports_best_k():
    # the budget lies above the continuous optimum (2.8333...), and k = 17
    # would meet it, but the cap stops the search at k = 16
    with pytest.raises(BudgetUnreachableError) as ei:
        threshold_search(1.5, UNIT, 2.84, schedule="additive", ct=1, cap=16)
    assert (ei.value.best_k, ei.value.best_value) == (14, 2.9)


def test_threshold_search_bad_args():
    with pytest.raises(ValueError):
        threshold_search(1.0, UNIT, 1.0, schedule="bogus")
    with pytest.raises(ValueError):
        threshold_search(1.0, UNIT, 1.0, ct=1)


def test_threshold_search_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'zzz'"):
        threshold_search(4.0 / 3.0, UNIT, 2.05, method="zzz")
    for method in ("exact", "fast"):
        assert threshold_search(4.0 / 3.0, UNIT, 2.05, method=method)[1] <= 2.05


def test_graph_validation():
    with pytest.raises(ValueError):
        JeepGraph(2, ((1, 3, 1.0),))
    with pytest.raises(ValueError):
        JeepGraph(2, ((1, 2, 0.0),))
    with pytest.raises(ValueError):
        JeepGraph(3, ((1, 2, 1.0),))
    # n - 1 edges, one of them parallel, leave vertices 3 and 4 unreached
    with pytest.raises(ValueError, match="not connected"):
        JeepGraph(4, ((1, 2, 1.0), (2, 1, 2.0), (3, 4, 1.0)))


def test_out_of_range_inputs_rejected_up_front():
    for evaluate in (eval_equal_fast, eval_equal_naive):
        # the last two have a spacing x/(k+1) that is not a positive float
        for x, k in ((0.0, 3), (-1.0, 3), (1.0, -1),
                     (5e-324, 1), (1.0, 10 ** 400)):
            with pytest.raises(ValueError):
                evaluate(x, k, UNIT)
    for ends in ({"target": 3}, {"source": 0}):
        with pytest.raises(ValueError):
            JeepGraph(2, ((1, 2, 1.0),), **ends)
    # below the continuous optimum no k can succeed: rejected before any k
    with pytest.raises(BudgetUnreachableError) as ei:
        threshold_search(1.0, UNIT, 0.5, schedule="additive", ct=1)
    assert ei.value.best_k is None and ei.value.best_value == 1.0


def path_graph(lengths):
    n = len(lengths) + 1
    return JeepGraph(n, tuple((i, i + 1, l) for i, l in enumerate(lengths, 1)))


def test_backward_path_example():
    h = graph_min_gas_backward(path_graph([0.5, 0.5]), UNIT)
    assert h[3] == 0.0 and h[2] == 0.5 and h[1] == 1.0


def test_backward_picks_cheaper_route():
    tri = JeepGraph(3, ((1, 2, 0.4), (2, 3, 0.4), (1, 3, 0.9)))
    h = graph_min_gas_backward(tri, UNIT)
    assert abs(h[1] - 0.8) < 1e-12  # two short hops beat the long edge


def test_backward_infeasible_edge():
    h = graph_min_gas_backward(path_graph([1.2]), UNIT)
    assert h[1] == math.inf


def test_forward_binary_unreachable_target():
    # no load crosses an edge longer than a tank: the probe with an
    # unbounded load fails, so no bracket is built
    assert graph_min_gas_binary_forward(path_graph([1.2]), UNIT) == math.inf
    # the free-depot bound itself is past the float range, so the vertex-depot
    # answer is too; the forward step carries the infinite load
    far = path_graph([0.4] * 1000)
    assert graph_free_depots(far, UNIT) == math.inf
    assert graph_min_gas_binary_forward(far, UNIT) == math.inf


def test_forward_binary_far_above_free_depot_bound():
    # each edge just under half a tank multiplies the vertex-depot answer by
    # about 49 but the free-depot bound by about 2.66, so the answer is more
    # than 2**60 times the bracket's start; doubling must still reach it
    g = path_graph([0.49] * 20)
    back = graph_min_gas_backward(g, UNIT)[1]
    assert back > 2.0 ** 60 * graph_free_depots(g, UNIT)
    fwd = graph_min_gas_binary_forward(g, UNIT)
    assert abs(fwd - back) <= 1e-6 * back


def test_forward_feasible_unbounded_load():
    # an unbounded load stays unbounded over edges under half a tank and
    # arrives with m - g*len past the first longer one
    h = graph_forward_feasible(path_graph([0.3, 0.7, 0.2]), UNIT, math.inf)
    assert h[1:3] == [math.inf, math.inf]
    assert abs(h[3] - 0.3) < 1e-12 and abs(h[4] - 0.1) < 1e-12


def test_continuous_optimum_skips_exact_terms_past_their_reach():
    # 10**6 exact terms sum to about 7.89; a larger target goes straight to
    # the asymptotic inversion instead of adding every term first
    t0 = time.perf_counter()
    assert continuous_optimum(400.0, UNIT) == math.inf
    assert continuous_optimum(30.0, UNIT) > 1e25
    assert time.perf_counter() - t0 < 0.1


def test_forward_binary_agrees_with_backward():
    rng = random.Random(36)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [(i, i + 1, rng.uniform(0.1, 0.45)) for i in range(1, n)]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(range(1, n + 1), 2)
            edges.append((a, b, rng.uniform(0.1, 0.6)))
        g = JeepGraph(n, tuple(edges))
        back = graph_min_gas_backward(g, UNIT)[1]
        if back == math.inf:
            continue
        fwd = graph_min_gas_binary_forward(g, UNIT, eps=1e-7)
        assert abs(fwd - back) <= 1e-6, (edges, back, fwd)
        checked += 1
    assert checked >= 20


def random_graph(rng, n, extra):
    edges = [(rng.randint(1, i - 1), i, rng.uniform(0.05, 0.6))
             for i in range(2, n + 1)]
    for _ in range(extra):
        i, j = rng.sample(range(1, n + 1), 2)
        edges.append((i, j, rng.uniform(0.05, 0.6)))
    return JeepGraph(n, tuple(edges))


# sha256 of repr() of every forward vector over two tanks and six source
# loads; 0.01 is below every edge's need, and the larger loads take the
# round-trip branch, so the heap order, the tie order and the cut at a
# deficit all show here
@pytest.mark.parametrize("n, extra, seed, digest", [
    (2, 0, 41, "882fa3bf8aab5a7ff41bb9b6b3c63dfaa53fc44fcca6887d4139c3b26e17a59a"),
    (12, 0, 42, "72b61342fad86f00c2da897c5f67381d5c7969a78cc40002baa3647f6ee89d20"),
    (40, 60, 43, "17214135a7d7ab64ad1bc888a048e186e98244ec28438fb6ae4edd0760e34de6"),
], ids=["edge", "tree", "cyclic"])
def test_forward_feasible_vectors_pinned(n, extra, seed, digest):
    g = random_graph(random.Random(seed), n, extra)
    h = hashlib.sha256()
    for params in (UNIT, JeepParams(2.5, 0.7)):
        for g_min in (0.01, 0.3, 1.0, 2.7, 10.0, 123.4):
            h.update(repr(graph_forward_feasible(g, params, g_min)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("eps", [0.0, -1.0, 1e-300])
def test_forward_binary_ends_below_float_resolution(eps):
    # a tolerance finer than the spacing of floats near the answer used to
    # keep the bisection splitting one interval forever
    g = path_graph([0.2, 0.2])
    t0 = time.perf_counter()
    fwd = graph_min_gas_binary_forward(g, UNIT, eps=eps)
    assert time.perf_counter() - t0 < 2.0
    back = graph_min_gas_backward(g, UNIT)[1]
    assert abs(fwd - back) <= 1e-12 * back


def test_backward_path_matches_subdivision_eval():
    rng = random.Random(37)
    for _ in range(40):
        lens = [rng.uniform(0.05, 0.45) for _ in range(rng.randint(1, 6))]
        g = path_graph(lens)
        h = graph_min_gas_backward(g, UNIT)[1]
        pts = [0.0]
        for l in lens:
            pts.append(pts[-1] + l)
        f, _ = eval_subdivision_exact(Subdivision(tuple(pts)), UNIT,
                                      mode="corrected")
        # prefix-summing the points reorders the float additions slightly
        assert abs(h - f) <= 1e-12 * max(1.0, f)


def test_vertex_depots_refinement():
    edge = JeepGraph(2, ((1, 2, 4.0 / 3.0),))
    assert graph_min_gas_backward(edge, UNIT)[1] == math.inf
    h1000 = graph_vertex_depots_continuous(edge, UNIT, 1000)[1]
    assert 2.0 <= h1000 <= 2.1
    easy = JeepGraph(2, ((1, 2, 1.0),))
    assert graph_vertex_depots_continuous(easy, UNIT, 10)[1] == 1.0
    with pytest.raises(ValueError):
        graph_vertex_depots_continuous(easy, UNIT, -1)


def test_vertex_depots_k0_equals_backward():
    rng = random.Random(38)
    for _ in range(20):
        n = rng.randint(2, 6)
        edges = [(i, i + 1, rng.uniform(0.1, 0.45)) for i in range(1, n)]
        g = JeepGraph(n, tuple(edges))
        assert graph_vertex_depots_continuous(g, UNIT, 0) == \
            graph_min_gas_backward(g, UNIT)


def test_free_depots():
    g = path_graph([0.5, 0.5])
    assert graph_free_depots(g, UNIT) == 1.0
    far = path_graph([1.0, 1.0 / 3.0])
    assert abs(graph_free_depots(far, UNIT) - 2.0) < 1e-12
    self_target = JeepGraph(2, ((1, 2, 1.0),), source=1, target=1)
    assert graph_free_depots(self_target, UNIT) == 0.0
