import random

import pytest

from transopt.oracles import ovrp_brute
from transopt.ovrp import (
    OvrpInstance,
    route_cost,
    single_vehicle_closed_form,
    solve_greedy,
    solve_knapsack_v1,
    solve_knapsack_v2,
    solve_leaf_interval,
)
from transopt.tree import build_rooted_tree, leaves_dfs_order


def star():
    return build_rooted_tree(3, [(1, 2, 2), (1, 3, 3)])


def random_tree(rng, n, max_len=9):
    edges = [(rng.randint(1, i - 1), i, rng.randint(1, max_len))
             for i in range(2, n + 1)]
    return build_rooted_tree(n, edges)


ALL_SOLVERS = (
    lambda inst: solve_greedy(inst).total_cost,
    solve_knapsack_v1,
    solve_knapsack_v2,
    lambda inst: solve_leaf_interval(inst).total_cost,
)


def test_star_one_vehicle():
    inst = OvrpInstance(star(), 1)
    for solver in ALL_SOLVERS:
        assert solver(inst) == 7.0


def test_star_two_vehicles():
    inst = OvrpInstance(star(), 2)
    for solver in ALL_SOLVERS:
        assert solver(inst) == 5.0


def test_single_vertex():
    tr = build_rooted_tree(1, [])
    inst = OvrpInstance(tr, 3)
    for solver in ALL_SOLVERS:
        assert solver(inst) == 0.0
    sol = solve_leaf_interval(inst)
    assert sol.routes == [[1]]


def test_vehicle_count_validated():
    with pytest.raises(ValueError):
        OvrpInstance(star(), 0)


def test_closed_form_matches_chain():
    tr = build_rooted_tree(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    inst = OvrpInstance(tr, 1)
    # one chain: walk straight down, nothing doubled
    assert single_vehicle_closed_form(inst) == 3.0
    assert solve_leaf_interval(inst).total_cost == 3.0


def test_extra_vehicles_never_hurt():
    rng = random.Random(9)
    for _ in range(30):
        tr = random_tree(rng, rng.randint(2, 8))
        prev = None
        for p in (1, 2, 3, 4):
            cur = solve_knapsack_v2(OvrpInstance(tr, p))
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_solvers_agree_with_oracle_small_corpus():
    rng = random.Random(10)
    for _ in range(40):
        tr = random_tree(rng, rng.randint(1, 7))
        for p in (1, 2, 3):
            inst = OvrpInstance(tr, p)
            ref = ovrp_brute(inst)
            for solver in ALL_SOLVERS:
                assert solver(inst) == ref


def _audit(tree, sol):
    assert sol.routes, "at least one route expected"
    covered = set()
    total = 0.0
    for walk in sol.routes:
        assert walk[0] == tree.root
        for a, b in zip(walk, walk[1:]):
            assert tree.parent[a] == b or tree.parent[b] == a
        total += route_cost(tree, walk)
        covered.update(walk)
    assert covered == set(range(1, tree.n + 1))
    assert total == sol.total_cost
    assert len(sol.routes) == sol.vehicles_used


def test_routes_recost_and_cover():
    rng = random.Random(11)
    for _ in range(40):
        tr = random_tree(rng, rng.randint(1, 8))
        for p in (1, 2, 3):
            inst = OvrpInstance(tr, p)
            _audit(tr, solve_greedy(inst))
            _audit(tr, solve_leaf_interval(inst))


def test_greedy_uses_at_most_p_vehicles():
    rng = random.Random(12)
    for _ in range(20):
        tr = random_tree(rng, rng.randint(2, 8))
        for p in (1, 2, 3):
            assert solve_greedy(OvrpInstance(tr, p)).vehicles_used <= p


def test_vehicle_count_clamped_to_leaves():
    rng = random.Random(13)
    done = 0
    while done < 40:
        tr = random_tree(rng, rng.randint(1, 8))
        leaves = len(leaves_dfs_order(tr))
        if leaves > 3:  # ovrp_brute takes p <= 4
            continue
        for p in (leaves, leaves + 1):
            inst = OvrpInstance(tr, p)
            ref = ovrp_brute(inst)
            assert solve_knapsack_v1(inst) == ref
            assert solve_knapsack_v2(inst) == ref
            assert solve_leaf_interval(inst).total_cost == ref
        done += 1
    huge = OvrpInstance(star(), 10 ** 6)
    assert solve_knapsack_v1(huge) == solve_knapsack_v2(huge) == 5.0
    assert solve_leaf_interval(huge).total_cost == 5.0
