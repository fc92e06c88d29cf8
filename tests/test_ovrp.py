import hashlib
import math
import random

import pytest

from transopt import ovrp
from transopt.oracles import ovrp_brute, single_vehicle_closed_form
from transopt.ovrp import (
    OvrpInstance,
    solve_greedy,
    solve_knapsack_v1,
    solve_knapsack_v2,
    solve_leaf_interval,
)
from transopt.tolerances import REL_TOL
from transopt.tree import build_rooted_tree, euler_walk, leaf_ranges, walk_cost

from treegen import bushy_tree, deep_tree, random_tree, star_tree


def star():
    return build_rooted_tree(3, [(1, 2, 2), (1, 3, 3)])


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


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _audit(tree, sol, exact=True):
    assert sol.routes, "at least one route expected"
    covered = set()
    total = 0.0
    for walk in sol.routes:
        assert walk[0] == tree.root
        for a, b in zip(walk, walk[1:]):
            assert tree.parent[a] == b or tree.parent[b] == a
        total += walk_cost(tree, walk)
        covered.update(walk)
    assert covered == set(range(1, tree.n + 1))
    # real lengths: the routes re-add the same edges in another order
    assert total == sol.total_cost if exact else _close(total, sol.total_cost)
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
        leaves = len(leaf_ranges(tr)[0])
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


@pytest.mark.parametrize("real", [False, True], ids=["int", "real"])
def test_greedy_on_deep_trees_matches_interval_dp(real):
    rng = random.Random(14 + real)
    for n in (200, 700, 1500, 3000):
        tr = deep_tree(rng, n, real)
        for p in (1, 3, 10):
            inst = OvrpInstance(tr, p)
            sol = solve_greedy(inst)
            ref = solve_leaf_interval(inst).total_cost
            assert sol.total_cost == ref if not real else _close(sol.total_cost, ref)
            assert sol.vehicles_used <= p
            _audit(tr, sol, exact=not real)


def test_greedy_ties_pick_the_smallest_leaf_id():
    # vertex 3 is the first leaf in DFS order; both leaves lie at depth 5
    tr = build_rooted_tree(3, [(1, 3, 5), (1, 2, 5)])
    assert solve_greedy(OvrpInstance(tr, 1)).routes == [[1, 3, 1, 2]]
    assert solve_greedy(OvrpInstance(tr, 2)).routes == [[1, 2], [1, 3]]


@pytest.mark.parametrize("real", [False, True], ids=["int", "real"])
def test_dp2_matches_dp1_and_interval_on_deep_and_star_trees(real):
    rng = random.Random(16 + real)
    for _ in range(25):
        tr = deep_tree(rng, rng.randint(2, 30), real)
        for p in (1, 2, 4):
            inst = OvrpInstance(tr, p)
            v1, v2 = solve_knapsack_v1(inst), solve_knapsack_v2(inst)
            assert v2 == v1 if not real else _close(v2, v1)
    for make, n in ((deep_tree, 1500), (star_tree, 300), (deep_tree, 400)):
        tr = make(rng, n, real)
        for p in (1, 6, 10):
            inst = OvrpInstance(tr, p)
            v2 = solve_knapsack_v2(inst)
            ref = solve_leaf_interval(inst).total_cost
            assert v2 == ref if not real else _close(v2, ref)


# sha256 of repr((total_cost, routes)) of solve_leaf_interval for
# p = 1, 3, 10 and the leaf count, in that order; real-valued lengths, so
# any change to the order of the float operations or to the tie-breaking
# of the backtrack shows here
@pytest.mark.parametrize("make, n, seed, digest", [
    (deep_tree, 3000, 31,
     "2c10bfafb1e0069301e24214575129c7af914a211518107ec69910d59a3174d6"),
    (bushy_tree, 1200, 32,
     "eefe6fae5199429c1eff46a82c49fdbcbadeceb5ddd1fbc2ceb7221bfe7a6a12"),
    (star_tree, 200, 33,
     "088a667bd7f0fa82553518a2ab3bb2e23c85e92e4978a4ef18e28a06f7fdefe2"),
], ids=["deep", "bushy", "star"])
def test_interval_routes_pinned(make, n, seed, digest):
    tr = make(random.Random(seed), n, True)
    h = hashlib.sha256()
    for p in (1, 3, 10, len(leaf_ranges(tr)[0])):
        sol = solve_leaf_interval(OvrpInstance(tr, p))
        h.update(repr((sol.total_cost, sol.routes)).encode())
    assert h.hexdigest() == digest


# the same digests for solve_greedy: the order of its float operations, its
# smallest-leaf-id tie-break and the order in which it expands each route
@pytest.mark.parametrize("make, n, seed, digest", [
    (deep_tree, 3000, 31,
     "c5ef37107717dd18aa2c33768b7ffd654fb18c499996fb7003d1c8d02970dedc"),
    (bushy_tree, 1200, 32,
     "181e387cdd1eaecbbc54804175cfbb8067449ceaa4460a235925bf9dcb47f715"),
    (star_tree, 200, 33,
     "5a77d74798665ac134f536e259ca492ec0f9fc1f672b6c2d26ccb38808f68c4b"),
], ids=["deep", "bushy", "star"])
def test_greedy_routes_pinned(make, n, seed, digest):
    tr = make(random.Random(seed), n, True)
    h = hashlib.sha256()
    for p in (1, 3, 10, len(leaf_ranges(tr)[0])):
        sol = solve_greedy(OvrpInstance(tr, p))
        h.update(repr((sol.total_cost, sol.routes)).encode())
    assert h.hexdigest() == digest


def _reference_walk(tree, leaf_ids, end_leaf):
    """The set-based walk both solvers once built their routes with: the
    Euler walk over the union of the root paths to ``leaf_ids``, entering
    the child towards ``end_leaf`` last, cut at its first arrival there."""
    parent = tree.parent
    covered = set()
    for leaf in leaf_ids:
        v = leaf
        while v not in covered:
            covered.add(v)
            if v == tree.root:
                break
            v = parent[v]
    spine = set()
    v = end_leaf
    while True:
        spine.add(v)
        if v == tree.root:
            break
        v = parent[v]
    order = {}
    for u in covered:
        ch = [c for c in tree.children[u] if c in covered]
        ch.sort(key=spine.__contains__)
        order[u] = ch
    walk = euler_walk(tree, tree.root, order)
    return walk[: walk.index(end_leaf) + 1]


def _reroot_with_zeros(rng, tree):
    """``tree`` hung from a random root, with about a third of its edges
    set to length 0."""
    edges = [(tree.parent[v], v, 0 if rng.random() < 0.3 else tree.edge_len[v])
             for v in range(1, tree.n + 1) if v != tree.root]
    return build_rooted_tree(tree.n, edges, rng.randint(1, tree.n))


def _reference_trees():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 40)
        yield from (deep_tree(rng, n, True), bushy_tree(rng, n, False),
                    star_tree(rng, n, True), random_tree(rng, n, 3))
    for make, n in ((deep_tree, 800), (bushy_tree, 600), (star_tree, 200)):
        yield make(rng, n, True)
        yield make(rng, n, False)


@pytest.mark.parametrize("solve", [solve_greedy, solve_leaf_interval],
                         ids=["greedy", "interval"])
def test_routes_match_the_set_based_reference(solve):
    rng = random.Random(42)
    for tree in _reference_trees():
        for tr in (tree, _reroot_with_zeros(rng, tree)):
            _, lo, _, _ = leaf_ranges(tr)
            leaf_count = tr.children[1:].count(())
            for p in (1, 2, 3, 7, leaf_count, leaf_count + 2):
                served = []  # each vehicle's leaves, as DFS leaf positions
                for route in solve(OvrpInstance(tr, p)).routes:
                    leaves = [v for v in route if tr.is_leaf(v)]
                    assert route == _reference_walk(tr, leaves, route[-1])
                    served.append(sorted(lo[v] for v in leaves))
                # every leaf is served by one vehicle; the interval DP's
                # vehicles serve consecutive blocks, in order
                if solve is solve_leaf_interval:
                    assert sum(served, []) == list(range(leaf_count))
                else:
                    assert sorted(sum(served, [])) == list(range(leaf_count))


def _broom(leaf_sons, handle):
    """A root with ``leaf_sons`` leaf sons, then one path of ``handle``
    vertices hanging from it."""
    edges = [(1, v, 1) for v in range(2, leaf_sons + 2)]
    edges += [(v - 1 if v > leaf_sons + 2 else 1, v, 2)
              for v in range(leaf_sons + 2, leaf_sons + handle + 2)]
    return build_rooted_tree(leaf_sons + handle + 1, edges)


@pytest.mark.parametrize("solve", [solve_greedy, solve_leaf_interval],
                         ids=["greedy", "interval"])
def test_each_walk_built_is_a_route_whole(monkeypatch, solve):
    # a copy of every walk as euler_walk returns it, before _route can
    # change it: no entry is built that the route then drops
    walks = []

    def recorded(*args):
        walk = euler_walk(*args)
        walks.append(list(walk))
        return walk

    monkeypatch.setattr(ovrp, "euler_walk", recorded)
    rng = random.Random(44)
    trees = [make(rng, rng.randint(2, 60), real)
             for make in (deep_tree, bushy_tree, star_tree)
             for real in (False, True) for _ in range(8)]
    trees += [random_tree(rng, 50, 3), _broom(30, 200)]
    for tr in trees:
        for p in (1, 2, 5, 10):
            walks.clear()
            routes = solve(OvrpInstance(tr, p)).routes
            assert walks == routes, (tr, p)


def test_first_child_equals_a_merge_into_base():
    # rows as the DP makes them: P_in = 0 inf, the rest nonnegative, finite
    # or inf; 1e308 sums overflow to inf on both sides
    rng = random.Random(34)
    special = (0.0, 1e308, math.inf)

    def entry():
        if rng.random() < 0.3:
            return rng.choice(special)
        if rng.random() < 0.5:
            return float(rng.randint(0, 50))
        return rng.uniform(0, 50)

    lengths = (0, 1, 3, 9, 0.0, -0.0, 0.5, 2.75, 1e308)
    for p in range(1, 13):
        base, first, merge = ovrp._merges(p)
        for _ in range(200):
            child = tuple([math.inf] + [entry() for _ in range(p)]
                          for _ in range(2))
            l = rng.choice(lengths) if rng.random() < 0.5 else rng.uniform(0, 9)
            assert repr(first(child, l)) == repr(merge(base, child, l)), \
                (p, child, l)


@pytest.mark.parametrize("real", [False, True], ids=["int", "real"])
def test_dp2_agrees_with_interval_and_dp1(real):
    def agree(inst, ref):
        v2 = solve_knapsack_v2(inst)
        assert type(v2) is float
        assert v2 == ref if not real else _close(v2, ref), (inst, v2, ref)

    rng = random.Random(18 + real)
    for make in (deep_tree, bushy_tree, star_tree) * 12:
        tr = make(rng, rng.randint(1, 40), real)
        leaves = len(leaf_ranges(tr)[0])
        for p in range(1, leaves + 2):
            inst = OvrpInstance(tr, p)
            agree(inst, solve_leaf_interval(inst).total_cost)
            if p <= 4:
                agree(inst, solve_knapsack_v1(inst))
    # trees of about 5000 vertices at p = 10, the benchmark's vehicle count
    for make, n in ((deep_tree, 4958), (bushy_tree, 4959)):
        inst = OvrpInstance(make(rng, n, real), 10)
        agree(inst, solve_leaf_interval(inst).total_cost)
