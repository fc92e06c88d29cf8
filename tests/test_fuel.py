import random

import pytest

from transopt.errors import SizeLimitError
from transopt.fuel import (
    FuelInstance,
    make_fuel_instance,
    min_initial_fuel,
    simulate_route,
)
from transopt.oracles import fuel_brute
from transopt.tolerances import REL_TOL
from transopt.tree import build_rooted_tree

from treegen import bushy_tree, deep_tree, random_tree, star_tree


def ab_star():
    # depot 1 (no gas), child 2 at distance 1 holding 10, child 3 at 5 empty
    tr = build_rooted_tree(3, [(1, 2, 1), (1, 3, 5)])
    return make_fuel_instance(tr, [0, 10, 0])


def test_instance_validation():
    tr = build_rooted_tree(2, [(1, 2, 1)])
    with pytest.raises(ValueError):
        FuelInstance(tr, (0.0, 0.0))  # wrong arity
    with pytest.raises(ValueError):
        make_fuel_instance(tr, [0, -1])
    with pytest.raises(ValueError, match="gas must sum to a finite number"):
        make_fuel_instance(tr, [1e308, 1.7e308])
    huge = build_rooted_tree(2, [(1, 2, 1e308)])
    with pytest.raises(ValueError, match="twice the edge lengths must sum"):
        make_fuel_instance(huge, [0, 0])


def test_feasible_star_examples():
    inst = ab_star()
    c, walk = min_initial_fuel(inst)
    assert (c, walk) == (2.0, [1, 2, 1, 3, 1])
    assert simulate_route(inst, 2.0, walk) == 0.0
    assert simulate_route(inst, 1.9, walk) < 0.0


def test_min_fuel_examples():
    chain = make_fuel_instance(build_rooted_tree(2, [(1, 2, 2)]), [0, 0])
    assert min_initial_fuel(chain)[0] == 4.0

    assert min_initial_fuel(ab_star())[0] == 2.0

    rich = make_fuel_instance(build_rooted_tree(2, [(1, 2, 2)]), [5, 0])
    assert min_initial_fuel(rich)[0] == 0.0

    single = make_fuel_instance(build_rooted_tree(1, []), [0])
    assert min_initial_fuel(single) == (0.0, [1])


def test_costly_child_first_when_both_lose_fuel():
    # visiting the cheaper-looking subtree first strands the vehicle here
    tr = build_rooted_tree(3, [(1, 2, 3), (1, 3, 8)])
    inst = make_fuel_instance(tr, [9, 0, 9])
    c, walk = min_initial_fuel(inst)
    assert c == 4.0
    assert walk == [1, 3, 1, 2, 1]


def random_instance(rng, n):
    tr = random_tree(rng, n, max_children=4)
    gas = [rng.randint(0, 9) for _ in range(n)]
    return make_fuel_instance(tr, gas)


def test_feasibility_monotone_in_fuel():
    rng = random.Random(22)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(2, 12))
        c, walk = min_initial_fuel(inst)
        assert simulate_route(inst, c, walk) >= 0.0
        assert simulate_route(inst, c + 3.0, walk) >= 0.0
        if c >= 1:  # integer data: one unit less strands the vehicle
            assert simulate_route(inst, c - 1.0, walk) < 0.0


def test_route_simulates_nonnegative():
    rng = random.Random(23)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 12))
        c, walk = min_initial_fuel(inst)
        assert simulate_route(inst, c, walk) >= 0.0
        assert walk[0] == inst.tree.root and walk[-1] == inst.tree.root
        assert set(walk) == set(range(1, inst.tree.n + 1))
        # every edge exactly twice: the walk has 2(n-1) moves
        assert len(walk) == 2 * inst.tree.n - 1


def test_lower_bound_holds():
    rng = random.Random(24)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 12))
        c, _ = min_initial_fuel(inst)
        # fuel balance: every edge is paid twice, all gas is collected once
        assert c >= max(0.0, 2 * inst.tree.total_edge_len() - sum(inst.gas))


def test_matches_oracle_small():
    rng = random.Random(25)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 9))
        assert min_initial_fuel(inst)[0] == fuel_brute(inst)


def test_integer_data_just_below_two_to_the_53_matches_the_oracle_exactly():
    # Lengths and gas up to 2**48 on n <= 7: a partial sum adds at most 7
    # gas values and 12 edge traversals, so it stays below 19 * 2**48 <
    # 2**53, where float64 holds every integer, and both sides are exact.
    rng = random.Random(28)
    for _ in range(400):
        n = rng.randint(1, 7)
        edges = [(rng.randint(1, i - 1), i, rng.randint(0, 2 ** 48))
                 for i in range(2, n + 1)]
        inst = make_fuel_instance(build_rooted_tree(n, edges),
                                  [rng.randint(0, 2 ** 48) for _ in range(n)])
        assert min_initial_fuel(inst)[0] == fuel_brute(inst)


def test_real_valued_matches_oracle():
    rng = random.Random(26)
    done = 0
    while done < 60:
        n = rng.randint(1, 9)
        edges = [(rng.randint(1, i - 1), i, rng.uniform(0.1, 5.0))
                 for i in range(2, n + 1)]
        inst = make_fuel_instance(build_rooted_tree(n, edges),
                                  [rng.uniform(0.0, 6.0) for _ in range(n)])
        try:
            ref = fuel_brute(inst)
        except SizeLimitError:
            continue
        c, walk = min_initial_fuel(inst)
        assert abs(c - ref) <= REL_TOL * max(1.0, abs(ref))
        assert simulate_route(inst, c, walk) >= -REL_TOL * max(1.0, c)
        done += 1


@pytest.mark.parametrize("make", [deep_tree, bushy_tree, star_tree])
def test_route_is_tight_past_the_oracle_limit(make):
    # integer data: the optimal fill leaves the tank at exactly 0 somewhere
    # on the route, unless the depot's own gas covers everything
    rng = random.Random(27)
    tight = 0
    for _ in range(20):
        n = rng.randint(500, 4000)
        gas_hi = rng.choice((9, 30))
        inst = make_fuel_instance(make(rng, n, False),
                                  [rng.randint(0, gas_hi) for _ in range(n)])
        c, walk = min_initial_fuel(inst)
        low = simulate_route(inst, c, walk)
        if c > 0:
            assert low == 0.0
            tight += 1
        else:
            assert low >= 0.0
    assert 0 < tight < 20  # both branches ran
