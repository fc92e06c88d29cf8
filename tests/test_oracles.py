import math

import pytest

from transopt.errors import PlanInfeasibleError, SizeLimitError
from transopt.fuel import make_fuel_instance
from transopt.hampath import CurveInstance, SimplePolygon
from transopt.jeep import (
    JeepParams,
    SegmentPlan,
    Subdivision,
    equal_subdivision,
    eval_subdivision_exact,
)
from transopt.oracles import (
    curve_zigzag_brute,
    fuel_brute,
    ham_brute,
    jeep_simulate_plan,
    ovrp_brute,
)
from transopt.ovrp import OvrpInstance
from transopt.tree import build_rooted_tree

UNIT = JeepParams(1.0, 1.0)


def test_ovrp_brute_star():
    tr = build_rooted_tree(3, [(1, 2, 2), (1, 3, 3)])
    assert ovrp_brute(OvrpInstance(tr, 1)) == 7.0
    assert ovrp_brute(OvrpInstance(tr, 2)) == 5.0


def test_ovrp_brute_single_vertex():
    assert ovrp_brute(OvrpInstance(build_rooted_tree(1, []), 2)) == 0.0


def test_ovrp_brute_size_limits():
    big = build_rooted_tree(13, [(1, i, 1) for i in range(2, 14)])
    with pytest.raises(SizeLimitError):
        ovrp_brute(OvrpInstance(big, 1))
    small = build_rooted_tree(2, [(1, 2, 1)])
    with pytest.raises(SizeLimitError):
        ovrp_brute(OvrpInstance(small, 5))


def test_fuel_brute_chain():
    inst = make_fuel_instance(build_rooted_tree(2, [(1, 2, 2)]), [0, 0])
    assert fuel_brute(inst) == 4.0


def test_fuel_brute_order_matters():
    tr = build_rooted_tree(3, [(1, 2, 3), (1, 3, 8)])
    assert fuel_brute(make_fuel_instance(tr, [9, 0, 9])) == 4.0


def test_fuel_brute_size_limit():
    # a 13-way star has 13! > 1e6 child orders
    tr = build_rooted_tree(14, [(1, i, 1) for i in range(2, 15)])
    inst = make_fuel_instance(tr, [0] * 14)
    with pytest.raises(SizeLimitError):
        fuel_brute(inst)


def test_jeep_simulate_accepts_exact_plans():
    d = equal_subdivision(1.0, 4)
    f, plans = eval_subdivision_exact(d, UNIT)
    assert jeep_simulate_plan(d, UNIT, plans) == f == 1.0

    d2 = Subdivision((0.0, 1.0 / 3.0, 4.0 / 3.0))
    f2, plans2 = eval_subdivision_exact(d2, UNIT)
    assert jeep_simulate_plan(d2, UNIT, plans2) == f2


def test_jeep_simulate_single_segment_trivial():
    d = Subdivision((0.0, 0.7))
    assert jeep_simulate_plan(d, UNIT, [SegmentPlan(0, 0.0)]) == 0.7


def test_jeep_simulate_rejects_tampered_plan():
    d = Subdivision((0.0, 1.0 / 3.0, 4.0 / 3.0))
    _, plans = eval_subdivision_exact(d, UNIT)
    bad = list(plans)
    bad[0] = SegmentPlan(bad[0].rt - 1, bad[0].q)
    with pytest.raises(PlanInfeasibleError) as ei:
        jeep_simulate_plan(d, UNIT, bad)
    assert ei.value.segment == 0


def test_jeep_simulate_rejects_overfull_tank():
    d = Subdivision((0.0, 0.5))
    with pytest.raises(PlanInfeasibleError):
        jeep_simulate_plan(d, UNIT, [SegmentPlan(0, 0.9)])


def test_jeep_simulate_plan_count_checked():
    d = Subdivision((0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        jeep_simulate_plan(d, UNIT, [SegmentPlan(0, 0.0)])


def test_ham_brute_square():
    square = SimplePolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    length, path = ham_brute(square, start=0)
    assert length == 3.0 and path[0] == 0


def test_ham_brute_triangle_free():
    tri = SimplePolygon(((0, 0), (1, 0), (0, 1)))
    length, _ = ham_brute(tri)
    assert length == 2.0


def test_ham_brute_limit():
    decagon = SimplePolygon([(math.cos(2 * math.pi * i / 10),
                              math.sin(2 * math.pi * i / 10)) for i in range(10)])
    with pytest.raises(SizeLimitError):
        ham_brute(decagon)


def test_curve_zigzag_brute():
    assert curve_zigzag_brute(CurveInstance((1, 2, 3, 4)), "length")[0] == 6.0
    with pytest.raises(ValueError):
        curve_zigzag_brute(CurveInstance((1, 1)), "bogus")
    with pytest.raises(SizeLimitError):
        curve_zigzag_brute(CurveInstance((1.0,) * 21))
