"""Minimum initial fuel for a single vehicle doing a DFS tour of a tree.

The vehicle starts at the root depot, must visit every vertex, traverses
every edge exactly twice, collects the fuel stored at a vertex on first
arrival and returns to the root without the tank ever dropping below zero.

The smallest workable initial fill has a closed form, computed in one
bottom-up pass.  Servicing the subtree of a child c from its parent changes
the tank by ``profit[c]`` and needs at least ``need[c]`` on entry, where
``profit[u] = gas[u] + sum of profit[c] over u's children - 2 edge_len[u]``
is the tank at the end of u's child order less twice the edge to u.  At each
vertex the best child order does not depend on the fuel level: gainers
(``profit >= 0``) go first in ascending ``need``, since fuel only rises
while they are serviced; spenders follow in decreasing ``need + profit``,
which an exchange argument shows is optimal among all orders.  The minimum
fill at the vertex is then the largest shortfall along that order.
"""

import math
from array import array
from collections import namedtuple

from .tree import euler_walk, path_cost


class FuelInstance(namedtuple("FuelInstance", "tree gas")):
    """A :class:`~transopt.tree.RootedTree` and its per-vertex gas, 1-based
    (index 0 unused), float64 from :func:`make_fuel_instance`."""

    __slots__ = ()

    def __new__(cls, tree, gas):
        if len(gas) != tree.n + 1:
            raise ValueError("gas array must be 1-based with one entry per vertex")
        if any(g < 0 for g in gas[1:]):
            raise ValueError("gas values must be nonnegative")
        # profits and tank levels lie within these: no inf - inf, no NaN
        if not math.isfinite(sum(gas)):
            raise ValueError("gas must sum to a finite number")
        if not math.isfinite(2.0 * tree.total_edge_len()):
            raise ValueError("twice the edge lengths must sum to a finite number")
        return super().__new__(cls, tree, gas)


def make_fuel_instance(tree, gas_values):
    """Convenience constructor taking a plain per-vertex gas list (1..n)."""
    return FuelInstance(tree, array("d", [0.0, *gas_values]))


def min_initial_fuel(inst):
    """Minimum initial tank fill at the depot, plus a route realizing it.

    For each vertex u, bottom-up, the tank runs from ``gas[u]`` through the
    child order, gaining ``profit[c]`` per child; the fill u needs is the
    largest shortfall ``need[c] - tank`` on the way, or 0, and the tank at
    the end, less ``2 edge_len[u]``, is ``profit[u]``.  The same orders,
    expanded into an Euler walk, give the route.  On float64 columns the
    answer is exact for integer data while partial sums stay below 2**53.
    """
    tree, gas = inst.tree, inst.gas
    n, children, edge_len = tree.n, tree.children, tree.edge_len
    profit = array("d", [0.0]) * (n + 1)  # net fuel change of a trip into T(c)
    need = array("d", [0.0]) * (n + 1)  # tank needed at c's parent for that trip
    visit_order = [()] * (n + 1)

    for u in tree.post:  # the root comes last, so its worst is the answer
        ch = children[u]
        fuel, worst = gas[u], 0.0
        if ch:
            if len(ch) == 1:
                order = ch
            else:  # each child's sort key, read from the columns once
                gain, spend = [], []
                for c in ch:
                    p = profit[c]
                    if p >= 0:
                        gain.append((need[c], c))
                    else:
                        spend.append((-(need[c] + p), need[c], c))
                order = [key[-1] for key in sorted(gain) + sorted(spend)]
            for c in order:
                if need[c] - fuel > worst:
                    worst = need[c] - fuel
                fuel += profit[c]
            visit_order[u] = order
        profit[u] = fuel = fuel - 2.0 * edge_len[u]
        need[u] = max(worst + edge_len[u], -fuel)

    return worst, euler_walk(tree, tree.root, visit_order)


def simulate_route(inst, initial_fuel, walk):
    """Replay a walk from the depot; returns the minimum tank level seen.

    Gas is collected on first arrival only; each move burns its edge length.
    """
    tree, gas = inst.tree, inst.gas
    fuel = initial_fuel
    seen = set()
    low = fuel
    for pos, v in enumerate(walk):
        if pos > 0:
            fuel -= path_cost(tree, walk[pos - 1], v)
            low = min(low, fuel)
        if v not in seen:
            seen.add(v)
            fuel += gas[v]
    return low
