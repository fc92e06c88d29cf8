"""Exact solvers for tree vehicle routing, fuel caching and polygon paths.

Public names load their submodule on first access (PEP 562), so a process
that needs one solver does not import the others, nor numpy unless an
interval DP passes its size gate in ``transopt.rows``.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "BudgetUnreachableError",
        "CycleError",
        "DisconnectedTreeError",
        "InfeasibleError",
        "InvalidPolygonError",
        "NegativeLengthError",
        "PlanInfeasibleError",
        "SizeLimitError",
        "TransoptError",
        "ValidationError",
    ), "errors"),
    **dict.fromkeys((
        "FuelInstance",
        "make_fuel_instance",
        "min_initial_fuel",
        "simulate_route",
    ), "fuel"),
    **dict.fromkeys((
        "CurveInstance",
        "SimplePolygon",
        "curve_ham_path",
        "curve_weighted_ham_path",
        "shortest_ham_path_fixed_start",
        "shortest_ham_path_free_start",
        "visibility_matrix",
    ), "hampath"),
    **dict.fromkeys((
        "JeepGraph",
        "JeepParams",
        "Subdivision",
        "continuous_optimum",
        "equal_subdivision",
        "eval_equal_fast",
        "eval_equal_naive",
        "eval_subdivision_exact",
        "graph_free_depots",
        "graph_min_gas_backward",
        "graph_min_gas_binary_forward",
        "graph_vertex_depots_continuous",
        "threshold_search",
    ), "jeep"),
    **dict.fromkeys(("single_vehicle_closed_form",), "oracles"),
    **dict.fromkeys((
        "OvrpInstance",
        "OvrpSolution",
        "solve_greedy",
        "solve_knapsack_v1",
        "solve_knapsack_v2",
        "solve_leaf_interval",
    ), "ovrp"),
    **dict.fromkeys(("RootedTree", "build_rooted_tree"), "tree"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # An AttributeError for names outside the table lets
    # ``from transopt import <submodule>`` fall back to importing it.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
