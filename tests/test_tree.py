import pytest

from transopt.errors import CycleError, DisconnectedTreeError, NegativeLengthError
from transopt.tree import (
    build_rooted_tree,
    consecutive_leaf_lcas,
    euler_walk,
    leaves_dfs_order,
    path_cost,
    postorder,
    walk_cost,
)


def test_build_basic_star():
    tr = build_rooted_tree(3, [(1, 2, 2), (1, 3, 3)])
    assert tr.parent[2] == 1 and tr.parent[3] == 1
    assert tr.edge_len[2] == 2 and tr.edge_len[3] == 3
    assert tr.droot == (0.0, 0.0, 2.0, 3.0)
    assert tr.depth[3] == 1
    assert tr.is_leaf(2) and not tr.is_leaf(1)
    assert tr.total_edge_len() == 5


def test_build_single_vertex():
    tr = build_rooted_tree(1, [])
    assert tr.root == 1 and tr.n == 1
    assert tr.is_leaf(1)


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedTreeError):
        build_rooted_tree(4, [(1, 2, 1), (3, 4, 1)])


def test_build_rejects_cycle():
    with pytest.raises(CycleError):
        build_rooted_tree(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])


def test_build_rejects_self_loop_and_parallel_edge():
    with pytest.raises(CycleError):
        build_rooted_tree(2, [(1, 1, 1)])
    with pytest.raises(CycleError):
        build_rooted_tree(2, [(1, 2, 1), (2, 1, 3)])


def test_build_rejects_negative_length():
    with pytest.raises(NegativeLengthError):
        build_rooted_tree(2, [(1, 2, -1)])


def test_path_cost_ancestor_pairs():
    tr = build_rooted_tree(4, [(1, 2, 5), (2, 3, 2), (3, 4, 1)])
    assert path_cost(tr, 1, 4) == 8
    assert path_cost(tr, 4, 2) == 3
    assert path_cost(tr, 3, 3) == 0


def test_walk_cost_sums_steps_both_ways():
    tr = build_rooted_tree(4, [(1, 2, 5), (2, 3, 2), (2, 4, 1)])
    assert walk_cost(tr, [1, 2, 3, 2, 4]) == 10
    assert walk_cost(tr, [4]) == 0


def test_children_are_tuples_and_tree_hashes():
    for tr in (build_rooted_tree(3, [(1, 2, 1.0), (1, 3, 2.0)]),
               build_rooted_tree(3, [(2, 1, 1.0), (2, 3, 2.0)], root=2),
               build_rooted_tree(1, [])):
        assert all(type(ch) is tuple for ch in tr.children)
        assert hash(tr) == hash(build_rooted_tree(
            tr.n, [(tr.parent[v], v, tr.edge_len[v])
                   for v in range(1, tr.n + 1) if v != tr.root], tr.root))


def test_leaves_follow_child_insertion_order():
    # children keep edge-list order, so the DFS leaf order is deterministic
    tr = build_rooted_tree(5, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1)])
    assert leaves_dfs_order(tr) == [4, 5, 3]


def test_consecutive_leaf_lcas():
    tr = build_rooted_tree(7, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1),
                               (3, 6, 1), (3, 7, 1)])
    leaves = leaves_dfs_order(tr)
    assert leaves == [4, 5, 6, 7]
    assert consecutive_leaf_lcas(tr, leaves) == [2, 1, 3]


def test_postorder_children_first_in_input_order():
    tr = build_rooted_tree(6, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1),
                               (3, 6, 1)])
    assert postorder(tr) == [4, 5, 2, 6, 3, 1]
    assert postorder(build_rooted_tree(1, [])) == [1]


def test_euler_walk_default_and_given_child_orders():
    tr = build_rooted_tree(5, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1)])
    assert euler_walk(tr, 1) == [1, 2, 4, 2, 5, 2, 1, 3, 1]
    assert euler_walk(tr, 2) == [2, 4, 2, 5, 2]
    assert euler_walk(tr, 4) == [4]
    flipped = [tuple(reversed(ch)) for ch in tr.children]
    assert euler_walk(tr, 1, flipped) == [1, 3, 1, 2, 5, 2, 4, 2, 1]
