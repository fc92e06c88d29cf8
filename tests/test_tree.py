import random

import pytest

from transopt.errors import CycleError, DisconnectedTreeError, NegativeLengthError
from transopt.tree import (
    build_rooted_tree,
    euler_walk,
    leaf_ranges,
    path_cost,
    walk_cost,
)

from treegen import bushy_tree, deep_tree, random_tree, star_tree


def test_build_basic_star():
    tr = build_rooted_tree(3, [(1, 2, 2), (1, 3, 3)])
    assert tr.parent[2] == 1 and tr.parent[3] == 1
    assert tr.edge_len[2] == 2 and tr.edge_len[3] == 3
    assert tr.droot == (0.0, 0.0, 2.0, 3.0)
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


# Each input fails the edge count, the per-edge check or the DFS; the
# message names the first bad edge in edge-list order.
@pytest.mark.parametrize("n, edges, root, error, message", [
    (2, [(1, 2, -1)], 1, NegativeLengthError,
     "edge (1,2) has negative length -1.0"),
    (3, [(1, 2, 1.5), (2, 3, -2.5)], 1, NegativeLengthError,
     "edge (2,3) has negative length -2.5"),
    (3, [(1, 2, 1), (2, 4, 1)], 1, DisconnectedTreeError,
     "edge (2,4) references unknown vertex"),
    (3, [(0, 2, 1), (2, 3, 1)], 1, DisconnectedTreeError,
     "edge (0,2) references unknown vertex"),
    (3, [(1, 2, 1), (2, 2, 1)], 1, CycleError, "self-loop at vertex 2"),
    (4, [(1, 2, 1), (3, 3, 1), (1, 5, 1), (2, 4, -1)], 1, CycleError,
     "self-loop at vertex 3"),
    (3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)], 1, CycleError,
     "cycle through edge (3,2)"),
    (4, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 4, 1)], 2, CycleError,
     "cycle through edge (3,1)"),
    (2, [(1, 2, 1), (2, 1, 3)], 1, CycleError, "cycle through edge (1,2)"),
    (4, [(1, 2, 1), (3, 4, 1), (4, 3, 2)], 3, CycleError,
     "cycle through edge (3,4)"),
    (4, [(1, 2, 1), (2, 3, 1), (3, 2, 1), (1, 4, 1)], 1, CycleError,
     "cycle through edge (2,3)"),
    (4, [(1, 2, 1), (3, 4, 1), (3, 4, 2)], 1, DisconnectedTreeError,
     "only 2 of 4 vertices reachable from root 1"),
    (5, [(1, 2, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)], 1, DisconnectedTreeError,
     "only 2 of 5 vertices reachable from root 1"),
    (4, [(1, 2, 1), (3, 4, 1)], 1, DisconnectedTreeError,
     "2 edges cannot connect 4 vertices"),
    (4, [(1, 2, -1)], 1, DisconnectedTreeError,
     "1 edges cannot connect 4 vertices"),
], ids=["negative-int", "negative-float", "unknown-vertex", "vertex-zero",
        "self-loop", "first-bad-edge-wins", "cycle", "cycle-other-root",
        "parallel-edge", "parallel-edge-in-a-chain",
        "parallel-edge-below-root", "disconnected", "forest-with-a-triangle",
        "too-few-edges", "too-few-edges-before-negative"])
def test_build_errors_name_the_first_bad_edge(n, edges, root, error, message):
    with pytest.raises(error) as info:
        build_rooted_tree(n, edges, root)
    assert type(info.value) is error and str(info.value) == message


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
    leaves, lo, hi, joint = leaf_ranges(tr)
    assert leaves == [4, 5, 3]
    assert (lo[2], hi[2]) == (0, 2) and (lo[1], hi[1]) == (0, 3)


def test_consecutive_leaf_lcas():
    tr = build_rooted_tree(7, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1),
                               (3, 6, 1), (3, 7, 1)])
    leaves, _, _, joint = leaf_ranges(tr)
    assert leaves == [4, 5, 6, 7]
    assert joint == [0, 2, 1, 3]


def _ancestors(tr, v):
    """v and every vertex above it, by the parent chain."""
    out = [v]
    while tr.parent[v]:
        v = tr.parent[v]
        out.append(v)
    return out


def _dfs_leaves(tr, u):
    if not tr.children[u]:
        return [u]
    return [leaf for c in tr.children[u] for leaf in _dfs_leaves(tr, c)]


@pytest.mark.parametrize("seed", range(4))
def test_leaf_ranges_match_brute_force(seed):
    rng = random.Random(seed)
    trees = [build_rooted_tree(1, [])]
    for _ in range(60):
        n = rng.randint(2, 40)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)  # random ids, so the root is rarely vertex 1
        edges = [(labels[rng.randrange(max(0, i - rng.choice((1, 3, i))), i)],
                  labels[i], 1.0) for i in range(1, n)]
        rng.shuffle(edges)
        trees.append(build_rooted_tree(n, edges, root=labels[0]))
    for tr in trees:
        leaves, lo, hi, joint = leaf_ranges(tr)
        assert leaves == _dfs_leaves(tr, tr.root)
        assert len(joint) == len(leaves) and joint[0] == 0
        for t in range(1, len(leaves)):
            above = set(_ancestors(tr, leaves[t - 1]))
            lca = next(v for v in _ancestors(tr, leaves[t]) if v in above)
            assert joint[t] == lca
        for u in range(1, tr.n + 1):
            below = [leaf for leaf in leaves if u in _ancestors(tr, leaf)]
            assert leaves[lo[u]:hi[u]] == below
def test_postorder_children_first_in_input_order():
    tr = build_rooted_tree(6, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1),
                               (3, 6, 1)])
    assert list(tr.post) == [4, 5, 2, 6, 3, 1]
    assert list(build_rooted_tree(1, []).post) == [1]


def test_euler_walk_default_and_given_child_orders():
    tr = build_rooted_tree(5, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1)])
    assert euler_walk(tr, 1) == [1, 2, 4, 2, 5, 2, 1, 3, 1]
    assert euler_walk(tr, 2) == [2, 4, 2, 5, 2]
    assert euler_walk(tr, 4) == [4]
    flipped = [tuple(reversed(ch)) for ch in tr.children]
    assert euler_walk(tr, 1, flipped) == [1, 3, 1, 2, 5, 2, 4, 2, 1]


def _reference_post(children, u):
    return [w for c in children[u] for w in _reference_post(children, c)] + [u]


def _reference_euler(children, u):
    walk = [u]
    for c in children[u]:
        walk += _reference_euler(children, c) + [u]
    return walk


def _shuffled_tree(rng, n, shape):
    """(edges, root): a deep, bushy or star tree on shuffled labels, its
    edges in random order with random endpoint order, and a random root."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = []
    for i in range(1, n):
        if shape == "deep":
            j = rng.randrange(max(0, i - 3), i)
        else:
            j = rng.randrange(i) if shape == "bushy" else 0
        u, v = labels[j], labels[i]
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v, rng.choice((0, 1, 2.5, 7))))
    rng.shuffle(edges)
    return edges, rng.randint(1, n)


@pytest.mark.parametrize("shape", ["deep", "bushy", "star"])
def test_one_dfs_matches_reference_walks(shape):
    rng = random.Random(shape)
    for _ in range(40):
        n = rng.randint(1, 60)
        edges, root = _shuffled_tree(rng, n, shape)
        tr = build_rooted_tree(n, edges, root)
        # children keep edge-list order; lengths are floats; droot adds up
        for u in range(1, n + 1):
            incident = [(b if a == u else a, float(w)) for a, b, w in edges
                        if u in (a, b)]
            assert tr.children[u] == tuple(v for v, _ in incident
                                           if v != tr.parent[u])
            for v, w in incident:
                if v in tr.children[u]:
                    assert tr.parent[v] == u and tr.edge_len[v] == w
                    assert type(tr.edge_len[v]) is float
                    assert tr.droot[v] == tr.droot[u] + w
        assert list(tr.post) == _reference_post(tr.children, root)
        starts = [root, rng.randint(1, n)]
        for start in starts:
            assert euler_walk(tr, start) == _reference_euler(tr.children, start)
        for _ in range(3):
            # a random order of a random subset of each vertex's children,
            # as the ovrp and fuel routes pass
            order = {u: rng.sample(ch, rng.randint(0, len(ch)))
                     for u, ch in enumerate(tr.children)}
            for start in starts:
                assert euler_walk(tr, start, order) == \
                    _reference_euler(order, start)
            # a walk given the last vertex it enters stops there; given any
            # other vertex it raises
            last = root
            while order[last]:
                last = order[last][-1]
            ref = _reference_euler(order, root)
            assert euler_walk(tr, root, order, last) == \
                ref[:ref.index(last) + 1]
            stop = rng.randint(1, n)
            if stop != last:
                with pytest.raises(ValueError, match=f"enters {last} last"):
                    euler_walk(tr, root, order, stop)


def _reference_build(n, edges, root):
    """``(n, root, parent, children, edge_len, droot, post)`` from one list
    of ``(neighbour, length)`` pairs per vertex, walked by the same stack
    DFS as the build, so a malformed list raises the same error."""
    if not (1 <= root <= n):
        raise DisconnectedTreeError(f"root {root} outside 1..{n}")
    if len(edges) < n - 1:
        raise DisconnectedTreeError(f"{len(edges)} edges cannot connect {n} vertices")
    adj = [[] for _ in range(n + 1)]
    for u, v, w in edges:
        if w < 0:
            raise NegativeLengthError(f"edge ({u},{v}) has negative length {float(w)}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise DisconnectedTreeError(f"edge ({u},{v}) references unknown vertex")
        if u == v:
            raise CycleError(f"self-loop at vertex {u}")
        adj[u].append((v, float(w)))
        adj[v].append((u, float(w)))
    parent = [0] + [-1] * n
    parent[root] = 0
    edge_len, droot = [0.0] * (n + 1), [0.0] * (n + 1)
    children = [()] * (n + 1)
    pre, stack = [], [root]
    while stack:
        u = stack.pop()
        pre.append(u)
        ch = []
        for v, w in adj[u]:
            if parent[v] >= 0:
                if v != parent[u]:
                    raise CycleError(f"cycle through edge ({u},{v})")
                continue
            parent[v], edge_len[v], droot[v] = u, w, droot[u] + w
            ch.append(v)
        children[u] = tuple(ch)
        stack += ch
    if len(pre) != n:
        raise DisconnectedTreeError(
            f"only {len(pre)} of {n} vertices reachable from root {root}")
    return (n, root, tuple(parent), tuple(children), tuple(edge_len),
            tuple(droot), tuple(reversed(pre)))


def _scrambled_edge_lists():
    """(n, edges, root) for seeded trees of every generator: edges in random
    order with random endpoint order, about a third of them of length 0,
    and a random root."""
    rng = random.Random(43)
    sizes = [rng.randint(1, 60) for _ in range(30)] + [300, 800]
    for n in sizes:
        for tr in (deep_tree(rng, n, True), bushy_tree(rng, n, False),
                   star_tree(rng, n, True), random_tree(rng, n, 3)):
            edges = []
            for v in range(2, n + 1):
                u, w = tr.parent[v], tr.edge_len[v]
                if rng.random() < 0.5:
                    u, v = v, u
                edges.append((u, v, 0 if rng.random() < 0.3 else w))
            rng.shuffle(edges)
            yield n, edges, rng.randint(1, n)


def test_build_matches_the_per_vertex_list_reference():
    for n, edges, root in _scrambled_edge_lists():
        tr = build_rooted_tree(n, edges, root)
        assert tuple(tr) == _reference_build(n, edges, root)
        assert all(type(w) is float for w in tr.edge_len + tr.droot)


def _malformed(rng, n, edges):
    """One edge list per kind of fault, each made from ``edges`` at a
    random place in it."""
    def at(i, e):
        return edges[:i] + [e] + edges[i + 1:]
    i, j = rng.randrange(len(edges)), rng.randrange(len(edges) + 1)
    u, v, w = edges[i]
    other = rng.randint(1, n)
    yield "vertex-0", at(i, (0, v, w))
    yield "vertex-n+1", at(i, (u, n + 1, w))
    yield "negative-length", at(i, (u, v, -1.5))
    yield "self-loop", at(i, (u, u, w))
    yield "repeated-edge", edges[:j] + [(v, u, w)] + edges[j:]
    if other not in (u, v):
        yield "cycle", edges[:j] + [(other, u, w)] + edges[j:]
    # one edge removed, one repeated: n - 1 edges, a 2-cycle and a cut
    yield "forest", [e for k, e in enumerate(edges) if k != i] + [edges[i - 1]]
    yield "too-few-edges", edges[:i] + edges[i + 1:]


def test_malformed_lists_raise_the_reference_error():
    rng = random.Random(44)
    kinds = set()
    for n, edges, root in _scrambled_edge_lists():
        if n < 3:
            continue
        for kind, bad in _malformed(rng, n, edges):
            with pytest.raises((CycleError, DisconnectedTreeError,
                                NegativeLengthError)) as ref:
                _reference_build(n, bad, root)
            with pytest.raises(type(ref.value)) as got:
                build_rooted_tree(n, bad, root)
            assert type(got.value) is type(ref.value), kind
            assert str(got.value) == str(ref.value), kind
            kinds.add((kind, type(ref.value)))
    assert len(kinds) >= 9  # the forest and the cycle raise more than one kind
