"""Rooted weighted trees and the traversals the tree solvers share.

One DFS builds the tree and its post-order; the one leaf pass, the one
Euler-walk expansion and the one root-distance path length live here too.
The leaf pass gives the leaves in DFS order, each vertex's leaves as a
slice of that order and the LCA of every leaf with its predecessor.
Vertices are 1-based externally (vertex 1 usually carries the depot) and
the arrays here are indexed accordingly: position 0 is unused.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CycleError, DisconnectedTreeError, NegativeLengthError


class RootedTree(namedtuple("RootedTree",
                            "n root parent children edge_len droot post")):
    """Immutable weighted rooted tree.

    ``parent[u]`` is 0 for the root, ``edge_len[u]`` is the length of the
    edge (parent(u), u) and is 0.0 for the root.  ``children`` keeps the
    input order of each vertex's sons; ``post`` lists every vertex after its
    descendants, children in that order.
    """

    __slots__ = ()

    def is_leaf(self, u):
        return not self.children[u]

    def total_edge_len(self):
        return sum(self.edge_len[1:])


def build_rooted_tree(n, edges, root=1):
    """Build a :class:`RootedTree` from a list of (u, v, length) edges.

    No reference to ``edges`` outlives the adjacency loop, so when the caller
    hands over its only reference (as the CLI does), the edge lists are freed
    before the DFS allocates the tree's arrays.  Raises
    :class:`NegativeLengthError`, :class:`CycleError` or
    :class:`DisconnectedTreeError` on malformed input.
    """
    if not (1 <= root <= n):
        raise DisconnectedTreeError(f"root {root} outside 1..{n}")
    if len(edges) < n - 1:  # checked before any array of n entries exists
        raise DisconnectedTreeError(f"{len(edges)} edges cannot connect {n} vertices")
    adj = [[] for _ in range(n + 1)]  # flat: [v, length, v, length, ...]
    for u, v, w in edges:
        if w < 0:
            raise NegativeLengthError(f"edge ({u},{v}) has negative length {float(w)}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise DisconnectedTreeError(f"edge ({u},{v}) references unknown vertex")
        if u == v:
            raise CycleError(f"self-loop at vertex {u}")
        w = float(w)
        adj[u] += v, w
        adj[v] += u, w
    del edges

    parent = [0] + [-1] * n  # -1 until the DFS reaches the vertex
    parent[root] = 0
    edge_len = [0.0] * (n + 1)
    droot = [0.0] * (n + 1)
    children = [()] * (n + 1)
    post = []  # pre-order with the last child first; reversed below
    stack = [root]
    while stack:
        u = stack.pop()
        post.append(u)
        a = adj[u]
        if len(a) == 2 and u != root:  # a leaf: its one edge is to its parent
            continue
        pu, du = parent[u], droot[u]
        ch = []
        it = iter(a)
        for v, w in zip(it, it):
            if parent[v] >= 0:  # also a parallel edge, seen from the parent
                if v != pu:
                    raise CycleError(f"cycle through edge ({u},{v})")
                continue
            parent[v] = u
            edge_len[v] = w
            droot[v] = du + w
            ch.append(v)
        children[u] = tuple(ch)
        stack += ch
    del adj
    if len(post) != n:
        raise DisconnectedTreeError(
            f"only {len(post)} of {n} vertices reachable from root {root}")
    return RootedTree(n, root, tuple(parent), tuple(children),
                      tuple(edge_len), tuple(droot), tuple(reversed(post)))


def path_cost(tree, u, v):
    """Length of the tree path between an ancestor-descendant pair, O(1).

    The caller guarantees one endpoint is an ancestor of the other.
    """
    return abs(tree.droot[u] - tree.droot[v])


def walk_cost(tree, walk):
    """Length of a walk whose consecutive entries are adjacent vertices."""
    total = 0.0
    for a, b in zip(walk, walk[1:]):
        total += path_cost(tree, a, b)
    return total


def euler_walk(tree, start, children=None):
    """Closed DFS walk covering T(start), beginning and ending at start.

    ``children[u]`` gives the order in which u's sons are entered; it
    defaults to the tree's own input order.  Vertices are entered in
    pre-order off one stack, climbing parent links up to each one's parent.
    """
    children = tree.children if children is None else children
    parent = tree.parent
    walk = []
    stack = [start]
    last = parent[start]
    while stack:
        v = stack.pop()
        up = parent[v]
        while last != up:
            last = parent[last]
            walk.append(last)
        walk.append(v)
        last = v
        stack += children[v][::-1]
    while last != start:
        last = parent[last]
        walk.append(last)
    return walk


def leaf_ranges(tree):
    """The DFS leaf structure, from one pass over the post-order.

    Returns ``(leaves, lo, hi, joint)``: the leaves in the order a DFS that
    respects child order reaches them; each vertex's leaves as the slice
    ``leaves[lo[u]:hi[u]]``; and ``joint[t]``, the LCA of ``leaves[t]`` and
    ``leaves[t - 1]`` (``joint[0]`` is 0).  That LCA is the vertex u whose
    children, past the first, include one whose first leaf is
    ``leaves[t]``.
    """
    children = tree.children
    lo = [0] * (tree.n + 1)
    hi = [0] * (tree.n + 1)
    joint = [0] * (tree.n + 1)
    leaves = []
    for u in tree.post:
        ch = children[u]
        if ch:
            lo[u], hi[u] = lo[ch[0]], hi[ch[-1]]
            for c in ch[1:]:
                joint[lo[c]] = u
        else:
            lo[u] = len(leaves)
            leaves.append(u)
            hi[u] = len(leaves)
    del joint[len(leaves):]
    return leaves, lo, hi, joint
