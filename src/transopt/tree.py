"""Rooted weighted trees and the traversals the tree solvers share.

The one post-order walk, the one leaf pass, the one Euler-walk expansion
and the one root-distance path length live here; the ovrp and fuel solvers
use them.  The leaf pass gives the leaves in DFS order, each vertex's leaves
as a slice of that order and the LCA of every leaf with its predecessor.
Vertices are 1-based externally (vertex 1 usually carries the depot) and
the arrays here are indexed accordingly: position 0 is unused.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CycleError, DisconnectedTreeError, NegativeLengthError


class RootedTree(namedtuple("RootedTree",
                            "n root parent children edge_len droot")):
    """Immutable weighted rooted tree.

    ``parent[u]`` is 0 for the root, ``edge_len[u]`` is the length of the
    edge (parent(u), u) and is 0.0 for the root.  ``children`` keeps the
    input order of each vertex's sons, which makes the DFS leaf order
    deterministic for a given edge list.
    """

    __slots__ = ()

    def is_leaf(self, u):
        return not self.children[u]

    def total_edge_len(self):
        return sum(self.edge_len[1:])


def build_rooted_tree(n, edges, root=1):
    """Build a :class:`RootedTree` from an undirected edge list.

    Raises :class:`NegativeLengthError`, :class:`CycleError` or
    :class:`DisconnectedTreeError` on malformed input.
    """
    if not (1 <= root <= n):
        raise DisconnectedTreeError(f"root {root} outside 1..{n}")
    edges = list(edges)
    if len(edges) < n - 1:  # checked before any array of n entries exists
        raise DisconnectedTreeError(f"{len(edges)} edges cannot connect {n} vertices")
    adj = [[] for _ in range(n + 1)]
    for (u, v, w) in edges:
        if w < 0:
            raise NegativeLengthError(f"edge ({u},{v}) has negative length {w}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise DisconnectedTreeError(f"edge ({u},{v}) references unknown vertex")
        if u == v:
            raise CycleError(f"self-loop at vertex {u}")
        adj[u].append((v, float(w)))
        adj[v].append((u, float(w)))

    parent = [0] * (n + 1)
    edge_len = [0.0] * (n + 1)
    droot = [0.0] * (n + 1)
    children = [[] for _ in range(n + 1)]
    seen = [False] * (n + 1)
    seen[root] = True
    order = [root]
    stack = [root]
    while stack:
        u = stack.pop()
        for (v, w) in adj[u]:
            if seen[v]:
                if v != parent[u]:
                    raise CycleError(f"cycle through edge ({u},{v})")
                continue
            seen[v] = True
            parent[v] = u
            edge_len[v] = w
            droot[v] = droot[u] + w
            children[u].append(v)
            order.append(v)
            stack.append(v)
    children = tuple(map(tuple, children))
    if len(order) != n:
        raise DisconnectedTreeError(
            f"only {len(order)} of {n} vertices reachable from root {root}"
        )
    if len(edges) != n - 1:
        # connected with more than n-1 edges: a parallel edge slipped past
        # the back-edge check (both copies look like the parent link)
        raise CycleError(f"{len(edges)} edges on {n} vertices")
    return RootedTree(
        n=n,
        root=root,
        parent=tuple(parent),
        children=children,
        edge_len=tuple(edge_len),
        droot=tuple(droot),
    )


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


def postorder(tree):
    """Every vertex after all of its descendants, children in input order."""
    order = []
    stack = [tree.root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(tree.children[u])
    order.reverse()
    return order


def euler_walk(tree, start, children=None):
    """Closed DFS walk covering T(start), beginning and ending at start.

    ``children[u]`` gives the order in which u's sons are entered; it
    defaults to the tree's own input order.
    """
    children = tree.children if children is None else children
    walk = [start]
    stack = [(start, iter(children[start]))]
    while stack:
        c = next(stack[-1][1], None)
        if c is None:
            stack.pop()
            if stack:
                walk.append(stack[-1][0])
        else:
            walk.append(c)
            stack.append((c, iter(children[c])))
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
    for u in postorder(tree):
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
