"""Rooted weighted trees and the traversals the tree solvers share.

One DFS builds the tree and its post-order; the one leaf pass, the one
Euler-walk expansion and the one root-distance path length live here too.
The leaf pass gives the leaves in DFS order, each vertex's leaves as a
slice of that order and the LCA of every leaf with its predecessor.  The
fuel route and every ovrp vehicle's route are Euler walks of the whole
tree under a child order of their own; an ovrp route stops at its end leaf.
Vertices are 1-based externally (vertex 1 usually carries the depot) and
the arrays here are indexed accordingly: position 0 is unused.
"""

from array import array
from collections import namedtuple
from itertools import accumulate

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

    One pass checks the edges and counts degrees; a second lays out one
    compressed adjacency: u's neighbours, in input order, are
    ``nbr[start[u]:start[u + 1]]``, their lengths the same slice of ``wt``.
    No reference to ``edges`` outlives it, so a handed-over list (as the CLI's)
    is freed before the DFS.  Raises :class:`NegativeLengthError`,
    :class:`CycleError` or :class:`DisconnectedTreeError` on malformed input.
    """
    if not (1 <= root <= n):
        raise DisconnectedTreeError(f"root {root} outside 1..{n}")
    if len(edges) < n - 1:  # checked before any array of n entries exists
        raise DisconnectedTreeError(f"{len(edges)} edges cannot connect {n} vertices")
    deg = [0] * (n + 2)
    for u, v, w in edges:
        if w < 0:
            raise NegativeLengthError(f"edge ({u},{v}) has negative length {float(w)}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise DisconnectedTreeError(f"edge ({u},{v}) references unknown vertex")
        if u == v:
            raise CycleError(f"self-loop at vertex {u}")
        deg[u] += 1
        deg[v] += 1

    # cursors run down from each block's end, edges last to first, so each
    # block keeps input order
    cursor = list(accumulate(deg))
    nbr = array("q", [0]) * (2 * len(edges))
    wt = array("d", [0.0]) * (2 * len(edges))
    for u, v, w in reversed(edges):
        cursor[u] = k = cursor[u] - 1
        nbr[k], wt[k] = v, w
        cursor[v] = k = cursor[v] - 1
        nbr[k], wt[k] = u, w
    del edges
    start = array("q", cursor)
    del cursor

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
        d = deg[u]
        if d == 1 and u != root:  # a leaf: its one edge is to its parent
            continue
        pu, du, a = parent[u], droot[u], start[u]
        ch = []
        for k in range(a, a + d):
            v = nbr[k]
            if parent[v] >= 0:  # also a parallel edge, seen from the parent
                if v != pu:
                    raise CycleError(f"cycle through edge ({u},{v})")
                continue
            parent[v] = u
            edge_len[v] = w = wt[k]
            droot[v] = du + w
            ch.append(v)
        children[u] = tuple(ch)
        stack += ch
    del deg, start, nbr, wt
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


def euler_walk(tree, start, children=None, stop=None):
    """DFS walk covering T(start) from start back to start, or to ``stop``
    when that is given: ``stop`` must be the last vertex the walk enters.

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
    if stop is None:
        while last != start:
            last = parent[last]
            walk.append(last)
    elif last != stop:
        raise ValueError(f"the walk enters {last} last, not {stop}")
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
