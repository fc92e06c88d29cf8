"""Relaxed open vehicle routing on trees.

p vehicles start at the root depot, every vertex must be visited, routes may
end anywhere, and the objective is the total length of all routes.  Four
solvers of decreasing complexity are provided; all agree on the optimum.
"""

import math
from collections import namedtuple
from itertools import accumulate, compress
from operator import add, lt, sub

from .tree import euler_walk, leaf_ranges

INF = math.inf


class OvrpInstance(namedtuple("OvrpInstance", "tree p")):
    """p vehicles on a :class:`~transopt.tree.RootedTree`."""

    __slots__ = ()

    def __new__(cls, tree, p):
        if p < 1:
            raise ValueError(f"vehicle count must be >= 1, got {p}")
        return super().__new__(cls, tree, p)


OvrpSolution = namedtuple("OvrpSolution", "total_cost routes vehicles_used")


def _vehicle_bound(inst):
    """``inst.p`` capped at the leaf count; the DPs take the best over "at
    most p" vehicles, and a vehicle beyond one per leaf never helps."""
    return min(inst.p, inst.tree.children[1:].count(()))


def solve_greedy(inst):
    """Red/blue greedy improvement of the single-vehicle double traversal.

    Starting from one vehicle traversing every edge twice, each step routes a
    fresh vehicle towards the red leaf with the most negative improvement
    delta = path_cost(root, cb) - path_cost(cb, leaf), where cb is the leaf's
    closest blue ancestor.  Ties pick the smallest leaf id.

    ``2 droot[cb]`` is kept per leaf and rewritten, by slices of the DFS leaf
    order, only under the vertices a step turns blue, so a step costs
    O(leaves) however deep the tree.
    """
    tree, p = inst.tree, inst.p
    n, root = tree.n, tree.root
    if n == 1:
        return OvrpSolution(0.0, [[root]], 1)

    droot, parent = tree.droot, tree.parent
    owner = [-1] * (n + 1)  # the vehicle that turned the vertex blue; -1: red
    owner[root] = 0
    leaves, lo, hi, _ = leaf_ranges(tree)
    dleaf = [droot[leaf] for leaf in leaves]
    # 2 droot of each leaf's closest blue ancestor; inf once the leaf is blue
    twice_cb = [2.0 * droot[root]] * len(leaves)
    total = 2.0 * tree.total_edge_len()
    ends = []  # each vehicle's end leaf

    for _ in range(p):
        deltas = list(map(sub, twice_cb, dleaf))
        best_delta = min(deltas)
        if best_delta == INF:  # every leaf is blue
            break
        # the first step is always taken (delta <= 0 by construction, and a
        # delta of exactly 0 still yields the canonical one-vehicle route)
        if ends and best_delta >= 0:
            break
        best_leaf = min(compress(leaves, map(best_delta.__eq__, deltas)))
        vid = len(ends)
        owner[best_leaf] = vid
        twice_cb[lo[best_leaf]] = INF
        v, u = best_leaf, parent[best_leaf]
        while owner[u] < 0:
            owner[u] = vid
            d2 = 2.0 * droot[u]
            twice_cb[lo[u]:lo[v]] = [d2] * (lo[v] - lo[u])
            twice_cb[hi[v]:hi[u]] = [d2] * (hi[u] - hi[v])
            v, u = u, parent[u]
        total += best_delta
        ends.append(best_leaf)

    # a vehicle covers whole the red subtrees that hang off the vertices it
    # owns, and nothing else beside its own path
    children = tree.children
    order = list(children)
    routes = [_route(tree, order, leaf, lambda v, vid=vid:
                     [c for c in children[v] if owner[c] < 0]
                     if owner[v] == vid else [])
              for vid, leaf in enumerate(ends)]
    return OvrpSolution(total, routes, len(ends))


def solve_knapsack_v1(inst):
    """O(p^4 n) tree-knapsack dynamic program; returns the optimal cost only.

    State C(u, P_in, P_out): cheapest traversal of T(u) with P_in vehicles
    entering and P_out of them leaving, merged child by child.
    """
    tree, p = inst.tree, _vehicle_bound(inst)

    def fresh():
        return [
            [0.0 if 1 <= pi and po <= pi else INF for po in range(p + 1)]
            for pi in range(p + 1)
        ]

    table = {}
    for u in tree.post:
        cur = fresh()
        for child in tree.children[u]:
            l = tree.edge_len[child]
            cc = table.pop(child)
            aux = [[INF] * (p + 1) for _ in range(p + 1)]
            for pi in range(1, p + 1):
                row = cur[pi]
                arow = aux[pi]
                for po in range(pi + 1):
                    base = row[po]
                    if base == INF:
                        continue
                    for cpi in range(1, pi + 1):
                        crow = cc[cpi]
                        for cpo in range(cpi + 1):
                            stay = cpi - cpo
                            if po < stay or crow[cpo] == INF:
                                continue
                            cand = base + crow[cpo] + (cpi + cpo) * l
                            if cand < arow[po - stay]:
                                arow[po - stay] = cand
            cur = aux
        table[u] = cur
    rt = table[tree.root]
    return min(rt[pi][0] for pi in range(1, p + 1))


def solve_knapsack_v2(inst):
    """O(p n + p^2 leaves) variant: at most one vehicle ever leaves a subtree.

    ``cur[P_out][P_in]`` is the cheapest partial traversal of T(u) with P_in
    vehicles entering and P_out (0 or 1) of them leaving, merged child by
    child.  A leaf keeps ``base``; any other vertex starts from its first
    child's running minimum, O(p), and merges each later child in O(p^2).
    """
    tree, p = inst.tree, _vehicle_bound(inst)
    base, first, merge = _merges(p)
    edge_len, children = tree.edge_len, tree.children
    table = {}
    for u in tree.post:
        kids = children[u]
        cur = first(table.pop(kids[0]), edge_len[kids[0]]) if kids else base
        for child in kids[1:]:
            cur = merge(cur, table.pop(child), edge_len[child])
        table[u] = cur
    return float(min(table[tree.root][0][1:]))


def _merges(p):
    """(base, first, merge) on pairs of Python lists.

    A child with edge length l costs ``t0[d] = k0[d] + d l`` when it takes d
    vehicles that all stay, and ``t1[d] = (k1[d] + d l) + l`` when one of
    them leaves again; ``m[d] = min(t0[d], t1[d + 1])`` pays the cheaper way
    to consume d vehicles net.  With i vehicles already in the parent, the
    parent's leave-state changes as the leaving vehicle stays in the child
    (``m[d + 1]``) or comes out of it (``m[d - 1]``), so

        new0[s] = min over i + d = s of m[d] + c0[i], m[d + 1] + c1[i]
        new1[s] = min over i + d = s of m[d] + c1[i], m[d - 1] + c0[i]

    with m = inf outside 0..p.  Each min runs over ``m`` reversed, sliced
    to start at d = s, against ``c`` from i = 0; ``map`` stops at the
    shorter of the two.  P_in = 0 is always inf: no vehicle enters.

    ``first(child, l)`` is ``merge(base, child, l)``: both rows of ``base``
    are 0.0 past i = 0, so ``new0[s] = min(m[0..s])`` and ``new1[s] =
    min(m[0..s-1])``, one running minimum.  Adding 0.0 changes no ``m``
    entry, since none is -0.0, so the two give the same floats.
    """
    base = ([INF] + [0.0] * p,) * 2
    pad = [INF]
    sizes = range(1, p + 1)

    def consume(child, l):
        k0, k1 = child
        t0 = [x + d * l for d, x in enumerate(k0)]
        t1 = [(x + d * l) + l for d, x in enumerate(k1)]
        m = [y if y < x else x for x, y in zip(t0, t1[1:])]
        m.append(t0[p])
        return m

    def first(child, l):
        low = list(accumulate(consume(child, l), min))
        return [INF] + low[1:], [INF] + low[:-1]

    def merge(cur, child, l):
        c0, c1 = cur
        mr = consume(child, l)[::-1]  # mr[p - d] = m[d]
        up, down = pad + mr, mr + pad  # m[d + 1] and m[d - 1] at p - d
        n0, n1 = [INF], [INF]
        for s in sizes:
            stay = mr[p - s:]
            x = min(map(add, stay, c0))
            y = min(map(add, up[p - s:], c1))
            n0.append(y if y < x else x)
            x = min(map(add, stay, c1))
            y = min(map(add, down[p - s + 1:], c0))
            n1.append(y if y < x else x)
        return n0, n1

    return base, first, merge


def _route(tree, order, end_leaf, covered, bounds=()):
    """One vehicle's route: the :func:`~transopt.tree.euler_walk` of the
    tree under ``order`` (``tree.children`` as a list that all routes
    share), stopped at ``end_leaf``.  During the walk each vertex with
    two or more sons on the root paths of ``end_leaf`` and ``bounds`` takes
    ``covered(v)``: a new list of the sons covered, in input order, and on
    ``end_leaf``'s path the son towards it last.  The rest is covered whole."""
    parent, children = tree.parent, tree.children
    changed = []
    v, nxt = parent[end_leaf], end_leaf
    while v:  # up to the root, whose parent is 0
        if len(children[v]) > 1:  # else its one son is nxt
            order[v] = kids = covered(v)
            if nxt in kids:
                kids.remove(nxt)
            kids.append(nxt)
            changed.append(v)
        v, nxt = parent[v], v
    for leaf in bounds:  # up to a vertex whose order is already set
        if leaf == end_leaf:  # its whole path is set above
            continue
        v = parent[leaf]
        while v and order[v] is children[v]:
            if len(children[v]) > 1:
                order[v] = covered(v)
                changed.append(v)
            v = parent[v]
    walk = euler_walk(tree, tree.root, order, end_leaf)
    for v in changed:
        order[v] = children[v]
    return walk


def solve_leaf_interval(inst):
    """O(p n) leaf-interval dynamic program with route reconstruction.

    Every vehicle serves a contiguous block of leaves in DFS order; trailing
    leaves of a block may be covered by down-and-back detours so the route
    still ends at the block's last through-leaf.

    ``c1[j - 1]`` is the cheapest cover of the leaves so far by j vehicles
    whose last one ends at the current leaf, ``c0[j - 1]`` the same when it
    may end earlier.  Both rows have p entries and are rebuilt per leaf; the
    backtrack keeps one ``bytes`` row of choices per leaf for each.
    """
    tree = inst.tree
    droot = tree.droot
    leaves, lo, hi, joint = leaf_ranges(tree)
    k = len(leaves)
    p = min(inst.p, k)  # as in _vehicle_bound

    c1 = [droot[leaves[0]]] * p
    c0 = c1
    new_veh = [b""]  # new_veh[i][j - 1]: leaf i starts vehicle j
    detour = [b""]  # detour[i][j - 1]: leaf i is a detour
    prev = droot[leaves[0]]
    for leaf, lca in zip(leaves[1:], joint[1:]):
        d, da = droot[leaf], droot[lca]
        cont = prev + d - 2.0 * da
        cand_a = [x + cont for x in c1]
        cand_b = [INF] + [x + d for x in c0[:-1]]
        new_veh.append(bytes(map(lt, cand_b, cand_a)))
        c1 = [y if y < x else x for x, y in zip(cand_a, cand_b)]
        back = 2.0 * (d - da)
        cand_c = [x + back for x in c0]
        detour.append(bytes(map(lt, cand_c, c1)))
        c0 = [y if y < x else x for x, y in zip(c1, cand_c)]
        prev = d

    # backtrack from the last leaf: each vehicle's block leaves[first:last]
    # and the position of its end leaf, the last vehicle first
    blocks = []
    i, j, last, end = k - 1, p - 1, k, None
    while i:
        if end is None:  # on the block's trailing detours
            if not detour[i][j]:
                end = i
                continue
        elif new_veh[i][j]:
            blocks.append((i, end, last))
            last, end = i, None
            j -= 1
        i -= 1
    blocks.append((0, 0 if end is None else end, last))

    # a vehicle serving leaves[first:last] covers the sons whose leaves
    # meet its block; a vertex where it covers only some sons lies on the
    # root path of the block's first or last leaf
    children = tree.children
    order = list(children)
    routes = [_route(tree, order, leaves[end], lambda v, first=first, last=last:
                     [c for c in children[v] if lo[c] < last and first < hi[c]],
                     (leaves[first], leaves[last - 1]))
              for first, end, last in reversed(blocks)]
    return OvrpSolution(c0[-1], routes, len(blocks))
