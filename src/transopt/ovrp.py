"""Relaxed open vehicle routing on trees.

p vehicles start at the root depot, every vertex must be visited, routes may
end anywhere, and the objective is the total length of all routes.  Four
solvers of decreasing complexity are provided; all agree on the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# numpy is imported inside the solvers that use it, so greedy and dp1 runs
# never load it
from .tree import (RootedTree, consecutive_leaf_lcas, euler_walk,
                   leaves_dfs_order, postorder)

INF = math.inf


@dataclass(frozen=True)
class OvrpInstance:
    tree: RootedTree
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"vehicle count must be >= 1, got {self.p}")


@dataclass
class OvrpSolution:
    total_cost: float
    routes: list
    vehicles_used: int


def route_cost(tree, walk):
    """Sum of edge lengths along consecutive walk entries (adjacency assumed)."""
    total = 0.0
    for a, b in zip(walk, walk[1:]):
        total += abs(tree.droot[a] - tree.droot[b])
    return total


def single_vehicle_closed_form(inst):
    """Optimum for p=1: every edge twice, minus the longest root-leaf distance."""
    tree = inst.tree
    if tree.n == 1:
        return 0.0
    deepest = max(tree.droot[l] for l in leaves_dfs_order(tree))
    return 2.0 * tree.total_edge_len() - deepest


def _vehicle_bound(inst):
    """``inst.p`` capped at the leaf count; the DPs take the best over "at
    most p" vehicles, and a vehicle beyond one per leaf never helps."""
    return min(inst.p, len(leaves_dfs_order(inst.tree)))


def solve_greedy(inst):
    """Red/blue greedy improvement of the single-vehicle double traversal.

    Starting from one vehicle traversing every edge twice, each step routes a
    fresh vehicle towards the red leaf with the most negative improvement
    delta = path_cost(root, cb) - path_cost(cb, leaf), where cb is the leaf's
    closest blue ancestor.  Ties pick the smallest leaf id.
    """
    tree, p = inst.tree, inst.p
    n, root = tree.n, tree.root
    if n == 1:
        return OvrpSolution(0.0, [[root]], 1)

    droot, parent = tree.droot, tree.parent
    blue = [False] * (n + 1)
    blue[root] = True
    owner = [-1] * (n + 1)
    owner[root] = 0
    leaves = leaves_dfs_order(tree)
    total = 2.0 * tree.total_edge_len()
    segments = []

    for _ in range(p):
        best_leaf, best_cb, best_delta = 0, 0, INF
        for leaf in leaves:
            if blue[leaf]:
                continue
            v = parent[leaf]
            while not blue[v]:
                v = parent[v]
            delta = 2.0 * droot[v] - droot[leaf]
            if delta < best_delta or (delta == best_delta and leaf < best_leaf):
                best_leaf, best_cb, best_delta = leaf, v, delta
        if best_leaf == 0:
            break
        # the first step is always taken (delta <= 0 by construction, and a
        # delta of exactly 0 still yields the canonical one-vehicle route)
        if segments and best_delta >= 0:
            break
        vid = len(segments)
        v = best_leaf
        while v != best_cb:
            blue[v] = True
            owner[v] = vid
            v = parent[v]
        total += best_delta
        segments.append((best_cb, best_leaf))

    routes = []
    for vid, (cb, leaf) in enumerate(segments):
        # root -> cb prefix (edges owned by earlier vehicles, paid again)
        prefix = []
        v = cb
        while v != root:
            prefix.append(v)
            v = parent[v]
        prefix.append(root)
        prefix.reverse()
        descent = []
        v = leaf
        while v != cb:
            descent.append(v)
            v = parent[v]
        descent.reverse()
        walk = []
        for v in prefix + descent:
            walk.append(v)
            if owner[v] == vid:
                for c in tree.children[v]:
                    if not blue[c]:
                        walk.extend(euler_walk(tree, c))
                        walk.append(v)
        routes.append(walk)
    return OvrpSolution(total, routes, len(segments))


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
    for u in postorder(tree):
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


def _minplus(avec, evec):
    """v[s] = min over i+d=s of avec[i] + evec[d]  (entries may be +inf)."""
    import numpy as np
    p = len(avec) - 1
    m = avec[:, None] + evec[None, :]
    r = np.full((p + 1, 2 * p + 1), INF)
    cols = np.arange(p + 1)[None, :] + np.arange(p + 1)[:, None]
    r[np.arange(p + 1)[:, None], cols] = m
    return r.min(axis=0)


def solve_knapsack_v2(inst):
    """O(p^2 n) variant: at most one vehicle ever leaves a subtree."""
    import numpy as np
    tree, p = inst.tree, _vehicle_bound(inst)
    base = np.full((p + 1, 2), INF)
    base[1:, :] = 0.0

    table = {}
    for u in postorder(tree):
        cur = base.copy()
        for child in tree.children[u]:
            l = tree.edge_len[child]
            cc = table.pop(child)
            # t[P'in, P'out] = child cost + edge crossings
            t = cc + np.arange(p + 1)[:, None] * l + np.array([0.0, l])[None, :]
            # collapse child states to their net vehicle consumption
            # d = P'in - P'out
            e_all = np.full(p + 1, INF)
            e_all[1:] = t[1:, 0]
            e_all[: p] = np.minimum(e_all[: p], t[1:, 1])
            e_pos = e_all.copy()
            e_pos[0] = INF  # P'in > P'out forces d >= 1

            aux = np.full((p + 1, 2), INF)
            # family 1: vehicle that was leaving u's partial subtree is the
            # one entering the child and staying there
            v = _minplus(cur[:, 1], e_pos)
            aux[1:, 0] = np.minimum(aux[1:, 0], v[2 : p + 2])
            # family 2: the leaving vehicle comes out of the child
            v = _minplus(cur[:, 0], e_all)
            aux[2:, 1] = np.minimum(aux[2:, 1], v[1:p])
            # family 3: child consumes extra vehicles, leave-state unchanged
            for col in (0, 1):
                v = _minplus(cur[:, col], e_all)
                aux[1:, col] = np.minimum(aux[1:, col], v[1 : p + 1])
            cur = aux
        table[u] = cur
    rt = table[tree.root]
    best = rt[1:, 0].min()
    return float(best)


def _vehicle_walk(tree, leaf_ids, end_leaf):
    """Walk from root covering the union of root paths to ``leaf_ids``,
    traversing the root->end_leaf spine once and everything else twice."""
    parent = tree.parent
    covered = set()
    for leaf in leaf_ids:
        v = leaf
        while v not in covered:
            covered.add(v)
            if v == tree.root:
                break
            v = parent[v]
    spine = set()
    v = end_leaf
    while True:
        spine.add(v)
        if v == tree.root:
            break
        v = parent[v]

    out = [tree.root]
    ordered = {}

    def kids(u):
        ch = ordered.get(u)
        if ch is None:
            ch = [c for c in tree.children[u] if c in covered]
            # the spine child is visited last so the walk ends at end_leaf
            ch.sort(key=lambda c: c in spine)
            ordered[u] = ch
        return ch

    stack = [(tree.root, 0)]
    while stack:
        u, ci = stack[-1]
        ch = kids(u)
        if ci < len(ch):
            stack[-1] = (u, ci + 1)
            c = ch[ci]
            out.append(c)
            stack.append((c, 0))
        else:
            stack.pop()
            if stack and u not in spine:
                out.append(parent[u])
    return out


def solve_leaf_interval(inst):
    """O(p n) leaf-interval dynamic program with route reconstruction.

    Every vehicle serves a contiguous block of leaves in DFS order; trailing
    leaves of a block may be covered by down-and-back detours so the route
    still ends at the block's last through-leaf.
    """
    import numpy as np
    tree = inst.tree
    if tree.n == 1:
        return OvrpSolution(0.0, [[tree.root]], 1)

    leaves = leaves_dfs_order(tree)
    lcas = consecutive_leaf_lcas(tree, leaves)
    k = len(leaves)
    p = min(inst.p, k)  # as in _vehicle_bound
    dl = np.array([tree.droot[l] for l in leaves])
    dlca = np.array([tree.droot[a] for a in lcas])

    c1 = np.full(p + 1, INF)
    c1[1:] = dl[0]
    c0 = c1.copy()
    ch1 = [None] * k  # True: leaf i starts a new vehicle
    ch0 = [None] * k  # True: leaf i is a detour
    for i in range(1, k):
        cont = dl[i - 1] + dl[i] - 2.0 * dlca[i - 1]
        cand_a = c1 + cont
        cand_b = np.empty(p + 1)
        cand_b[0] = INF
        cand_b[1:] = c0[:-1] + dl[i]
        n1 = np.minimum(cand_a, cand_b)
        ch1[i] = cand_b < cand_a
        cand_c = c0 + 2.0 * (dl[i] - dlca[i - 1])
        n0 = np.minimum(n1, cand_c)
        ch0[i] = cand_c < n1
        c1, c0 = n1, n0

    total = float(c0[p])

    # backtrack: split leaves into vehicles, marking detour leaves
    vehicles = []
    cur_path, cur_det = [], []
    i, j, b = k - 1, p, 0
    while True:
        if i == 0:
            cur_path.insert(0, 0)
            vehicles.append((cur_path, cur_det))
            break
        if b == 0:
            if ch0[i][j]:
                cur_det.insert(0, i)
                i -= 1
            else:
                b = 1
        else:
            cur_path.insert(0, i)
            if ch1[i][j]:
                vehicles.append((cur_path, cur_det))
                cur_path, cur_det = [], []
                j -= 1
                b = 0
            i -= 1
    vehicles.reverse()

    routes = []
    for path_ids, det_ids in vehicles:
        leaf_ids = [leaves[t] for t in path_ids + det_ids]
        routes.append(_vehicle_walk(tree, leaf_ids, leaves[path_ids[-1]]))
    return OvrpSolution(total, routes, len(vehicles))
