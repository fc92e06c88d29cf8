"""Brute-force reference implementations, and the one-vehicle ovrp optimum.

Deliberately naive and independent of the solvers they check: they share
only instance types and the geometry predicates.  Every search enforces a
hard size limit instead of silently truncating, except
:func:`visibility_reference`, whose O(n^3) scan stays polynomial.
"""

import heapq
import itertools
import math

from .errors import PlanInfeasibleError, SizeLimitError
from .tolerances import REL_TOL

INF = math.inf


def ovrp_brute(inst):
    """Optimal total route length by uniform-cost search.

    States are (visited set, current vertex, vehicles started); moving along
    an edge costs its length and starting a fresh vehicle teleports to the
    root for free while incrementing the count.
    """
    tree = inst.tree
    n = tree.n
    # a vehicle beyond one per leaf never helps
    p = min(inst.p, tree.children[1:].count(()))
    if n > 12 or p > 4:
        raise SizeLimitError(f"ovrp_brute limited to n <= 12, p <= 4 (got {n}, {p})")
    root = tree.root
    full = (1 << n) - 1
    adj = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        if v != root:
            u = tree.parent[v]
            adj[u].append((v, tree.edge_len[v]))
            adj[v].append((u, tree.edge_len[v]))

    start = (1 << (root - 1), root, 1)
    dist = {start: 0.0}
    heap = [(0.0, start)]
    overflowed = False  # a move whose cost is inf is never pushed
    while heap:
        d, (mask, u, used) = heapq.heappop(heap)
        if d > dist.get((mask, u, used), INF):
            continue
        if mask == full:
            return d
        for (v, w) in adj[u]:
            key = (mask | (1 << (v - 1)), v, used)
            nd = d + w
            overflowed |= nd == INF
            if nd < dist.get(key, INF):
                dist[key] = nd
                heapq.heappush(heap, (nd, key))
        if used < p and u != root:
            key = (mask, root, used + 1)
            if d < dist.get(key, INF):
                dist[key] = d
                heapq.heappush(heap, (d, key))
    if overflowed:
        return INF
    raise AssertionError("search exhausted without covering all vertices")


def single_vehicle_closed_form(inst):
    """Optimum for p=1: every edge twice, minus the longest root-leaf distance."""
    tree = inst.tree
    deepest = max(d for d, ch in zip(tree.droot[1:], tree.children[1:])
                  if not ch)
    return 2.0 * tree.total_edge_len() - deepest


def fuel_brute(inst):
    """Minimum depot fuel by enumerating every DFS order.

    For each vertex, children first, the set of achievable minimum tank
    levels over its service (relative to the arrival level, before the
    vertex's own gas is collected); the root's best value gives the answer.
    The pass is a loop over a post-order, so a deep tree needs no recursion.
    """
    tree, gas = inst.tree, inst.gas
    combos = 1
    for u in range(1, tree.n + 1):
        combos *= math.factorial(len(tree.children[u]))
        if combos > 10 ** 6:
            raise SizeLimitError("fuel_brute limited to 1e6 DFS orders")

    # subtree gas and length sums give each child's net fuel profit
    gsum = [0.0] * (tree.n + 1)
    lsum = [0.0] * (tree.n + 1)
    lows = [None] * (tree.n + 1)
    order = []
    stack = [tree.root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(tree.children[u])
    for u in reversed(order):
        children = tree.children[u]
        gsum[u] = gas[u]
        for c in children:
            gsum[u] += gsum[c]
            lsum[u] += lsum[c] + tree.edge_len[c]
        child_lows = [sorted(lows[c]) for c in children]
        out = set()
        for perm in itertools.permutations(range(len(children))):
            for combo in itertools.product(*(child_lows[t] for t in perm)):
                cur = gas[u]
                low = 0.0
                for t, clow in zip(perm, combo):
                    c = children[t]
                    low = min(low, cur - tree.edge_len[c] + clow)
                    cur += gsum[c] - 2.0 * (lsum[c] + tree.edge_len[c])
                    low = min(low, cur)
                out.add(low)
        lows[u] = out
    return -max(lows[tree.root])


def jeep_simulate_plan(d, params, plans):
    """Forward validation of a per-segment trip plan.

    Replays the plan segment by segment, enforcing nonnegative trip counts,
    tank capacity on every departure, and that each segment delivers what
    the next one draws.  Returns the gallons drawn at point 0.
    """
    pts = d.points
    if len(plans) != len(pts) - 1:
        raise ValueError(f"expected {len(pts) - 1} segment plans, got {len(plans)}")
    m, g = params.m, params.g
    need = 0.0
    for i in range(len(plans) - 1, -1, -1):
        plan = plans[i]
        c = pts[i + 1] - pts[i]
        gc = g * c
        if plan.rt < 0 or plan.q < 0:
            raise PlanInfeasibleError(i, "negative trip count or delivery")
        if plan.q + gc > m * (1 + REL_TOL):
            raise PlanInfeasibleError(
                i, f"final trip loads {plan.q + gc} gallons into a {m}-gallon tank"
            )
        if plan.rt > 0 and m - 2.0 * gc < 0:
            raise PlanInfeasibleError(i, "round trip cannot return on this segment")
        delivered = plan.rt * (m - 2.0 * gc) + plan.q
        if delivered + REL_TOL * max(1.0, need) < need:
            raise PlanInfeasibleError(
                i, f"delivers {delivered} gallons but {need} are drawn downstream"
            )
        need = plan.rt * m + plan.q + gc
    return need


def visibility_reference(poly):
    """Boolean n x n matrix: segment (i, j) stays inside the closed polygon.

    The reference scan, O(n) per pair on the ring scaled exactly to
    integers (``geometry.integer_points``), so every sign it reads is exact:
    a pair fails on any proper crossing with a polygon edge; otherwise the
    connecting segment is cut at every vertex exactly on it, and each
    piece's midpoint must test inside (``geometry.point_in_polygon``).  The
    cuts are distinct vertices, so no piece has length zero.
    """
    from .geometry import integer_points
    # doubled, so each midpoint below is a pair of integers too
    v = [(2 * x, 2 * y) for x, y in integer_points(poly.vertices)]
    n = len(v)
    vis = [[False] * n for _ in range(n)]
    for i in range(n):
        vis[i][i] = True
        vis[i][(i + 1) % n] = True
        vis[(i + 1) % n][i] = True
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            vis[i][j] = vis[j][i] = _segment_inside(v, v[i], v[j])
    return vis


def _segment_inside(v, a, b):
    # imported here, so a fuel, ovrp or jeep check never compiles geometry
    from .geometry import point_in_polygon
    # the side of line ab of every vertex, as the sign of an exact cross product
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    side = [dx * (y - ay) - dy * (x - ax) for x, y in v]
    n = len(v)
    for e in range(n):
        if side[e] * side[e - 1] < 0:  # edge (e - 1, e) straddles the line
            (cx, cy), (ex, ey) = v[e - 1], v[e]
            ca = (ex - cx) * (ay - cy) - (ey - cy) * (ax - cx)
            cb = (ex - cx) * (by - cy) - (ey - cy) * (bx - cx)
            if ca * cb < 0:
                return False  # a proper crossing
    # only touch points remain: cut at the vertices strictly inside ab, in
    # order along it, and test each piece's midpoint
    k = 0 if ax != bx else 1
    lo, hi = min(a[k], b[k]), max(a[k], b[k])
    cuts = sorted([p for p, s in zip(v, side) if s == 0 and lo < p[k] < hi] + [a, b],
                  key=lambda p: p[k])
    return all(point_in_polygon(v, ((px + qx) // 2, (py + qy) // 2))
               for (px, py), (qx, qy) in zip(cuts, cuts[1:]))


def ham_brute(poly, start=None):
    """Shortest inside-the-polygon Hamiltonian path by permutation
    enumeration, over Euclidean distances gated by
    :func:`visibility_reference`, which marks the boundary's adjacent pairs
    visible.  Returns (length, path); (inf, []) only when every length overflows."""
    v, n = poly.vertices, poly.n
    if n > 9:
        raise SizeLimitError(f"ham_brute limited to n <= 9, got {n}")
    vis = visibility_reference(poly)
    dist = [[math.hypot(v[i][0] - v[j][0], v[i][1] - v[j][1]) if vis[i][j]
             else INF for j in range(n)] for i in range(n)]

    best, best_path = INF, []
    starts = range(n) if start is None else (start,)
    for s in starts:
        rest = [v for v in range(n) if v != s]
        for perm in itertools.permutations(rest):
            total = 0.0
            prev = s
            for v in perm:
                step = dist[prev][v]
                if step == INF:
                    total = INF
                    break
                total += step
                prev = v
            if total < best:
                best, best_path = total, [s] + list(perm)
    return best, best_path


def _fsum(gaps):
    """``math.fsum`` of positive gaps, inf past the float range."""
    try:
        return math.fsum(gaps)
    except OverflowError:
        return INF


def curve_zigzag_brute(inst, objective="weighted"):
    """Curve-restricted Hamiltonian path by exhaustive arc extension.

    The visited set on a closed curve is always a contiguous arc, so each
    step extends it left or right; every step's travel distance is the
    shorter of the two arcs between the current and the new vertex, matching
    the dynamic program's convention.  Arc lengths are correctly rounded
    sums of the gaps they cover, not prefix-sum differences.  Objectives:
    ``weighted`` minimizes the sum of w_i times first-arrival distance,
    ``length`` the total distance traveled.  Returns (cost, visit order).
    """
    if objective not in ("weighted", "length"):
        raise ValueError(f"unknown objective {objective!r}")
    n = inst.n
    if n > 20:
        raise SizeLimitError(f"curve_zigzag_brute limited to n <= 20, got {n}")
    gaps = inst.gaps
    # arc[a][b]: the shorter way round between vertices a and b
    arc = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a != b:
                fwd = [gaps[k % n] for k in range(a, b if a < b else b + n)]
                back = [gaps[k % n] for k in range(b, a if b < a else a + n)]
                arc[a][b] = min(_fsum(fwd), _fsum(back))
    w = inst.weights
    best = [INF, []]

    def rec(left, cnt, at_left, dist_so_far, cost, path):
        if cnt == n:
            final = cost if objective == "weighted" else dist_so_far
            if final < best[0]:
                best[0], best[1] = final, list(path)
            return
        pos = left if at_left else (left + cnt - 1) % n
        for (v, new_left, new_at_left) in (
            ((left - 1) % n, (left - 1) % n, True),
            ((left + cnt) % n, left, False),
        ):
            t = dist_so_far + arc[pos][v]
            path.append(v)
            rec(new_left, cnt + 1, new_at_left, t, cost + w[v] * t, path)
            path.pop()

    starts = range(n) if inst.start is None else (inst.start,)
    for s in starts:
        rec(s, 1, True, 0.0, 0.0, [s])
    return best[0], best[1]
