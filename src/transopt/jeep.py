"""Jeep-problem evaluators and graph extensions.

A jeep with tank capacity ``m`` and consumption ``g`` per mile must cross
``x`` miles of desert, caching fuel at subdivision points.  Method 1
evaluates a fixed subdivision exactly; Method 2 gives a fast upper bound
for equal subdivisions by skipping runs of points that share the same
round-trip count.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from .errors import BudgetUnreachableError, InfeasibleError

INF = math.inf

_DIV_TOL = 1e-9


def fdiv(a, b):
    """Integer part of a/b on reals, with a relative tolerance that absorbs
    representation error at exact-multiple boundaries."""
    q = a / b
    return int(math.floor(q + _DIV_TOL * max(1.0, abs(q))))


def _fceil(x):
    return int(math.ceil(x - _DIV_TOL * max(1.0, abs(x))))


class JeepParams(namedtuple("JeepParams", "m g")):
    """Tank capacity ``m`` (gallons) and consumption ``g`` (gallons per mile)."""

    __slots__ = ()

    def __new__(cls, m, g):
        if m <= 0 or g <= 0:
            raise ValueError("tank capacity and consumption rate must be positive")
        return super().__new__(cls, m, g)


class Subdivision(namedtuple("Subdivision", "points")):
    """Cache points 0 = d_0 < d_1 < ... < d_{k+1} = x."""

    __slots__ = ()

    def __new__(cls, points):
        if len(points) < 2:
            raise ValueError("a subdivision needs at least two points")
        if points[0] != 0:
            raise ValueError("a subdivision starts at 0")
        if any(a >= b for a, b in zip(points, points[1:])):
            raise ValueError("subdivision points must be strictly increasing")
        return super().__new__(cls, points)

    @property
    def k(self):
        return len(self.points) - 2

    @property
    def x(self):
        return self.points[-1]


# rt full round trips on a segment, then a one-way trip delivering q gallons
SegmentPlan = namedtuple("SegmentPlan", "rt q")


def _check_equal(x, k):
    """The spacing x/(k+1) of an equal subdivision; a ValueError unless it is
    a positive float."""
    if x <= 0:
        raise ValueError("distance must be positive")
    if k < 0:
        raise ValueError("point count must be nonnegative")
    try:
        c = x / (k + 1)
    except OverflowError:  # k + 1 past the float range
        c = 0.0
    if c == 0.0:
        raise ValueError("point spacing x/(k+1) underflows to 0")
    return c


def equal_subdivision(x, k):
    """k interior cache points evenly spaced on [0, x]; the endpoint is set
    to x exactly rather than accumulated."""
    c = _check_equal(x, k)
    return Subdivision(tuple(i * c for i in range(k + 1)) + (x,))


def segment_step_exact(f_next, c, params, mode="faithful"):
    """One backward step of Method 1 over a segment of length ``c``.

    Given the gallons ``f_next`` that must be available at the far end,
    returns the gallons needed at the near end together with the trip plan.
    A load that fits in the tank is carried across in a single one-way trip.
    ``corrected`` mode additionally lets the final trip deliver up to
    m - g*c (the physical one-way limit) and keeps the cheaper plan.
    """
    if mode not in ("faithful", "corrected"):
        raise ValueError(f"unknown mode {mode!r}")
    m, g = params.m, params.g
    gc = g * c
    if f_next + gc <= m:
        return f_next + gc, SegmentPlan(0, f_next)
    net = m - 2.0 * gc
    if net <= 0:
        raise InfeasibleError(
            f"segment of length {c} admits no net-positive transfer (m={m}, g={g})"
        )
    l = fdiv(f_next, net)
    r = f_next - l * net
    if r < 0.0:
        r = 0.0
    if r <= gc and l > 0:
        rt, q = l - 1, r + net
    else:
        rt, q = l, r
    f = rt * m + q + gc

    if mode == "corrected":
        # final one-way trip may carry a full tank: q up to m - g*c
        rt2 = max(0, _fceil((f_next - (m - gc)) / net))
        q2 = f_next - rt2 * net
        f2 = rt2 * m + q2 + gc
        if f2 < f:
            f, rt, q = f2, rt2, q2
    return f, SegmentPlan(rt, q)


def eval_subdivision_exact(d, params, terminal=0.0, mode="faithful",
                           collect_plans=True):
    """Method 1: fold the segment step right to left.

    ``terminal`` gallons must be left over at the far endpoint (used by the
    vertex-depot graph extension).  Returns the gallons required at point 0
    and the per-segment plans (None when ``collect_plans`` is off, which
    benchmarks use to keep huge subdivisions out of memory).
    """
    pts = d.points
    nseg = len(pts) - 1
    plans = [None] * nseg if collect_plans else None
    f = terminal
    for i in range(nseg - 1, -1, -1):
        f, plan = segment_step_exact(f, pts[i + 1] - pts[i], params, mode)
        if collect_plans:
            plans[i] = plan
    return f, plans


def eval_equal_naive(x, k, params):
    """Method 2 as a plain loop over every subdivision point.

    The running requirement is always an integer multiple of a = g*x/(k+1);
    the multiplier is tracked exactly and only the division uses floats.
    """
    _check_equal(x, k)
    a = params.g * x / (k + 1)
    net = params.m - 2.0 * a
    if net <= 0:
        raise InfeasibleError(f"equal subdivision too coarse: m - 2a = {net}")
    mult = 0
    for _ in range(k + 1):
        l = fdiv(mult * a, net)
        mult += 2 * l + 1
    return mult * a


def eval_equal_fast(x, k, params):
    """Method 2 with index skipping.

    Jumps over maximal runs of points sharing a round-trip count; the jump
    target from the closed form is verified (and nudged if the tolerance
    landed one off) against the same division the naive loop performs, so
    both produce bit-identical values.  Returns the point-0 requirement and
    the number of subdivision indices actually visited.

    Each run first divides once for the count of the next index.  Where it
    differs, as it does for every index once ``(2l+1) a`` outgrows the room
    below the next count, the run is that one index: it is stepped with the
    division the naive loop makes there, kept as the next run's count, and
    only longer runs pay for the closed form and its checks.  Each run counts
    as one visited index either way, so the count is unchanged.
    """
    _check_equal(x, k)
    a = params.g * x / (k + 1)
    net = params.m - 2.0 * a
    if net <= 0:
        raise InfeasibleError(f"equal subdivision too coarse: m - 2a = {net}")
    mult = 0
    idx = k + 1
    touched = 1
    l = 0  # fdiv(0.0, net)
    while idx > 0:
        step = 2 * l + 1
        nxt = fdiv((mult + step) * a, net)  # the count at index idx - 1
        if nxt == l and idx > 1:
            # closed form of the run's first index: the room left below the
            # next count, in steps of (2l+1) a, less one on an exact multiple
            room = net - (mult * a - l * net)
            denom = l * 2.0 * a + a
            try:
                dif = fdiv(room, denom)
            except (OverflowError, ZeroDivisionError):
                dif = idx  # room / denom is infinite (a = 0): the run reaches 1
            else:
                if abs(room - dif * denom) <= _DIV_TOL * max(1.0, abs(room)):
                    dif -= 1
            u = max(idx - dif, 1)
            while u > 1 and fdiv((mult + (idx - (u - 1)) * step) * a, net) == l:
                u -= 1
            while u < idx and fdiv((mult + (idx - u) * step) * a, net) != l:
                u += 1
            mult += (idx - u + 1) * step
            idx = u - 1
            nxt = fdiv(mult * a, net)
        else:
            mult += step
            idx -= 1
        touched += 1
        l = nxt
    return mult * a, touched


_EULER = 0.5772156649015329
_EXACT_TERMS = 10 ** 6


def _odd_harmonic_asym(t):
    # sum_{i<=t} 1/(2i-1) = H_{2t} - H_t/2; expansion error is O(1/t^4)
    return 0.5 * math.log(t) + math.log(2.0) + 0.5 * _EULER + 1.0 / (48.0 * t * t)


def continuous_optimum(x, params):
    """Minimum gas when caches may sit anywhere, via the odd-harmonic series.

    With t full tanks the jeep covers (m/g) * sum 1/(2i-1) miles; the final
    partial stage is solved exactly so the distances match.  The term count
    grows like exp(2gx/m), so beyond a million terms the partial sum is
    inverted through its asymptotic expansion (error far below one term).
    """
    m, g = params.m, params.g
    if x <= m / g:
        return g * x
    target = g * x / m  # required odd-harmonic partial sum
    s = 0.0
    # the exact terms sum to about 7.8895; a larger target skips to the expansion
    t = 0 if target <= _odd_harmonic_asym(_EXACT_TERMS) + 1e-8 else _EXACT_TERMS
    while t < _EXACT_TERMS:
        t += 1
        s_prev = s
        s += 1.0 / (2 * t - 1)
        if s >= target:
            return (t - 1) * m + g * (2 * t - 1) * (x - (m / g) * s_prev)
    try:
        t_est = math.exp(2.0 * (target - math.log(2.0) - 0.5 * _EULER))
    except OverflowError:
        return INF
    if t_est > 1e306:
        return INF
    t = max(int(t_est) - 2, _EXACT_TERMS + 1)
    while _odd_harmonic_asym(t) < target:
        t += 1
    rem = x - (m / g) * _odd_harmonic_asym(t - 1)
    step = (m / g) / (2 * t - 1)
    rem = min(max(rem, 0.0), step)
    return (t - 1) * m + g * (2 * t - 1) * rem


def threshold_search(x, params, budget, schedule="multiplicative", ct=2,
                     k1=0, method="exact", cap=2 ** 20):
    """Refine equal subdivisions until the evaluation meets the budget.

    Returns the first satisfying (k, value).  Coarse subdivisions that admit
    no transfer at all count as unbounded and refinement continues.  Raises
    :class:`BudgetUnreachableError` at once for a budget below the
    continuous optimum, which no subdivision beats (the relative 1e-9 slack
    keeps rounding from rejecting a budget some k meets), and otherwise once
    k exceeds ``cap``.
    """
    if schedule not in ("multiplicative", "additive"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if method not in ("exact", "fast"):
        raise ValueError(f"unknown method {method!r}")
    if ct < (2 if schedule == "multiplicative" else 1):
        raise ValueError("refinement constant too small to make progress")
    floor = continuous_optimum(x, params)
    if budget < floor * (1 - 1e-9):
        raise BudgetUnreachableError(None, floor)
    k = k1
    best_k, best_val = None, INF
    while k <= cap:
        try:
            if method == "fast":
                val, _ = eval_equal_fast(x, k, params)
            else:
                val, _ = eval_subdivision_exact(equal_subdivision(x, k), params)
        except InfeasibleError:
            val = INF
        if val < best_val:
            best_k, best_val = k, val
        if val <= budget:
            return k, val
        if schedule == "multiplicative":
            k = k * ct if k > 0 else ct
        else:
            k = k + ct
    raise BudgetUnreachableError(best_k, best_val)


class JeepGraph(namedtuple("JeepGraph", "n edges source target adj")):
    """Desert modeled as an undirected graph; gas exists only at the source.

    ``edges`` holds (i, j, length) triples; ``target`` defaults to vertex n.
    ``adj[u]`` lists u's (neighbor, length) pairs and is built from ``edges``.
    """

    __slots__ = ()

    def __new__(cls, n, edges, source=1, target=-1):
        if target == -1:
            target = n
        for name, v in (("source", source), ("target", target)):
            if not 1 <= v <= n:
                raise ValueError(f"{name} {v} outside 1..{n}")
        if len(edges) < n - 1:
            raise ValueError("graph is not connected")
        for (i, j, ln) in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) references unknown vertex")
            if ln <= 0:
                raise ValueError(f"edge ({i},{j}) must have positive length")
        adj = [[] for _ in range(n + 1)]
        for (i, j, ln) in edges:
            adj[i].append((j, float(ln)))
            adj[j].append((i, float(ln)))
        seen = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            for (v, _) in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n:
            raise ValueError("graph is not connected")
        return super().__new__(cls, n, edges, source, target,
                               tuple(map(tuple, adj)))


def _dijkstra_min(graph, start, relax, label=0.0):
    """The label-setting loop of every graph method: ``start`` gets
    ``label``, then the smallest unsettled label is settled first, and
    ``relax(h_u, length)`` returns the candidate label for the neighbor or
    None when the edge is unusable."""
    n = graph.n
    h = [INF] * (n + 1)
    h[start] = label
    heap = [(label, start)]
    done = [False] * (n + 1)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for (v, ln) in graph.adj[u]:
            if done[v]:
                continue
            cand = relax(d, ln)
            if cand is not None and cand < h[v]:
                h[v] = cand
                heapq.heappush(heap, (cand, v))
    return h


def graph_min_gas_backward(graph, params):
    """Per-vertex gas needed to reach the target, depots at vertices only.

    Backward Dijkstra from the target; relaxing an edge treats it as a
    one-segment subdivision via the exact segment step (which is monotone in
    its downstream requirement, so label setting is sound).  The step runs
    in ``corrected`` mode, the exact inverse of the forward feasibility
    formula used by :func:`graph_min_gas_binary_forward`, so the two methods
    agree; ``faithful`` mode can overestimate multi-trip edges."""

    def relax(h_u, ln):
        try:
            return segment_step_exact(h_u, ln, params, "corrected")[0]
        except InfeasibleError:
            return None

    return _dijkstra_min(graph, graph.target, relax)


def graph_vertex_depots_continuous(graph, params, k_per_edge):
    """Like the backward method, but each edge may cache fuel at
    ``k_per_edge`` equally spaced interior points (forced vertex depots)."""
    if k_per_edge < 0:
        raise ValueError("k_per_edge must be nonnegative")

    def relax(h_u, ln):
        try:
            d = equal_subdivision(ln, k_per_edge)
            return eval_subdivision_exact(d, params, terminal=h_u,
                                          mode="corrected")[0]
        except InfeasibleError:
            return None

    return _dijkstra_min(graph, graph.target, relax)


def graph_forward_feasible(graph, params, g_min):
    """Forward feasibility: max gallons deliverable at each vertex when the
    source holds ``g_min``; the target is reachable iff its value is >= 0.
    ``g_min`` may be inf, which shows whether any load reaches the target.

    Labels are negated gallons, so the vertex with the most gas is settled
    first; a vertex reached with a deficit passes nothing on."""
    m, g = params.m, params.g

    def relax(neg_hu, ln):
        hu = -neg_hu
        if hu < 0:
            return None
        avail = min(hu, m)
        if 2.0 * g * ln >= avail:
            cand = avail - g * ln
        elif hu == INF:  # an unbounded load stays unbounded
            return -INF
        else:
            q = fdiv(hu, m)
            r = hu - q * m
            c1 = (q - 1) * (m - 2.0 * g * ln) + m - g * ln
            if r < g * ln:
                cand = c1
            else:
                cand = max(c1, q * (m - 2.0 * g * ln) + r - g * ln)
        return -cand

    return [-h for h in _dijkstra_min(graph, graph.source, relax, -g_min)]


def graph_min_gas_binary_forward(graph, params, eps=1e-6):
    """Minimum source gas by binary search over the forward feasibility test.

    The bracket shares nothing with the backward method, which it checks.
    One probe with an unbounded load decides whether the target is reachable
    at all.  The upper end then starts at :func:`graph_free_depots`' value,
    since depots anywhere never need more gas, and doubles until the target
    is reachable, at the latest once it reaches inf.  The search stops once
    the bracket is at most ``eps`` wide or spans two adjacent floats, so it
    ends for any ``eps``."""

    def ok(gval):
        return graph_forward_feasible(graph, params, gval)[graph.target] >= 0.0

    if not ok(INF):
        return INF
    lo, hi = 0.0, graph_free_depots(graph, params)
    while not ok(hi):
        lo, hi = hi, max(2.0 * hi, 1.0)
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink
            break
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def graph_free_depots(graph, params):
    """Depots anywhere: classic shortest path, then the continuous optimum."""
    dist = _dijkstra_min(graph, graph.source, lambda d, ln: d + ln)
    x = dist[graph.target]
    if x == 0:
        return 0.0
    return continuous_optimum(x, params)
