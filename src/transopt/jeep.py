"""Jeep-problem evaluators and graph extensions.

A jeep with tank capacity ``m`` and consumption ``g`` per mile must cross
``x`` miles of desert, caching fuel at subdivision points.  Method 1
evaluates a fixed subdivision exactly; Method 2 gives a fast upper bound
for equal subdivisions by skipping runs of points that share the same
round-trip count.
"""

import heapq
import math
from collections import namedtuple
from itertools import repeat
from operator import ge, mul, sub

from .errors import BudgetUnreachableError, InfeasibleError
from .tolerances import BUDGET_SLACK, CHECK_EPS, DIV_TOL

INF = math.inf


def fdiv(a, b):
    """Integer part of a/b on reals, with a relative tolerance that absorbs
    representation error at exact-multiple boundaries."""
    q = a / b
    return math.floor(q + DIV_TOL * (q if q > 1.0 else -q if q < -1.0 else 1.0))


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
        if any(map(ge, points, points[1:])):  # the scan at C speed
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


# the most segments one equal subdivision, one vertex-depot graph (summed
# over its edges) or one threshold search (summed over all k) may evaluate
_MAX_SEGMENTS = 3 * 2 ** 20


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
    return Subdivision(_equal_points(x, k))


def _equal_points(x, k):
    """The points of :func:`equal_subdivision`.  Not always increasing: at a
    subnormal spacing the rounded c can take ``k * c`` to x (x = 1.5e-323,
    k = 3: c = 5e-324 and 3c = x), so ``Subdivision`` still checks them."""
    c = _check_equal(x, k)
    if k + 1 > _MAX_SEGMENTS:
        raise ValueError(f"k + 1 exceeds {_MAX_SEGMENTS} segments")
    return tuple(map(mul, range(k + 1), repeat(c))) + (x,)


def segment_step_exact(f_next, c, params, mode="faithful"):
    """One backward step of Method 1 over a segment of length ``c``.

    Given the gallons ``f_next`` that must be available at the far end,
    returns the gallons needed at the near end together with the trip plan.
    A load that fits in the tank is carried across in a single one-way trip.
    ``corrected`` mode additionally lets the final trip deliver up to
    m - g*c (the physical one-way limit) and keeps the cheaper plan.
    """
    f, (plan,) = _method1((0.0, c), params, f_next, mode, True)
    return f, plan


def eval_subdivision_exact(d, params, mode="faithful", collect_plans=True):
    """Method 1: fold the segment step right to left.  Returns the gallons
    required at point 0 and the per-segment plans (None when
    ``collect_plans`` is off, to keep huge subdivisions out of memory)."""
    return _method1(d.points, params, 0.0, mode, collect_plans)


def _method1(pts, params, terminal, mode, collect_plans):
    """Method 1 on a bare point tuple, leaving ``terminal`` gallons at its
    end: none, or the downstream label in the vertex-depot relax.  Each
    iteration is the step :func:`segment_step_exact` describes."""
    if mode not in ("faithful", "corrected"):
        raise ValueError(f"unknown mode {mode!r}")
    corrected = mode == "corrected"
    m, g = params.m, params.g
    nseg = len(pts) - 1
    plans = [None] * nseg if collect_plans else None
    f = terminal  # the gallons needed at pts[i + 1]
    for i in range(nseg - 1, -1, -1):
        c = pts[i + 1] - pts[i]
        gc = g * c
        if f + gc <= m:
            rt, q, f = 0, f, f + gc
        else:
            net = m - 2.0 * gc
            if net <= 0:
                raise InfeasibleError(
                    f"segment of length {c} admits no net-positive transfer (m={m}, g={g})"
                )
            l = fdiv(f, net)
            r = f - l * net
            if r < 0.0:
                r = 0.0
            if r <= gc and l > 0:
                rt, q = l - 1, r + net
            else:
                rt, q = l, r
            f_near = rt * m + q + gc
            if corrected:
                # final one-way trip may carry a full tank: q up to m - g*c
                # the ceiling of (f - (m - gc)) / net, as -fdiv of its negation
                rt2 = max(0, -fdiv(m - gc - f, net))
                q2 = f - rt2 * net
                f2 = rt2 * m + q2 + gc
                if f2 < f_near:
                    f_near, rt, q = f2, rt2, q2
            f = f_near
        if collect_plans:  # SegmentPlan(rt, q) without its Python-level __new__
            plans[i] = tuple.__new__(SegmentPlan, (rt, q))
    return f, plans


def _method2_start(x, k, params):
    """Method 2's gallons per segment a = g*x/(k+1) and the net gain m - 2a
    of a round trip; an :class:`InfeasibleError` unless that is positive."""
    _check_equal(x, k)
    a = params.g * x / (k + 1)
    net = params.m - 2.0 * a
    if net <= 0:
        raise InfeasibleError(f"equal subdivision too coarse: m - 2a = {net}")
    return a, net


def eval_equal_naive(x, k, params):
    """Method 2 as a plain loop over every subdivision point.

    The running requirement is always an integer multiple of a = g*x/(k+1);
    the multiplier is tracked exactly and only the division uses floats.
    """
    a, net = _method2_start(x, k, params)
    if k + 1 > _MAX_SEGMENTS:
        raise ValueError(f"k + 1 exceeds {_MAX_SEGMENTS} segments")
    mult = 0
    for _ in range(k + 1):
        l = fdiv(mult * a, net)
        mult += 2 * l + 1
    return mult * a


def eval_equal_fast(x, k, params):
    """Method 2 with index skipping.

    Jumps over maximal runs of points sharing a round-trip count; the jump
    target from the closed form is verified against the same division the
    naive loop performs, and where float rounding left it off, a galloping
    search from it finds the true one (``_run_start``), so both produce
    bit-identical values.  Returns the point-0 requirement and
    the number of subdivision indices actually visited.

    Each run first divides once, inline, for the count of the next index.
    Where it differs, as it does for every index once ``(2l+1) a`` outgrows
    the room below the next count, the run is that one index: it is stepped
    with the division the naive loop makes there, kept as the next run's
    count, and only longer runs pay for the closed form and its checks.  The
    closed form includes ``fdiv``'s tolerance, so the two checks confirm it
    and a run costs a fixed number of divisions at any k.  Each run counts
    as one visited index either way, so the count is unchanged.
    """
    a, net = _method2_start(x, k, params)
    mult = 0
    idx = k + 1
    touched = 1
    l = 0  # fdiv(0.0, net)
    floor, tol = math.floor, DIV_TOL  # local names in the loop's one-index step
    while idx > 0:
        step = 2 * l + 1
        # fdiv((mult + step) * a, net), the count at index idx - 1, inline;
        # its quotient is never negative
        q = (mult + step) * a / net
        nxt = floor(q + tol * (q if q > 1.0 else 1.0))
        if nxt == l and idx > 1:
            # closed form of the run's last step t: fdiv keeps the count l
            # while (mult + t step) a / net stays below (l+1)/(1+DIV_TOL),
            # or below 1 - DIV_TOL for l = 0
            bound = (l + 1) / (1.0 + DIV_TOL) if l else 1.0 - DIV_TOL
            try:
                t = math.ceil((bound * net - mult * a) / (step * a)) - 1
            except (OverflowError, ZeroDivisionError):
                t = idx  # the quotient is infinite (a = 0): the run reaches 1
            u = max(idx - t, 1)  # the run's first index, checked on both sides
            nxt = fdiv((mult + (idx - u + 1) * step) * a, net)  # index u - 1
            if (u > 1 and nxt == l
                    or u < idx and fdiv((mult + (idx - u) * step) * a, net) != l):
                u = _run_start(u, idx,
                               lambda j: fdiv((mult + (idx - j) * step) * a, net) == l)
                nxt = fdiv((mult + (idx - u + 1) * step) * a, net)
            mult += (idx - u + 1) * step
            idx = u - 1
        else:
            mult += step
            idx -= 1
        touched += 1
        l = nxt
    return mult * a, touched


def _run_start(u, idx, same):
    """The least index j >= 1 with ``same(j)``, which holds from j up to
    ``idx`` and nowhere below j, found from the estimate u: one test on each
    side of u when it is right, else a doubling bracket then a bisection."""
    lo, hi, d = u - 1, u, 1  # until the bracket holds: lo is 0 or not same(lo)
    while lo > 0 and same(lo):  # j is below u; now same(hi)
        lo, hi, d = max(lo - d, 0), lo, 2 * d
    while hi < idx and not same(hi):  # j is above u; same(idx) holds
        lo, hi, d = hi, min(hi + d, idx), 2 * d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if same(mid):
            hi = mid
        else:
            lo = mid
    return hi


_EULER = 0.5772156649015329


def _odd_harmonic(t):
    """sum_{i<=t} 1/(2i-1) = H_{2t} - H_t/2: the ``fsum`` of its terms up to
    255 of them, then the expansion, which is within one ulp of that."""
    if t < 256:
        return math.fsum(1.0 / (2 * i - 1) for i in range(1, t + 1))
    u = (1.0 / t) ** 2
    return (0.5 * math.log(t) + math.log(2.0) + 0.5 * _EULER
            + u * (1.0 / 48.0 - u * (7.0 / 1920.0 - u * (31.0 / 16128.0))))


def continuous_optimum(x, params):
    """Minimum gas when caches may sit anywhere (Fine's odd-harmonic stages).

    t full tanks carry the jeep (m/g) * sum_{i<=t} 1/(2i-1) miles, and the
    last, partial stage is solved exactly.  t starts just below the inverse
    of the sum's expansion at gx/m and steps up to the first t whose sum
    reaches gx/m.  Past 2**53 stages the partial stage is below an ulp of
    (t - 1) * m, and the gas is m * exp(2 * (gx/m - ln 2 - gamma/2)), taken in
    log space: its relative error is about twice the rounding of gx/m (near
    1e-13 at gx/m = 400), and it is inf only past the float range."""
    m, g = params.m, params.g
    if x <= m / g:
        return g * x
    target = g * x / m  # required odd-harmonic partial sum
    log_t = 2.0 * (target - math.log(2.0) - 0.5 * _EULER)
    if log_t > 53 * math.log(2.0):
        try:
            return math.exp(math.log(m) + log_t)
        except OverflowError:
            return INF
    t = max(int(math.exp(log_t)) - 2, 1)
    while _odd_harmonic(t) < target:
        t += 1
    rem = x - (m / g) * _odd_harmonic(t - 1)
    step = (m / g) / (2 * t - 1)
    rem = min(max(rem, 0.0), step)
    return (t - 1) * m + g * (2 * t - 1) * rem


def threshold_search(x, params, budget, schedule="multiplicative", ct=2,
                     k1=0, method="exact", cap=2 ** 20):
    """Refine equal subdivisions until the evaluation meets the budget.

    Returns the first satisfying (k, value).  A k too coarse for any
    transfer, or whose evaluation overflows, counts as unmet.  Raises
    :class:`BudgetUnreachableError` at once for a budget below the
    continuous optimum, which no subdivision beats (the relative slack
    ``BUDGET_SLACK`` keeps rounding from rejecting a budget some k meets),
    and otherwise once k exceeds ``cap`` or the segments evaluated over all
    k would pass ``_MAX_SEGMENTS``.  The multiplicative schedule evaluates
    at most 2 cap + log2(cap) + 2 segments up to ``cap``, so at the
    default ``cap`` only the additive one can reach that limit."""
    if schedule not in ("multiplicative", "additive"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if method not in ("exact", "fast"):
        raise ValueError(f"unknown method {method!r}")
    if ct < (2 if schedule == "multiplicative" else 1):
        raise ValueError("refinement constant too small to make progress")
    if not 0 <= k1 <= cap:
        raise ValueError(f"k1 {k1} outside 0..{cap}")
    floor = continuous_optimum(x, params)
    if budget < floor * (1 - BUDGET_SLACK):
        raise BudgetUnreachableError(None, floor)
    k, segments = k1, 0  # the segments evaluated over all k so far
    best_k, best_val = None, INF
    while k <= cap and segments + k + 1 <= _MAX_SEGMENTS:
        segments += k + 1
        try:
            if method == "fast":
                val, _ = eval_equal_fast(x, k, params)
            else:
                val, _ = eval_subdivision_exact(equal_subdivision(x, k), params,
                                                collect_plans=False)
        except (InfeasibleError, OverflowError):
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
    :func:`_dijkstra_min` checks that ``source`` reaches every vertex.
    """

    __slots__ = ()

    def __new__(cls, n, edges, source=1, target=None):
        if target is None:
            target = n
        for name, v in (("source", source), ("target", target)):
            if not 1 <= v <= n:
                raise ValueError(f"{name} {v} outside 1..{n}")
        if len(edges) < n - 1:
            raise ValueError("graph is not connected")
        adj = [[] for _ in range(n + 1)]
        for (i, j, ln) in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) references unknown vertex")
            if ln <= 0:
                raise ValueError(f"edge ({i},{j}) must have positive length")
            adj[i].append((j, float(ln)))
            adj[j].append((i, float(ln)))
        graph = super().__new__(cls, n, edges, source, target,
                                tuple(map(tuple, adj)))
        if INF in _dijkstra_min(graph, source, lambda d, ln: d)[1:]:
            raise ValueError("graph is not connected")
        return graph


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
    """Per-vertex gas needed to reach the target, depots at vertices only:
    :func:`graph_vertex_depots_continuous` with no interior points."""
    return graph_vertex_depots_continuous(graph, params, 0)


def graph_vertex_depots_continuous(graph, params, k_per_edge):
    """Per-vertex gas needed to reach the target when each edge may also
    cache fuel at ``k_per_edge`` equally spaced interior points: a backward
    Dijkstra whose relax runs Method 1 over the edge (monotone in the
    downstream requirement, so label setting is sound).  Its ``corrected``
    steps are, at ``k_per_edge = 0``, the exact inverse of the forward
    feasibility test of :func:`graph_min_gas_binary_forward`, so the two
    methods agree; ``faithful`` mode can overestimate multi-trip edges.
    A vertex that cannot reach the target, or whose requirement is past the
    float range, gets inf; an OverflowError only when the source's is."""
    if k_per_edge < 0:
        raise ValueError("k_per_edge must be nonnegative")
    if (k_per_edge + 1) * len(graph.edges) > _MAX_SEGMENTS:
        raise ValueError(f"(k_per_edge + 1) * edges exceeds {_MAX_SEGMENTS} segments")

    def relax(h_u, ln):
        try:
            return _method1(_equal_points(ln, k_per_edge), params, h_u,
                            "corrected", False)[0]
        except (InfeasibleError, OverflowError):
            return None

    def any_load(d, ln):  # every segment nets a transfer: any load crosses
        pts = _equal_points(ln, k_per_edge)
        return d if params.m > 2.0 * (params.g * max(map(sub, pts[1:], pts))) else None

    h = _dijkstra_min(graph, graph.target, relax)  # an inf never improves
    if h[graph.source] == INF:
        # past the float range if edges any load crosses join the source to
        # a vertex whose requirement is finite
        joined = _dijkstra_min(graph, graph.source, any_load)
        if any(hv < INF for hv, jv in zip(h, joined) if jv == 0.0):
            raise OverflowError("gas requirement past the float range")
    return h


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


def graph_min_gas_binary_forward(graph, params, eps=None):
    """Minimum source gas by binary search over the forward feasibility test.

    The bracket shares nothing with the backward method, which it checks.
    One probe with an unbounded load decides whether the target is reachable
    at all; if not, the answer is inf.  The upper end then starts at
    :func:`graph_free_depots`' value, since depots anywhere never need more
    gas, and doubles until the target is reachable, an OverflowError once it
    reaches inf.  The search stops once the bracket is at most ``eps`` wide
    or, by default, at most ``CHECK_EPS * max(1, hi)``: the shape of the
    comparison ``check`` makes, so the probe count does not grow with the
    instance's scale.  It also stops once the bracket spans two adjacent
    floats, so it ends for any ``eps``."""

    def ok(gval):
        return graph_forward_feasible(graph, params, gval)[graph.target] >= 0.0

    if not ok(INF):
        return INF
    lo, hi = 0.0, graph_free_depots(graph, params)
    while not ok(hi):
        lo, hi = hi, max(2.0 * hi, 1.0)
    while hi - lo > (CHECK_EPS * max(1.0, hi) if eps is None else eps):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink
            break
        if ok(mid):
            hi = mid
        else:
            lo = mid
    if hi == INF:  # the probe found the target reachable
        raise OverflowError("gas requirement past the float range")
    return hi


def graph_free_depots(graph, params):
    """Depots anywhere: classic shortest path, then the continuous optimum.
    Every target is reachable, so past the float range this raises OverflowError."""
    dist = _dijkstra_min(graph, graph.source, lambda d, ln: d + ln)
    val = continuous_optimum(dist[graph.target], params)
    if val == INF:
        raise OverflowError("gas requirement past the float range")
    return val
