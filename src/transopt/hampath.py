"""Shortest Hamiltonian paths among polygon vertices and on closed curves.

The polygon variant keeps every path segment inside the polygon and runs an
O(n^2) dynamic program over circular vertex intervals: the visited set is
always an interval and the current position one of its endpoints.  The curve
variants restrict travel to the curve itself, which makes the unweighted
problem a closed form and the weighted one the same interval DP with arc
distances and suffix weight multipliers.

The O(n^3) visibility matrix and the DP both work a whole row at a time.
The visibility pass is pure Python; the DP runs on the engine that
``rows.interval`` picks for its size.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from operator import mul

from . import rows
from .errors import InvalidPolygonError
from .geometry import (
    EPS,
    MIN_PIECE,
    on_segment,
    orientation,
    segments_properly_intersect,
    signed_area,
)

INF = math.inf


class SimplePolygon(namedtuple("SimplePolygon", "vertices")):
    """Counterclockwise simple polygon given by its vertex ring."""

    __slots__ = ()

    def __new__(cls, vertices):
        vertices = tuple((float(x), float(y)) for (x, y) in vertices)
        _validate_simple(vertices)
        return super().__new__(cls, vertices)

    @property
    def n(self):
        return len(self.vertices)


def _validate_simple(v):
    n = len(v)
    if n < 3:
        raise InvalidPolygonError(f"need at least 3 vertices, got {n}")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(v[i][0] - v[j][0]) <= EPS and abs(v[i][1] - v[j][1]) <= EPS:
                raise InvalidPolygonError(f"vertices {i} and {j} coincide")
    if signed_area(v) <= 0:
        raise InvalidPolygonError("vertex ring is not counterclockwise")
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        # a zero-turn spike folds an edge back over its predecessor
        c = v[(i + 2) % n]
        if orientation(a, b, c) == 0:
            if (a[0] - b[0]) * (c[0] - b[0]) + (a[1] - b[1]) * (c[1] - b[1]) > 0:
                raise InvalidPolygonError(f"edges at vertex {(i + 1) % n} fold back")
        for j in range(n):
            if j in (i, (i - 1) % n, (i + 1) % n):
                continue
            c2, d2 = v[j], v[(j + 1) % n]
            if segments_properly_intersect(a, b, c2, d2):
                raise InvalidPolygonError(f"edges {i} and {j} cross")
            if j != (i + 2) % n and on_segment(v[j], a, b):
                raise InvalidPolygonError(f"vertex {j} lies on edge {i}")


def visibility_matrix(poly):
    """Boolean n x n matrix: segment (i, j) stays inside the closed polygon.

    O(n^3), one line-side pass per pair: the sign of every vertex against
    the line v[i]v[j], with the cross product and tolerance of
    ``geometry.orientation``, finds both the edges that may cross the
    segment properly (endpoint signs opposite and nonzero) and the vertices
    it touches.  A pair fails on a proper crossing; otherwise the segment is
    cut at every touched vertex and each piece's midpoint must test inside.
    ``oracles.visibility_reference`` is the same test predicate by
    predicate.
    """
    v = poly.vertices
    n = poly.n
    vis = [[False] * n for _ in range(n)]
    for i in range(n):
        vis[i][i] = True
        vis[i][(i + 1) % n] = True
        vis[(i + 1) % n][i] = True
    inside = _inside_test(v)
    eps, neg = EPS, -EPS
    for i in range(n - 2):
        ax, ay = v[i]
        rel = [(x - ax, y - ay) for x, y in v]
        for j in range(i + 2, n if i else n - 1):
            dx, dy = rel[j]
            s = [1 if (c := dx * ry - dy * rx) > eps else -1 if c < neg else 0
                 for rx, ry in rel]
            touched = s.count(0)  # i and j always; more when the segment grazes
            s.append(s[0])
            if -1 in map(mul, s, s[1:]) and _crosses(v, s, v[i], v[j]):
                continue
            if touched == 2:
                cuts = (0.0, 1.0)
            else:
                cuts = _touch_cuts(v, rel, s, v[i], v[j])
            for t0, t1 in zip(cuts, cuts[1:]):
                if t1 - t0 <= MIN_PIECE:
                    continue
                tm = 0.5 * (t0 + t1)
                if not inside(ax + tm * dx, ay + tm * dy):
                    break
            else:
                vis[i][j] = vis[j][i] = True
    return vis


def _crosses(v, s, a, b):
    """Some edge whose endpoints lie strictly on opposite sides of line ab
    also has a and b strictly on opposite sides of its own line."""
    n = len(v)
    for e in range(n):
        if s[e] * s[e + 1] == -1:
            c, d = v[e], v[(e + 1) % n]
            if orientation(c, d, a) * orientation(c, d, b) == -1:
                return True
    return False


def _touch_cuts(v, rel, s, a, b):
    """Sorted segment parameters of the vertices on the closed segment ab,
    endpoints included: ``geometry.on_segment``'s bounding-box test on the
    vertices of sign 0."""
    x_lo, x_hi = min(a[0], b[0]) - EPS, max(a[0], b[0]) + EPS
    y_lo, y_hi = min(a[1], b[1]) - EPS, max(a[1], b[1]) + EPS
    dx, dy = b[0] - a[0], b[1] - a[1]
    den = dx * dx + dy * dy
    cuts = [0.0, 1.0]
    for (x, y), (rx, ry), sk in zip(v, rel, s):
        if sk == 0 and x_lo <= x <= x_hi and y_lo <= y <= y_hi:
            cuts.append((rx * dx + ry * dy) / den)
    cuts.sort()
    return cuts


def _inside_test(v):
    """``geometry.point_in_polygon(v, (x, y))`` as a function of x and y
    that looks only at the edges whose y-range can matter.

    The distinct vertex ordinates cut the plane into horizontal slabs; a
    bisection finds the slab of y.  The crossing-parity edges are those with
    min(y) <= y < max(y), which holds for the whole slab or none of it; the
    boundary candidates are every edge whose y-range widened by EPS meets
    the slab, a superset that ``on_segment`` then filters exactly.
    """
    n = len(v)
    edges = [(v[e], v[(e + 1) % n]) for e in range(n)]
    ys = sorted({y for _, y in v})
    near, parity = [], []
    for lo, hi in zip([-INF] + ys, ys + [INF]):
        near.append([(c, d) for c, d in edges
                     if min(c[1], d[1]) - EPS <= hi and max(c[1], d[1]) + EPS >= lo])
        parity.append([(c, d) for c, d in edges
                       if min(c[1], d[1]) <= lo and max(c[1], d[1]) >= hi])

    def inside(x, y):
        k = bisect_right(ys, y)
        p = (x, y)
        for c, d in near[k]:
            if on_segment(p, c, d):
                return True
        odd = False
        for (x1, y1), (x2, y2) in parity[k]:
            if x1 + (y - y1) * (x2 - x1) / (y2 - y1) > x:
                odd = not odd
        return odd

    return inside


def euclidean_dist(poly, vis=None):
    """Distance oracle: Euclidean length when visible, infinity otherwise."""
    if vis is None:
        vis = visibility_matrix(poly)
    v = poly.vertices

    def dist(p, q):
        if not vis[p][q]:
            return INF
        return math.hypot(v[p][0] - v[q][0], v[p][1] - v[q][1])

    return dist


def _interval_dp(n, diag, near_a, near_b, steps, ops):
    """Shared circular-interval DP engine, one interval size at a time.

    A path over the circular interval [i, j] of size s ends at i (state A)
    or at j (state B); the rows of size s hold both costs at index i, and
    only the rows of the previous size are kept.  ``diag`` seeds size 1 (0
    for allowed starts, infinity otherwise).  ``near_a[i]`` is the step
    from i+1 to i and ``near_b[k]`` the step from k to k+1.  ``steps(s)``
    returns, indexed by i for the intervals of size s, the step from j to i,
    the step from i to j, and the multipliers of the steps into A and into
    B.  All rows are of the kind ``ops`` works on.  Steps are nonnegative or
    infinite, so an unreachable state stays infinite.  On ties extending
    from the same end beats switching ends.  Returns (best, path).
    """
    add_, mul_, cat, minimum, less = ops.add, ops.mul, ops.cat, ops.minimum, ops.less
    A = B = ops.row(diag)
    near_b = cat(near_b, near_b)  # each size reads a rotation: a slice here
    switched = [None, None]  # per size: one bytes row each for A and B
    for s in range(2, n + 1):
        far_a, far_b, ma, mb = steps(s)
        a0 = add_(cat(A[1:], A[:1]), mul_(near_a, ma))
        a1 = add_(cat(B[1:], B[:1]), mul_(far_a, ma))
        b0 = add_(B, mul_(near_b[s - 2:s - 2 + n], mb))
        b1 = add_(A, mul_(far_b, mb))
        switched.append((less(a1, a0), less(b1, b0)))
        A = minimum(a0, a1)
        B = minimum(b0, b1)

    A, B = ops.out(A), ops.out(B)
    best, at_j, i = INF, 0, 0
    for j in range(n):
        k = (j + 1) % n
        if A[k] < best:
            best, at_j, i = A[k], 0, k
        if B[k] < best:
            best, at_j, i = B[k], 1, k
    if best == INF:
        return INF, []

    path_rev = []
    for s in range(n, 1, -1):
        if at_j:
            path_rev.append((i + s - 1) % n)
            at_j ^= switched[s][1][i]
        else:
            path_rev.append(i)
            at_j ^= switched[s][0][i]
            i = (i + 1) % n
        # the interval [i, i + s - 2] remains, ending at the recorded end
    path_rev.append(i)  # size 1: the start vertex
    path_rev.reverse()
    return best, path_rev


def _polygon_dp(poly, dist, diag):
    """Interval DP over the polygon's vertex ring with the distances
    ``dist(p, q)`` (the visibility-gated Euclidean oracle by default)."""
    n = poly.n
    if dist is None:
        dist = euclidean_dist(poly)
    ops = rows.interval(n)
    # rot[d][i] = dist(i, i + d): each size reads rows of it
    rot = ops.row([[dist(p, (p + d) % n) for p in range(n)] for d in range(n)])
    ones = ops.row([1.0] * n)

    def steps(s):
        back = rot[n - s + 1]  # dist(k, k - s + 1)
        return ops.cat(back[s - 1:], back[:s - 1]), rot[s - 1], ones, ones

    return _interval_dp(n, diag, steps(2)[0], rot[1], steps, ops)


def shortest_ham_path_fixed_start(poly, start, dist=None):
    """Shortest inside-the-polygon Hamiltonian path starting at ``start``.

    ``dist`` may override the default visibility-gated Euclidean oracle.
    Returns (length, path); (inf, []) when no path exists.
    """
    n = poly.n
    if not (0 <= start < n):
        raise ValueError(f"start {start} outside 0..{n - 1}")
    diag = [INF] * n
    diag[start] = 0.0
    return _polygon_dp(poly, dist, diag)


def shortest_ham_path_free_start(poly, dist=None):
    """Shortest inside-the-polygon Hamiltonian path, start unconstrained."""
    return _polygon_dp(poly, dist, [0.0] * poly.n)


class CurveInstance(namedtuple("CurveInstance", "gaps weights start")):
    """Vertices on a closed curve: ``gaps[i]`` separates vertex i from
    (i+1) mod n along the curve; weights drive the weighted objective."""

    __slots__ = ()

    def __new__(cls, gaps, weights=None, start=None):
        gaps = tuple(float(g) for g in gaps)
        n = len(gaps)
        if n < 2:
            raise ValueError("need at least 2 vertices on the curve")
        if any(g <= 0 for g in gaps):
            raise ValueError("gaps must be positive")
        w = (0.0,) * n if weights is None else tuple(float(x) for x in weights)
        if len(w) != n:
            raise ValueError("weights must match the vertex count")
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative")
        if start is not None and not (0 <= start < n):
            raise ValueError(f"start {start} outside 0..{n - 1}")
        return super().__new__(cls, gaps, w, start)

    @property
    def n(self):
        return len(self.gaps)


def curve_ham_path(inst):
    """Closed form for the curve-restricted shortest Hamiltonian path.

    The path covers the whole curve except one skipped gap; with a free
    start, skipping the largest gap and starting at its edge is optimal.
    With a fixed start the stretch from the start to the nearer end of the
    covered arc is walked twice, so the skipped gap minimizes total minus
    gap plus that doubled approach (skipping a gap adjacent to the start is
    not always best)."""
    total = sum(inst.gaps)
    if inst.start is None:
        return total - max(inst.gaps)
    n, s = inst.n, inst.start
    dp = list(accumulate(inst.gaps, initial=0.0))  # dp[i]: arc from 0 to i

    def arc(i, j):
        """Arc length from i forward to j (gaps i .. j-1 circularly)."""
        if i == j:
            return 0.0
        if i < j:
            return dp[j] - dp[i]
        return dp[n] - (dp[i] - dp[j])

    best = INF
    for j in range(n):
        extra = min(arc(s, j), arc((j + 1) % n, s))
        best = min(best, total - inst.gaps[j] + extra)
    return best


def curve_weighted_ham_path(inst):
    """Minimize the weighted sum of first-arrival distances on the curve.

    Each DP step charges the step distance times the weight of every vertex
    not yet visited, which telescopes into sum of w_i * dt(i).  Returns
    (cost, visit order)."""
    n = inst.n
    dp = list(accumulate(inst.gaps, initial=0.0))  # dp[i]: arc from 0 to i
    wp = list(accumulate(inst.weights, initial=0.0))
    if inst.start is None:
        diag = [0.0] * n
    else:
        diag = [INF] * n
        diag[inst.start] = 0.0
    ops = rows.interval(n)
    add_, sub_, cat, minimum = ops.add, ops.sub, ops.cat, ops.minimum
    w_out = ops.row([wp[n] - x for x in wp])  # weight of vertices k .. n-1
    totals = ops.row([dp[n]] * n)
    dp, wp = ops.row(dp), ops.row(wp)

    def steps(s):
        # intervals [i, i + s - 1] with i < m do not wrap past vertex n-1;
        # the arc from i to j is dp[j] - dp[i] for those, and the curve
        # minus the arc from j to i for the others
        m = n - s + 1
        inner = cat(sub_(dp[s - 1:n], dp[:m]),
                    sub_(dp[m:n], dp[:s - 1]))  # arc not through the seam
        outer = sub_(totals, inner)
        short = minimum(inner, outer)
        flip = minimum(outer, sub_(totals, outer))
        # weight of the vertices outside [i, j-1]; outside [i+1, j] is the
        # same sum for the interval one further on
        mb = cat(add_(w_out[s - 1:n], wp[:m]), sub_(wp[m:n], wp[:s - 1]))
        return cat(flip[:m], short[m:]), cat(short[:m], flip[m:]), \
            cat(mb[1:], mb[:1]), mb

    # the steps between neighbours are the far steps of the intervals of 2
    near_a, near_b, _, _ = steps(2)
    return _interval_dp(n, diag, near_a, near_b, steps, ops)
