"""Shortest Hamiltonian paths among polygon vertices and on closed curves.

The polygon variant keeps every path segment inside the polygon and runs an
O(n^2) dynamic program over circular vertex intervals: the visited set is
always an interval and the current position one of its endpoints.  The curve
variants restrict travel to the curve itself, which makes the unweighted
problem a closed form and the weighted one the same interval DP with arc
distances and suffix weight multipliers.

Validation and the visibility matrix (``transopt.visibility``) are O(n^2)
in general position, like the DP, which runs on the engine that
``rows.interval`` picks for its size.  The polygon DP's table is filled from
the visible pairs, one row serving both directions as visibility is
symmetric; no distance override exists.
"""

import math
from array import array
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, compress

from . import rows
from .errors import InvalidPolygonError
from .geometry import on_segment, orientation, segments_properly_intersect, signed_area
from .tolerances import EPS
from .visibility import visibility_matrix

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
    """Raise InvalidPolygonError on the first fault, in the order of the
    all-pairs scan: coinciding vertices, a clockwise ring, then per edge i a
    fold-back at its end and each edge j, ascending, that crosses it or
    whose first vertex lies on it.

    Only pairs that could fail are tested, found from sorted x: the edges
    whose x- and y-ranges, each widened by EPS, overlap.  Farther pairs can
    neither cross nor put a vertex on an edge, and edge i's box holds
    vertex i, so two coinciding vertices i and j are such a pair (i, j).
    """
    n = len(v)
    if n < 3:
        raise InvalidPolygonError(f"need at least 3 vertices, got {n}")
    box = [(min(p[0], q[0]) - EPS, max(p[0], q[0]) + EPS,
            min(p[1], q[1]) - EPS, max(p[1], q[1]) + EPS)
           for p, q in zip(v, v[1:] + v[:1])]
    by_lo = sorted(range(n), key=lambda e: box[e][0])
    los = [box[e][0] for e in by_lo]
    near = [[] for _ in range(n)]
    for t, i in enumerate(by_lo):
        _, x_hi, y_lo, y_hi = box[i]
        for j in by_lo[t + 1:bisect_right(los, x_hi)]:
            if box[j][2] <= y_hi and y_lo <= box[j][3]:
                near[i].append(j)
                near[j].append(i)
    same = [(i, j) for i in range(n) for j in near[i] if i < j
            and abs(v[i][0] - v[j][0]) <= EPS and abs(v[i][1] - v[j][1]) <= EPS]
    if same:
        raise InvalidPolygonError("vertices {} and {} coincide".format(*min(same)))
    if signed_area(v) <= 0:
        raise InvalidPolygonError("vertex ring is not counterclockwise")
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        # a zero-turn spike folds an edge back over its predecessor
        c = v[(i + 2) % n]
        if orientation(a, b, c) == 0:
            if (a[0] - b[0]) * (c[0] - b[0]) + (a[1] - b[1]) * (c[1] - b[1]) > 0:
                raise InvalidPolygonError(f"edges at vertex {(i + 1) % n} fold back")
        for j in sorted(near[i]):
            if j in ((i - 1) % n, (i + 1) % n):
                continue
            c2, d2 = v[j], v[(j + 1) % n]
            if segments_properly_intersect(a, b, c2, d2):
                raise InvalidPolygonError(f"edges {i} and {j} cross")
            if j != (i + 2) % n and on_segment(v[j], a, b):
                raise InvalidPolygonError(f"vertex {j} lies on edge {i}")


def _interval_dp(n, diag, steps, ops):
    """Shared circular-interval DP engine, one interval size at a time.

    A path over the circular interval [i, j] of size s ends at i (state A)
    or at j (state B); the rows of size s hold both costs at index i, and
    only the rows of the previous size are kept.  ``diag`` seeds size 1 (0
    for allowed starts, infinity otherwise).  ``steps(s)`` returns four step
    cost rows, indexed by i for the intervals of size s: into A from i+1 and
    from j, into B from j-1 and from i.  The engine adds them as they are;
    a caller whose objective weights a step multiplies it in first.  All
    rows are of the kind ``ops`` works on.  Costs are nonnegative or
    infinite, so an unreachable state stays infinite.  On ties extending
    from the same end beats switching ends.  Returns (best, path).
    """
    add_, cat, minimum, less = ops.add, ops.cat, ops.minimum, ops.less
    A = B = ops.row(diag)
    switched = [None, None]  # per size: one bytes row each for A and B
    for s in range(2, n + 1):
        near_a, far_a, near_b, far_b = steps(s)
        a0 = add_(cat(A[1:], A[:1]), near_a)
        a1 = add_(cat(B[1:], B[:1]), far_a)
        b0 = add_(B, near_b)
        b1 = add_(A, far_b)
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


def _polygon_dp(poly, diag):
    """Interval DP over the polygon's vertex ring, its distances filled from
    the visible pairs.  Visibility is symmetric, and ``math.hypot`` of the
    negated differences is the same float, so the step from i to j and the
    step back are one row, ``rot[s - 1]`` for the intervals of size s."""
    n, v = poly.n, poly.vertices
    # one byte per pair, and the list matrix is freed before the table exists
    vis = [bytes(row) for row in visibility_matrix(poly)]
    rot = [array("d", [INF]) * n for _ in range(n)]  # rot[d][i]: i to i + d
    for i, (xi, yi) in enumerate(v):
        for j in compress(range(n), vis[i]):
            xj, yj = v[j]
            rot[(j - i) % n][i] = math.hypot(xi - xj, yi - yj)
    del vis
    ops = rows.interval(n)
    rot = ops.row(rot)
    near = ops.cat(rot[1], rot[1])  # near[k]: k to k + 1, read at a rotation

    def steps(s):
        return rot[1], rot[s - 1], near[s - 2:s - 2 + n], rot[s - 1]

    return _interval_dp(n, diag, steps, ops)


def shortest_ham_path_fixed_start(poly, start):
    """Shortest inside-the-polygon Hamiltonian path starting at ``start``.

    Distances are filled from the visible pairs, one row for both directions
    as visibility is symmetric; no distance override exists.  Returns
    (length, path), (inf, []) only when every length overflows: the boundary
    is a path inside the polygon."""
    n = poly.n
    if not (0 <= start < n):
        raise ValueError(f"start {start} outside 0..{n - 1}")
    diag = [INF] * n
    diag[start] = 0.0
    return _polygon_dp(poly, diag)


def shortest_ham_path_free_start(poly):
    """:func:`shortest_ham_path_fixed_start` with the start unconstrained, on
    the same table, and (inf, []) likewise only when every length overflows."""
    return _polygon_dp(poly, [0.0] * poly.n)


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
        # the solvers' prefix sums overflow where the oracle's arcs may not
        for name, xs in (("gaps", gaps), ("weights", w)):
            if not math.isfinite(sum(xs)):
                raise ValueError(f"{name} must sum to a finite number")
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
    With a fixed start, skipping gap j leaves the arc a from the start to
    vertex j and the arc b from vertex j+1 round to the start, and the path
    walks the shorter one twice: a + b + min(a, b).  Both are running sums
    from the start, so no small gap cancels against a large one."""
    if inst.start is None:
        # the correctly rounded sum of the kept gaps: subtracting the largest
        # from the total would cancel the small ones beside it
        kept = list(inst.gaps)
        kept.remove(max(kept))
        return math.fsum(kept)
    # renumbered from the start: gap j follows the j-th vertex after it
    gaps = inst.gaps[inst.start:] + inst.gaps[:inst.start]
    fwd = accumulate(gaps, initial=0.0)  # a for j = 0, 1, ...
    back = list(accumulate(reversed(gaps[1:]), initial=0.0))  # b for j = n-1, n-2, ...
    return min(a + b + min(a, b) for a, b in zip(fwd, reversed(back)))


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
    add_, sub_, mul_, cat, minimum = ops.add, ops.sub, ops.mul, ops.cat, ops.minimum
    w_out = ops.row([wp[n] - x for x in wp])  # weight of vertices k .. n-1
    totals = ops.row([dp[n]] * n)
    dp, wp = ops.row(dp), ops.row(wp)

    def arcs(s):
        # the arcs from j to i and from i to j, and the weights of the steps
        # into A and into B.  Intervals [i, i + s - 1] with i < m do not wrap
        # past vertex n-1; the arc from i to j is dp[j] - dp[i] for those,
        # and the curve minus the arc from j to i for the others
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

    near_a, near_b, _, _ = arcs(2)  # near_a[i]: i+1 to i; near_b[k]: k to k+1
    near_b = cat(near_b, near_b)  # each size reads a rotation: a slice here

    def steps(s):
        far_a, far_b, ma, mb = arcs(s)
        return (mul_(near_a, ma), mul_(far_a, ma),
                mul_(near_b[s - 2:s - 2 + n], mb), mul_(far_b, mb))

    return _interval_dp(n, diag, steps, ops)
