"""Which vertex pairs of a simple polygon see each other: an O(n^2)
triangulation and funnel pass, and the O(n) per pair test between the d rows
that pass cannot decide, O(n^2 + d^2 n) in all (see ``visibility_matrix``).
"""

from bisect import bisect_left, bisect_right
from collections import deque
from operator import mul

from .geometry import on_segment, orientation
from .tolerances import DEFER_TOL, EPS, MIN_PIECE


def visibility_matrix(poly):
    """Boolean n x n matrix: segment (i, j) stays inside the closed polygon.

    O(n^2 + d^2 n) for d deferred rows: one ear-clipping triangulation, then
    one funnel walk per source vertex (``_funnel_rows``).  Each cross product
    either pass decides on is taken relative to the source, as the pair test
    takes it.  The triangulation clips only ears that no cross product within
    ``DEFER_TOL`` (plus a bound on its rounding) of zero puts in doubt, and
    defers every row only when no such ear is left; a walk that meets such a
    cross product defers its own row.  A deferred row takes its entries with
    the finished rows from them, and the pair test (``_pair_rows``) decides
    each pair of two deferred rows.  It is the O(n) per pair scan that
    ``oracles.visibility_reference`` mirrors predicate by predicate; the
    matrix can still differ from the reference on a finished row, where the
    reference calls visible a chord whose one midpoint lies within ``EPS``
    of an edge but which leaves the polygon.
    """
    v = poly.vertices
    n = poly.n
    vis = [[False] * n for _ in range(n)]
    for i in range(n):
        vis[i][i] = True
        vis[i][(i + 1) % n] = True
        vis[(i + 1) % n][i] = True
    # two roundings of one cross product differ by under m^2 * 2^-47, so a
    # sign the walk trusts is the pair test's sign, past its EPS, too
    m = max(abs(c) for p in v for c in p)
    tol = DEFER_TOL + m * m * 2.0 ** -46
    tris = _triangulate(v, tol)
    deferred = range(n) if tris is None else _funnel_rows(v, tris, tol, vis)
    if deferred:
        _pair_rows(v, vis, deferred)
    return vis


def _triangulate(v, tol):
    """Ear-clipping triangulation of the counterclockwise ring ``v``: n - 2
    counterclockwise index triples, or None when it runs out of ears.

    An ear is clipped only when every cross product its test reads clears
    ``tol``; one within ``tol`` of zero makes the vertex no ear for now.  A
    vertex whose own turn is within ``tol`` blocks as a reflex vertex does.
    An ear test looks at the reflex vertices inside the triangle's bounding
    box, and after a clip only the two vertices next to it are tested again.
    So an ear opened by a clip farther away goes unseen, and if the queue
    runs dry that way, or every ear left is in doubt, this gives up: O(n^2)
    tests, never a wrong one.
    """
    n = len(v)
    nxt = list(range(1, n)) + [0]
    prv = [n - 1] + list(range(n - 1))
    alive = [True] * n

    def turn(a, b, c):
        (ax, ay), (bx, by), (cx, cy) = v[a], v[b], v[c]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    reflex = [b for b in range(n) if turn(prv[b], b, nxt[b]) <= tol]
    reflex.sort(key=lambda k: v[k][0])
    rx = [v[k][0] for k in reflex]

    def ear(b):
        a, c = prv[b], nxt[b]
        if turn(a, b, c) <= tol:
            return False
        (ax, ay), (bx, by), (cx, cy) = v[a], v[b], v[c]
        y_lo, y_hi = min(ay, by, cy), max(ay, by, cy)
        for r in reflex[bisect_left(rx, min(ax, bx, cx)):
                        bisect_right(rx, max(ax, bx, cx))]:
            px, py = v[r]
            if not (alive[r] and y_lo <= py <= y_hi) or r in (a, b, c):
                continue
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -tol:
                continue
            if (cx - bx) * (py - by) - (cy - by) * (px - bx) < -tol:
                continue
            if (ax - cx) * (py - cy) - (ay - cy) * (px - cx) < -tol:
                continue
            return False  # r is inside, or too near an edge to tell
        return True

    is_ear = [ear(b) for b in range(n)]
    ears = deque(b for b in range(n) if is_ear[b])
    tris = []
    for _ in range(n - 3):
        while ears and not is_ear[ears[0]]:
            ears.popleft()
        if not ears:
            return None  # rare, and exact
        b = ears.popleft()
        a, c = prv[b], nxt[b]
        tris.append((a, b, c))
        is_ear[b] = alive[b] = False
        nxt[a], prv[c] = c, a
        for k in (a, c):
            is_ear[k] = ear(k)
            if is_ear[k]:
                ears.append(k)
    b = next(b for b in range(n) if alive[b])
    tris.append((prv[b], b, nxt[b]))
    return tris


def _funnel_rows(v, tris, tol, vis):
    """Mark in ``vis[i]`` every vertex source i sees, by walking the
    triangles ``tris`` away from i; returns the sources whose walk met a
    cross product within ``tol`` of zero, their rows unfinished.

    The triangles at i are seen whole.  Across each diagonal the walk keeps
    a cone of rays from i to two vertices, R on the right and L on the left:
    the far vertex w of the next triangle is seen when it lies strictly
    inside the cone, which then splits into (R, w) and (w, L); otherwise the
    whole cone leaves through the triangle's edge on w's far side.  The dual
    graph is a tree, so each triangle is entered at most once per source.
    """
    n = len(v)
    third = {}  # directed edge a * n + b -> third vertex of the triangle to its left
    for a, b, c in tris:
        third[a * n + b] = c
        third[b * n + c] = a
        third[c * n + a] = b
    get = third.get
    xs = [x for x, _ in v]
    ys = [y for _, y in v]
    deferred = []
    for i in range(n):
        xi, yi = v[i]
        row = vis[i]
        # portals (p, q) with p on the right, and the cone's rays (R, L)
        stack = []
        a, last = (i + 1) % n, (i - 1) % n
        while a != last:  # the fan of triangles (i, a, b)
            b = third[i * n + a]
            row[b] = True
            stack.append((a, b, xs[a] - xi, ys[a] - yi, xs[b] - xi, ys[b] - yi))
            a = b
        while stack:
            p, q, xr, yr, xl, yl = stack.pop()
            while (w := get(q * n + p)) is not None:  # None: a polygon edge
                xw, yw = xs[w] - xi, ys[w] - yi
                cr = xr * yw - yr * xw
                if cr < -tol:  # right of the cone: it leaves through (w, q)
                    p = w
                    continue
                if cr <= tol:
                    break
                cl = xl * yw - yl * xw
                if cl > tol:  # left of the cone: it leaves through (p, w)
                    q = w
                    continue
                if cl >= -tol:
                    break
                row[w] = True
                stack.append((w, q, xw, yw, xl, yl))
                q, xl, yl = w, xw, yw
            else:
                continue
            deferred.append(i)
            break
    return deferred


def _pair_rows(v, vis, rows):
    """Finish the deferred ``rows``, ascending: each takes its entry with a
    finished row from that row, and the pair test decides each non-adjacent
    pair of two deferred rows, the smaller index the base.  O(d^2 n) for d
    rows: O(n) per pair, one line-side pass.

    The sign of every vertex against the line v[i]v[j], with the cross
    product and tolerance of ``geometry.orientation``, finds both the edges
    that may cross the segment properly (endpoint signs opposite and
    nonzero) and the vertices it touches.  A pair fails on a proper
    crossing; otherwise the segment is cut at every touched vertex and each
    piece's midpoint must test inside.  ``oracles.visibility_reference`` is
    the same test predicate by predicate.
    """
    n = len(v)
    for j in rows:  # entry (j, k) from row k; the pair test redoes deferred k
        vis[j] = [row[j] for row in vis]
    inside = _inside_test(v)
    eps, neg = EPS, -EPS
    for i in rows:
        end = n if i else n - 1
        cols = rows[bisect_left(rows, i + 2):bisect_left(rows, end)]
        if not cols:
            continue
        ax, ay = v[i]
        rel = [(x - ax, y - ay) for x, y in v]
        for j in cols:
            dx, dy = rel[j]
            s = [1 if (c := dx * ry - dy * rx) > eps else -1 if c < neg else 0
                 for rx, ry in rel]
            touched = s.count(0)  # i and j always; more when the segment grazes
            s.append(s[0])
            seen = not (-1 in map(mul, s, s[1:]) and _crosses(v, s, v[i], v[j]))
            if seen:
                if touched == 2:
                    cuts = (0.0, 1.0)
                else:
                    cuts = _touch_cuts(v, rel, s, v[i], v[j])
                for t0, t1 in zip(cuts, cuts[1:]):
                    if t1 - t0 <= MIN_PIECE:
                        continue
                    tm = 0.5 * (t0 + t1)
                    if not inside(ax + tm * dx, ay + tm * dy):
                        seen = False
                        break
            vis[i][j] = vis[j][i] = seen


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
    the slab, a superset that ``on_segment`` then filters exactly.  Slab k
    lies between ys[k - 1] and ys[k], so bisection finds each edge's slabs
    and the build is O(n + slab entries).
    """
    n = len(v)
    ys = sorted({y for _, y in v})
    near = [[] for _ in range(len(ys) + 1)]
    parity = [[] for _ in range(len(ys) + 1)]
    for e in range(n):
        c, d = v[e], v[(e + 1) % n]
        y0, y1 = min(c[1], d[1]), max(c[1], d[1])
        for k in range(bisect_left(ys, y0 - EPS), bisect_right(ys, y1 + EPS) + 1):
            near[k].append((c, d))
        for k in range(bisect_left(ys, y0) + 1, bisect_left(ys, y1) + 1):
            parity[k].append((c, d))

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
