"""Which vertex pairs of a simple polygon see each other: one ear-clipping
triangulation and one funnel walk per source vertex, O(n^2) in general
position, every sign exact on the input floats (see ``visibility_matrix``).
"""

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import compress

from .geometry import exact_turn, rounding_bound, turn


def visibility_matrix(poly):
    """Boolean n x n matrix: segment (i, j) stays inside the closed polygon.

    One ear-clipping triangulation, then one funnel walk per source vertex
    (``_funnel_rows``).  Every cross product either pass reads has its exact
    sign (``geometry.turn``): the float value where it clears the rounding
    bound ``m * m * 2**-46`` of the largest coordinate m, else the sign
    computed exactly from the input coordinates.  So the matrix is the
    closed-interior visibility of the float polygon, entry for entry what
    ``oracles.visibility_reference`` computes.
    """
    v = poly.vertices
    n = poly.n
    vis = [[False] * n for _ in range(n)]
    for i in range(n):
        vis[i][i] = True
        vis[i][(i + 1) % n] = True
        vis[(i + 1) % n][i] = True
    tol = rounding_bound(v)
    _funnel_rows(v, _triangulate(v, tol), tol, vis)
    return vis


def _triangulate(v, tol):
    """Ear-clipping triangulation of the counterclockwise ring ``v``: n - 2
    counterclockwise index triples.

    An ear turns left, and no live vertex but its own three lies in its
    closed triangle; a flat vertex (turn exactly 0) blocks as a reflex vertex
    does.  An ear test looks at the reflex and flat vertices inside the
    triangle's bounding box, and after a clip only the two vertices next to
    it are tested again.  An ear opened by a clip farther away goes unseen,
    so when the queue runs dry every live vertex is tested once more: by the
    two-ears theorem one is an ear.
    """
    n = len(v)
    nxt = list(range(1, n)) + [0]
    prv = [n - 1] + list(range(n - 1))
    alive = [True] * n
    reflex = [b for b in range(n) if turn(v[prv[b]], v[b], v[nxt[b]], tol) <= 0]
    reflex.sort(key=lambda k: v[k][0])
    rx = [v[k][0] for k in reflex]

    def ear(b):
        a, c = prv[b], nxt[b]
        pa, pb, pc = v[a], v[b], v[c]
        if turn(pa, pb, pc, tol) <= 0:
            return False
        (ax, ay), (bx, by), (cx, cy) = pa, pb, pc
        y_lo, y_hi = min(ay, by, cy), max(ay, by, cy)
        for r in reflex[bisect_left(rx, min(ax, bx, cx)):
                        bisect_right(rx, max(ax, bx, cx))]:
            p = v[r]
            px, py = p
            if not (alive[r] and y_lo <= py <= y_hi) or r in (a, b, c):
                continue
            if ((bx - ax) * (py - ay) - (by - ay) * (px - ax) < -tol
                    or (cx - bx) * (py - by) - (cy - by) * (px - bx) < -tol
                    or (ax - cx) * (py - cy) - (ay - cy) * (px - cx) < -tol):
                continue  # surely right of an edge, so outside
            if min(turn(pa, pb, p, tol), turn(pb, pc, p, tol), turn(pc, pa, p, tol)) >= 0:
                return False  # r lies in the closed triangle
        return True

    is_ear, ears, tris = [], deque(), []
    for _ in range(n - 3):
        while ears and not is_ear[ears[0]]:
            ears.popleft()
        if not ears:  # at the start, and when the queue runs dry
            is_ear = [alive[b] and ear(b) for b in range(n)]
            ears = deque(compress(range(n), is_ear))
        b = ears.popleft()
        a, c = prv[b], nxt[b]
        tris.append((a, b, c))
        is_ear[b] = alive[b] = False
        nxt[a], prv[c] = c, a
        for k in (a, c):
            is_ear[k] = ear(k)
            if is_ear[k]:
                ears.append(k)
    b = alive.index(True)
    tris.append((prv[b], b, nxt[b]))
    return tris


def _funnel_rows(v, tris, tol, vis):
    """Mark in ``vis[i]`` every vertex source i sees, by walking the
    triangles ``tris`` away from i.

    The triangles at i are seen whole.  Across each diagonal the walk keeps
    an open cone of directions from i between the rays through two vertices,
    r on the right and l on the left.  The next triangle's far vertex w is
    seen when it lies inside the cone or on one of its rays, and an inside w
    splits the cone in two; otherwise the whole cone leaves through the
    triangle's edge on w's far side, as it does past a w on a ray.  Whatever
    the cone sweeps lies in the polygon, and so do its rays as far as it
    goes.  Where a polygon edge stops the cone just past a vertex on its ray,
    the ray alone may go on (``_ray``).  The dual graph is a tree, so each
    triangle is entered at most once per cone.
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
    ntol = -tol
    for i in range(n):
        o, row = v[i], vis[i]
        xi, yi = o
        # portals (p, q) with p on the right, the vertices r and l of the
        # rays, and those vertices relative to the source
        stack = []
        a = (i + 1) % n
        xa, ya = xs[a] - xi, ys[a] - yi
        while (b := get(i * n + a)) is not None:  # the triangles (i, a, b)
            xb, yb = xs[b] - xi, ys[b] - yi
            row[b] = True
            stack.append((a, b, a, b, xa, ya, xb, yb))
            a, xa, ya = b, xb, yb
        while stack:
            p, q, r, l, xr, yr, xl, yl = stack.pop()
            while (w := get(q * n + p)) is not None:  # None: a polygon edge
                # geometry.turn(o, v[r], v[w], tol), inlined; nan is in doubt
                xw, yw = xs[w] - xi, ys[w] - yi
                s = xr * yw - yr * xw
                if s < ntol:  # right of the cone: it leaves through (w, q)
                    p = w
                    continue
                if not s > tol:
                    if (s := exact_turn(o, v[r], v[w])) < 0:
                        p = w
                        continue
                    if s == 0:
                        row[w] = True
                        p, r, xr, yr = w, w, xw, yw
                        # a polygon edge at w on the cone's side cuts it off the ray
                        if max(turn(o, v[w], v[w - 1], tol),
                               turn(o, v[w], v[(w + 1) % n], tol)) > 0:
                            _ray(v, o, w, tol, get, row)
                        continue
                s = xl * yw - yl * xw
                if s > tol:  # left of the cone: it leaves through (p, w)
                    q = w
                    continue
                if not s < ntol:
                    if (s := exact_turn(o, v[l], v[w])) > 0:
                        q = w
                        continue
                    if s == 0:
                        row[w] = True
                        q, l, xl, yl = w, w, xw, yw
                        if min(turn(o, v[w], v[w - 1], tol),
                               turn(o, v[w], v[(w + 1) % n], tol)) < 0:
                            _ray(v, o, w, tol, get, row)
                        continue
                row[w] = True
                stack.append((w, q, w, l, xw, yw, xl, yl))
                q, l, xl, yl = w, w, xw, yw


def _ray(v, o, w, tol, get, row):
    """Mark in ``row`` the vertices the ray from point o through vertex w
    meets past w while it stays in the closed polygon.

    At each vertex on the ray, the triangle around it whose closed angle
    holds the ray's direction is found by turning from the vertex's outgoing
    edge; none means the ray leaves the polygon there.  Along an edge the ray
    reaches the edge's far vertex; through a triangle it crosses the
    opposite edge and walks on as a cone of width zero, until it meets a
    vertex or a polygon edge.
    """
    n = len(v)
    pw = v[w]
    while True:
        a = (w + 1) % n
        sa = turn(o, pw, v[a], tol)
        while (b := get(w * n + a)) is not None:  # the triangles (w, a, b)
            sb = turn(o, pw, v[b], tol)
            if sa <= 0 <= sb:  # a on or right of the ray, b on or left of it
                break
            a, sa = b, sb
        else:
            return
        if sa == 0 or sb == 0:
            w = a if sa == 0 else b
        else:
            p, q = a, b
            while (w := get(q * n + p)) is not None:
                s = turn(o, pw, v[w], tol)
                if s == 0:
                    break
                if s < 0:
                    p = w
                else:
                    q = w
            else:
                return
        row[w] = True
