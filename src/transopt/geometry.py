"""Planar predicates shared by the polygon path solvers.

All comparisons use an absolute tolerance for collinearity, ``EPS`` from
``transopt.tolerances``, so that points produced by exact integer or simple
rational coordinates classify stably.
"""

from .tolerances import EPS


def orientation(p, q, r):
    """Sign of the cross product (q-p) x (r-p): +1 left turn, -1 right, 0
    collinear within tolerance."""
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if cross > EPS:
        return 1
    if cross < -EPS:
        return -1
    return 0


def on_segment(p, a, b):
    """True when p lies on the closed segment ab (within tolerance)."""
    if orientation(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) - EPS <= p[0] <= max(a[0], b[0]) + EPS
        and min(a[1], b[1]) - EPS <= p[1] <= max(a[1], b[1]) + EPS
    )


def segments_properly_intersect(a, b, c, d):
    """True when segments ab and cd cross at a single interior point.

    Collinear overlap and endpoint touching do not count.
    """
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def point_in_polygon(vertices, p):
    """Ray-crossing containment test; points on the boundary count inside."""
    n = len(vertices)
    for i in range(n):
        if on_segment(p, vertices[i], vertices[(i + 1) % n]):
            return True
    inside = False
    x, y = p
    for i in range(n):
        (x1, y1), (x2, y2) = vertices[i], vertices[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xi > x:
                inside = not inside
    return inside


def signed_area(vertices):
    """Twice-halved shoelace area; positive for counterclockwise rings."""
    total = 0.0
    n = len(vertices)
    for i in range(n):
        (x1, y1), (x2, y2) = vertices[i], vertices[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return 0.5 * total
