"""Planar predicates shared by the polygon path solvers.

Polygon validation's comparisons (``orientation``, ``on_segment``,
``segments_properly_intersect``) use an absolute tolerance for collinearity,
``EPS`` from ``transopt.tolerances``: the input contract.  Visibility and its
reference take exact signs instead (``turn``): a float cross product whose
value clears its rounding bound, else the sign computed on integers.
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
    """Ray-crossing containment test; points on the boundary count inside.

    No tolerance and no division: on integer coordinates, such as
    ``integer_points``, every comparison is exact."""
    x, y = p
    inside = False
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]):
        c = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if c == 0 and min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2):
            return True
        # the edge crosses the horizontal ray to the right of p
        if (y1 > y) != (y2 > y) and (c > 0) == (y2 > y1):
            inside = not inside
    return inside


def integer_points(points):
    """The float ``points`` times the one power of two that makes every
    coordinate an integer (``float.as_integer_ratio``): an exact scaling, so
    a sign computed on them is the sign on the floats."""
    ratios = [c.as_integer_ratio() for p in points for c in p]
    den = max(d for _, d in ratios)
    flat = [a * (den // d) for a, d in ratios]
    return list(zip(flat[::2], flat[1::2]))


def rounding_bound(points):
    """m * m * 2**-46 for the largest coordinate magnitude m of ``points``.

    A float cross product of three of the points is off by less: by under
    3 * 2**-53 times the sum of its two products' magnitudes (Shewchuk,
    "Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
    Predicates", 1997), each product at most about 4 m * m."""
    m = max(abs(c) for p in points for c in p)
    return m * m * 2.0 ** -46


def turn(p, q, r, bound):
    """The cross product (q - p) x (r - p) of float points with its exact
    sign: the float value where it clears ``bound`` (``rounding_bound`` of
    the points), else -1, 0 or +1 computed on ``integer_points``."""
    c = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return c if abs(c) > bound else exact_turn(p, q, r)


def exact_turn(p, q, r):
    """The sign of (q - p) x (r - p), -1, 0 or +1, computed on
    ``integer_points``: what ``turn`` falls back on."""
    (px, py), (qx, qy), (rx, ry) = integer_points((p, q, r))
    c = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (c > 0) - (c < 0)


def signed_area(vertices):
    """Twice-halved shoelace area; positive for counterclockwise rings."""
    total = 0.0
    n = len(vertices)
    for i in range(n):
        (x1, y1), (x2, y2) = vertices[i], vertices[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return 0.5 * total
