"""Planar predicates shared by the polygon path solvers.

Every sign of a cross product is exact on the input floats (``turn``): the
float value where it clears its rounding bound, else the sign computed on
integers.  Polygon validation, triangulation and visibility read no other.
"""


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


def twice_area(vertices):
    """Twice the signed shoelace area, positive for counterclockwise rings;
    an exact integer on ``integer_points``."""
    return sum(x1 * y2 - x2 * y1
               for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]))
