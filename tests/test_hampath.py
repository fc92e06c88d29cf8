import math
import random
from itertools import accumulate

import pytest

from transopt import hampath, rows, visibility
from transopt.errors import InvalidPolygonError
from transopt.geometry import (
    exact_turn,
    integer_points,
    on_segment,
    orientation,
    point_in_polygon,
    rounding_bound,
    segments_properly_intersect,
    signed_area,
    turn,
)
from transopt.hampath import (
    CurveInstance,
    SimplePolygon,
    curve_ham_path,
    curve_weighted_ham_path,
    shortest_ham_path_fixed_start,
    shortest_ham_path_free_start,
    visibility_matrix,
)
from transopt import oracles
from transopt.oracles import curve_zigzag_brute, ham_brute, visibility_reference
from transopt.tolerances import CHECK_EPS, REL_TOL

INF = math.inf

SQUARE = SimplePolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
RIGHT_TRI = SimplePolygon(((0, 0), (1, 0), (0, 1)))
DART = SimplePolygon(((0, 0), (4, 0), (4, 4), (2, 1)))


def test_orientation_and_on_segment():
    assert orientation((0, 0), (1, 0), (0, 1)) > 0
    assert orientation((0, 0), (0, 1), (1, 0)) < 0
    assert orientation((0, 0), (1, 1), (2, 2)) == 0
    assert on_segment((1, 1), (0, 0), (2, 2))
    assert not on_segment((3, 3), (0, 0), (2, 2))
    assert not on_segment((1, 0), (0, 0), (2, 2))


def test_proper_intersection():
    assert segments_properly_intersect((0, 0), (2, 2), (0, 2), (2, 0))
    # shared endpoint is a touch, not a proper crossing
    assert not segments_properly_intersect((0, 0), (2, 2), (2, 2), (3, 0))
    assert not segments_properly_intersect((0, 0), (1, 0), (0, 1), (1, 1))


def test_point_in_polygon():
    v = DART.vertices
    assert point_in_polygon(v, (3, 1))
    assert not point_in_polygon(v, (2, 2))  # inside the notch
    assert point_in_polygon(v, (2, 0))  # boundary counts as inside
    assert point_in_polygon(v, (4, 4))


def test_signed_area():
    assert signed_area(SQUARE.vertices) == 1.0


def test_polygon_validation():
    with pytest.raises(InvalidPolygonError):
        SimplePolygon(((0, 0), (1, 0)))
    with pytest.raises(InvalidPolygonError):
        SimplePolygon(((0, 0), (1, 0), (1, 0.0000000001)))
    with pytest.raises(InvalidPolygonError):  # clockwise ring
        SimplePolygon(((0, 0), (0, 1), (1, 1), (1, 0)))
    with pytest.raises(InvalidPolygonError):  # self-crossing bowtie
        SimplePolygon(((0, 0), (1, 1), (1, 0), (0, 1)))
    with pytest.raises(InvalidPolygonError):  # spike folds back on itself
        SimplePolygon(((0, 0), (2, 0), (1, 0), (1, 1)))
    with pytest.raises(InvalidPolygonError):  # vertex sits on another edge
        SimplePolygon(((0, 0), (2, 0), (2, 2), (1, 0), (0, 2)))


# each fault kind, and polygons with several faults: the message of the
# first one the all-pairs scan met is pinned
FIRST_FAULT = [
    (((0, 0), (1, 0)), "need at least 3 vertices, got 2"),
    (((0, 0), (1, 0), (1, 1e-10)), "vertices 1 and 2 coincide"),
    (((0, 0), (0, 1), (1, 1), (1, 0)), "vertex ring is not counterclockwise"),
    (((0, 0), (2, 0), (1, 0), (1, 1)), "edges at vertex 1 fold back"),
    (((0, 0), (4, 0), (4, 3), (1, -1), (0, 3)), "edges 0 and 2 cross"),
    (((0, 0), (2, 0), (2, 2), (1, 0), (0, 2)), "vertex 3 lies on edge 0"),
    (((0, 0), (2, 0), (2, 2), (1, 0.5e-9), (0, 2)), "vertex 3 lies on edge 0"),
    # several faults
    (((0, 0), (3, 0), (3, 3), (5e-10, -5e-10), (3, 4e-10), (0, 3)),
     "vertices 0 and 3 coincide"),
    (((0, 0), (0, 1), (1, 1), (1, 0), (1, 1e-10)), "vertices 3 and 4 coincide"),
    (((0, 0), (1, 1), (1, 0), (0, 1)), "vertex ring is not counterclockwise"),
    (((0, 0), (0, 3), (3, 3), (3, 0), (1, 4)), "vertex ring is not counterclockwise"),
    (((0, 0), (2, 0), (1, 0), (1, 1), (3, 2), (3, -1), (4, 3), (0, 3)),
     "edges at vertex 1 fold back"),
    (((0, 0), (4, 0), (4, 3), (1, -1), (1, 2), (1, 1), (0, 3)),
     "edges 0 and 2 cross"),
    (((0, 0), (6, 0), (6, 4), (5, -1), (4, 4), (3, 0), (0, 4)),
     "edges 0 and 2 cross"),
    (((0, 0), (6, 0), (6, 4), (3, 0), (2, 5), (1, -1), (0, 4)),
     "vertex 3 lies on edge 0"),
    (((0, 0), (6, 0), (6, 6), (5, 6), (5, -1), (4, -1), (4, 6), (0, 6)),
     "edges 0 and 3 cross"),
    # a notch tip within EPS right of a vertical edge, its own edges running
    # right: their x-ranges meet only through the EPS widening
    (((0, 0), (4, 0), (4, 2.8), (1 + 2e-10, 3), (4, 3.2), (4, 4), (1, 4),
      (1, 2), (0.5, 2), (0.5, 4), (0, 4)), "vertex 3 lies on edge 6"),
]


@pytest.mark.parametrize("ring, message", FIRST_FAULT)
def test_polygon_validation_names_the_first_fault(ring, message):
    with pytest.raises(InvalidPolygonError) as info:
        SimplePolygon(ring)
    assert str(info.value) == message


def _first_fault_all_pairs(v):
    """The all-pairs validation scan: every pair of vertices, then per edge
    i the fold-back and every edge j in order."""
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(v[i][0] - v[j][0]) <= 1e-9 and abs(v[i][1] - v[j][1]) <= 1e-9:
                return f"vertices {i} and {j} coincide"
    if signed_area(v) <= 0:
        return "vertex ring is not counterclockwise"
    for i in range(n):
        a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
        if orientation(a, b, c) == 0 and \
                (a[0] - b[0]) * (c[0] - b[0]) + (a[1] - b[1]) * (c[1] - b[1]) > 0:
            return f"edges at vertex {(i + 1) % n} fold back"
        for j in range(n):
            if j in (i, (i - 1) % n, (i + 1) % n):
                continue
            if segments_properly_intersect(a, b, v[j], v[(j + 1) % n]):
                return f"edges {i} and {j} cross"
            if j != (i + 2) % n and on_segment(v[j], a, b):
                return f"vertex {j} lies on edge {i}"
    return None


def test_polygon_validation_matches_the_all_pairs_scan():
    # small integer rings hit every fault kind, often several at once;
    # stars with one vertex pulled onto another vertex or an edge
    # (or within the tolerance of one) fail only there
    rng = random.Random(52)
    rings = [[(rng.randint(0, 4), rng.randint(0, 4))
              for _ in range(rng.randint(3, 9))] for _ in range(600)]
    for _ in range(300):
        v = list(jittered_star(rng, rng.randint(5, 30), 0.3).vertices)
        n = len(v)
        k, e = rng.randrange(n), rng.randrange(n)
        (x0, y0), (x1, y1) = v[e], v[(e + 1) % n]
        u = rng.choice((0.0, 0.5, rng.random()))
        off = rng.choice((0.0, 0.5e-9, -2e-9, 1e-3))
        v[k] = (x0 + u * (x1 - x0) + off, y0 + u * (y1 - y0) - off)
        rings.append(v)
    kinds = {"coincide", "counterclockwise", "fold back", "cross", "lies on edge"}
    seen = set()
    for ring in rings:
        expected = _first_fault_all_pairs(ring) if len(ring) >= 3 else None
        try:
            SimplePolygon(ring)
            got = None
        except InvalidPolygonError as exc:
            got = str(exc)
        assert got == expected, ring
        seen |= {kind for kind in kinds if expected and kind in expected}
        seen.add(expected is None)
    assert seen == kinds | {True, False}


def test_visibility_dart():
    vis = visibility_matrix(DART)
    assert not vis[0][2] and not vis[2][0]  # blocked by the reflex notch
    assert vis[1][3] and vis[3][1]
    for i in range(4):
        assert vis[i][i] and vis[i][(i + 1) % 4]


def test_visibility_convex_all_true():
    for poly in (SQUARE, RIGHT_TRI):
        vis = visibility_matrix(poly)
        assert all(all(row) for row in vis)


def test_square_paths():
    length, path = shortest_ham_path_fixed_start(SQUARE, 0)
    assert length == 3.0 and path[0] == 0 and sorted(path) == [0, 1, 2, 3]
    length, path = shortest_ham_path_free_start(SQUARE)
    assert length == 3.0 and sorted(path) == [0, 1, 2, 3]


def test_triangle_paths():
    length, _ = shortest_ham_path_fixed_start(RIGHT_TRI, 0)
    assert abs(length - (1.0 + math.sqrt(2.0))) < 1e-12
    length, _ = shortest_ham_path_free_start(RIGHT_TRI)
    assert length == 2.0


def test_hexagon_free_path():
    pts = tuple((math.cos(i * math.pi / 3), math.sin(i * math.pi / 3))
                for i in range(6))
    length, _ = shortest_ham_path_free_start(SimplePolygon(pts))
    assert abs(length - 5.0) < 1e-12


def test_start_out_of_range():
    with pytest.raises(ValueError):
        shortest_ham_path_fixed_start(SQUARE, 4)


def test_cut_visibility_can_disconnect(monkeypatch):
    # vertex 1 sees only vertex 3, so no path from it grows an interval
    vis = [[True] * 4 for _ in range(4)]
    for p, q in ((0, 1), (1, 2)):
        vis[p][q] = vis[q][p] = False
    monkeypatch.setattr(hampath, "visibility_matrix", lambda poly: vis)
    length, path = shortest_ham_path_fixed_start(SQUARE, 1)
    assert length == INF and path == []


def random_convex(rng, n):
    # distinct angles around a circle with jittered radii stay convex only
    # for the circle itself, so sample on the circle
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    if min(b - a for a, b in zip(angles, angles[1:])) < 0.05:
        return None
    pts = tuple((math.cos(a), math.sin(a)) for a in angles)
    try:
        return SimplePolygon(pts)
    except InvalidPolygonError:
        return None


def random_star_shaped(rng, n):
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    if min(b - a for a, b in zip(angles, angles[1:])) < 0.1:
        return None
    pts = tuple((r * math.cos(a), r * math.sin(a))
                for a, r in ((a, rng.uniform(0.4, 1.0)) for a in angles))
    try:
        return SimplePolygon(pts)
    except InvalidPolygonError:
        return None


def jittered_star(rng, n, r_lo):
    # angles jittered inside n equal sectors keep the ring simple
    pts = []
    for i in range(n):
        a = 2.0 * math.pi * (i + rng.uniform(-0.3, 0.3)) / n
        r = rng.uniform(r_lo, 1.0)
        pts.append((r * math.cos(a), r * math.sin(a)))
    return SimplePolygon(pts)


def rectilinear_histogram(rng):
    # integer columns on a common base, with extra vertices inserted along
    # the edges: many collinear vertices for segments to graze
    k = rng.randint(2, 6)
    h = [rng.randint(1, 5) for _ in range(k)]
    ring = [(0, 0), (k, 0), (k, h[-1])]
    for c in range(k - 1, 0, -1):
        ring += [(c, h[c]), (c, h[c - 1])]
    ring.append((0, h[0]))
    corners = [p for t, p in enumerate(ring) if p != ring[t - 1]]
    pts = []
    for t, (x0, y0) in enumerate(corners):
        x1, y1 = corners[(t + 1) % len(corners)]
        pts.append((x0, y0))
        steps = abs(x1 - x0) + abs(y1 - y0)
        pts += [(x0 + (x1 - x0) * u // steps, y0 + (y1 - y0) * u // steps)
                for u in range(1, steps) if rng.random() < 0.5]
    if rng.random() < 0.5:  # a quarter turn puts the runs on vertical lines
        pts = [(-y, x) for x, y in pts]
    return SimplePolygon(pts)


def test_visibility_matches_reference_entry_for_entry():
    rng = random.Random(46)
    blocked = grazing = 0
    for t in range(160):
        if t % 2:
            poly = jittered_star(rng, rng.randint(4, 24), rng.uniform(0.05, 0.85))
        else:
            poly = rectilinear_histogram(rng)
        vis = visibility_matrix(poly)
        assert vis == visibility_reference(poly), poly.vertices
        blocked += sum(row.count(False) for row in vis)
        v, n = poly.vertices, poly.n
        grazing += sum(vis[i][j] and any(on_segment(v[k], v[i], v[j])
                                         for k in range(n) if k not in (i, j))
                       for i in range(n) for j in range(i + 2, n))
    # both blocked pairs and visible pairs cut at a touched vertex occur
    assert blocked > 0 and grazing > 0


def test_visibility_matches_reference_on_random_stars():
    # every tenth star runs up to n = 60; the reference is cubic
    rng = random.Random(53)
    for t in range(500):
        n = rng.randint(4, 60 if t % 10 == 0 else 24)
        poly = jittered_star(rng, n, rng.uniform(0.05, 0.85))
        vis = visibility_matrix(poly)
        assert vis == [list(col) for col in zip(*vis)]
        assert vis == visibility_reference(poly), poly.vertices


def _notch(off, rng, mirror=False):
    """A room whose notch tip lies ``off`` * EPS, as a cross product, to the
    left of the chord from vertex 0 to vertex 5, in a random rotation and
    scale; mirrored, the chord runs from vertex 0 to vertex 2 instead."""
    a, s = rng.uniform(0, 2 * math.pi), rng.choice((1.0, rng.uniform(0.5, 3)))
    w, h = rng.uniform(4, 8), rng.uniform(2, 4)
    xr = rng.uniform(0.3, 0.7) * w
    (px, py), (qx, qy) = (w, 0.0), (0.0, h)
    shift = off * 1e-9 / (s * math.hypot(qx - px, qy - py)) ** 2
    t = (w - xr) / w  # the chord's parameter at x = xr
    tip = (px + t * (qx - px) - shift * (qy - py),
           py + t * (qy - py) + shift * (qx - px))
    ring = [(w, 0), (w, h), (xr + 0.2, h), tip, (xr - 0.2, h), (0, h), (0, 0)]
    c, d = s * math.cos(a), s * math.sin(a)
    ring = [(c * x - d * y, d * x + c * y) for x, y in ring]
    if mirror:  # the tip then lies as far to the chord's right; the ring
        # is reversed to stay counterclockwise
        ring = [(-x, y) for x, y in ring[:1] + ring[:0:-1]]
    return SimplePolygon(ring)


def test_visibility_matches_reference_near_degenerate():
    rng = random.Random(54)
    polys = []
    # a notch tip moved off a chord by a multiple of the tolerance
    for off in (0, 0.5, -0.5, 0.8, -0.8, 1.5, -1.5, 10, -10, 100, -100):
        polys += [_notch(off, rng, mirror) for mirror in (False, True) * 2]
    # collinear runs: stars with points inserted along some edges
    for _ in range(10):
        v = jittered_star(rng, rng.randint(4, 12), 0.3).vertices
        ring = []
        for k, (x0, y0) in enumerate(v):
            x1, y1 = v[(k + 1) % len(v)]
            ring.append((x0, y0))
            if rng.random() < 0.5:
                ring += [(x0 + (x1 - x0) * u / 3, y0 + (y1 - y0) * u / 3)
                         for u in (1, 2)]
        polys.append(SimplePolygon(ring))
    # vertices on a chord: lattice combs whose teeth line up
    for _ in range(10):
        k = rng.randint(2, 5)
        ring = [(0, 0), (2 * k, 0)]
        for c in range(k, 0, -1):
            ring += [(2 * c, 2), (2 * c - 1, rng.choice((1, 2)))]
        ring.append((0, 2))
        polys.append(SimplePolygon(ring))
    # a star vertex moved onto, or just off, the chord between two others:
    # here the walks, not the triangulation, meet the near-zero cross products
    while len(polys) < 200:
        v = list(jittered_star(rng, rng.randint(6, 16), 0.7).vertices)
        n = len(v)
        i, gap = rng.randrange(n), rng.randint(3, n - 3)
        (xi, yi), (xj, yj) = v[i], v[(i + gap) % n]
        u, length = rng.uniform(0.3, 0.7), math.hypot(xj - xi, yj - yi)
        off = rng.choice((0, 0.5, -0.8, 1.5, -10, 100)) * 1e-9 / length ** 2
        v[(i + rng.randint(1, gap - 1)) % n] = (xi + u * (xj - xi) - off * (yj - yi),
                                              yi + u * (yj - yi) + off * (xj - xi))
        try:
            polys.append(SimplePolygon(v))
        except InvalidPolygonError:
            pass
    for poly in polys:
        assert visibility_matrix(poly) == visibility_reference(poly), poly.vertices


def _counting_exact_turn(monkeypatch):
    """Count the signs ``visibility`` settles exactly; returns the list the
    counts go to."""
    calls = []

    def counted(p, q, r):
        calls.append((p, q, r))
        return exact_turn(p, q, r)

    monkeypatch.setattr(visibility, "exact_turn", counted)
    monkeypatch.setattr(visibility, "turn",
                        lambda p, q, r, bound: turn(p, q, r, bound)
                        if abs(turn(p, q, r, 0.0)) > bound else counted(p, q, r))
    return calls


def test_fast_pass_decides_general_position_rows(monkeypatch):
    # general position: every float sign clears the rounding bound, and no
    # sign is recomputed exactly
    calls = _counting_exact_turn(monkeypatch)
    rng = random.Random(55)
    for _ in range(40):
        poly = jittered_star(rng, rng.randint(4, 60), rng.uniform(0.05, 0.85))
        shortest_ham_path_free_start(poly)
    assert not calls
    # collinear runs: exact zeros, which the walk decides itself
    for _ in range(20):
        poly = rectilinear_histogram(rng)
        assert visibility_matrix(poly) == visibility_reference(poly)
    assert calls
    # the L-shaped room: its chord (1, 5) runs exactly through reflex vertex
    # 3, and it stays in the closed polygon
    room = SimplePolygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
    vis = visibility_matrix(room)
    assert vis == visibility_reference(room)
    assert vis[1][5] and vis[5][1]


def test_a_ray_goes_on_past_a_vertex_where_the_cones_stop():
    # from vertex 0 the segment to vertex 4 runs along edge (0, 1), through
    # the interior, then along edge (4, 5): the cone below the top room
    # stops at vertex 5, and the ray alone reaches vertex 4
    ring = SimplePolygon(((0, 0), (1, 0), (1, -1), (3, -1), (3, 0), (2, 0), (2, 1), (0, 1)))
    vis = visibility_matrix(ring)
    assert vis == visibility_reference(ring)
    assert vis[0][4] and vis[4][0]
    assert vis[0][5] and not vis[0][3]


def lattice_ring(rng):
    """The boundary of a random polyomino in a grid of at most 6 by 6
    cells, every lattice point on it a vertex but some of the flat ones,
    scaled by a random factor; None when the boundary is not simple."""
    w, h = rng.randint(2, 6), rng.randint(2, 6)
    cells = {(rng.randrange(w), rng.randrange(h))}
    for _ in range(rng.randint(1, w * h)):
        cx, cy = rng.choice(sorted(cells))
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        if 0 <= cx + dx < w and 0 <= cy + dy < h:
            cells.add((cx + dx, cy + dy))
    edges = set()  # unit edges, counterclockwise round each cell; shared ones cancel
    for cx, cy in cells:
        corners = ((cx, cy), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1))
        for a, b in zip(corners, corners[1:] + corners[:1]):
            if (b, a) in edges:
                edges.remove((b, a))
            else:
                edges.add((a, b))
    nxt = dict(edges)
    if len(nxt) < len(edges):
        return None  # two boundary runs meet at a corner
    ring = [min(nxt)]
    while nxt[ring[-1]] != ring[0]:
        ring.append(nxt[ring[-1]])
    if len(ring) < len(nxt):
        return None  # a hole
    ring = [p for t, p in enumerate(ring)
            if _turn(ring[t - 1], p, ring[(t + 1) % len(ring)]) or rng.random() < 0.6]
    s = rng.choice((1, 0.1, 1e-3, 3.7))
    return SimplePolygon([(x * s, y * s) for x, y in ring])


def test_lattice_rings_match_the_reference():
    # rays through vertices, along edges and through pinches on every ring
    rng = random.Random(59)
    rings = 0
    while rings < 150:
        if (poly := lattice_ring(rng)) is None:
            continue
        rings += 1
        assert visibility_matrix(poly) == visibility_reference(poly), poly.vertices


def test_triangulation_covers_the_polygon():
    rng = random.Random(56)
    polys = [jittered_star(rng, rng.randint(3, 80), rng.uniform(0.05, 0.85))
             for _ in range(100)]
    polys += [rectilinear_histogram(rng) for _ in range(30)]
    for poly in polys:
        v, n = poly.vertices, poly.n
        tris = visibility._triangulate(v, rounding_bound(v))
        assert len(tris) == n - 2
        areas = [signed_area([v[a], v[b], v[c]]) for a, b, c in tris]
        assert min(areas) > 0
        assert math.isclose(math.fsum(areas), signed_area(v), rel_tol=1e-12)
        # every polygon edge borders exactly one triangle
        edges = {(a, b) for t in tris for a, b in zip(t, t[1:] + t[:1])}
        assert len(edges) == 3 * (n - 2)
        assert all((k, (k + 1) % n) in edges for k in range(n))


def _turn(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _reference_row(poly, i):
    """Row i of ``visibility_reference(poly)``, in O(n^2)."""
    v = [(2 * x, 2 * y) for x, y in integer_points(poly.vertices)]
    n = len(v)
    return [abs(i - j) in (0, 1, n - 1) or oracles._segment_inside(v, v[i], v[j])
            for j in range(n)]


def test_near_flat_corner_leaves_the_triangulation_whole():
    # vertex 667 of this star turns by -5.5e-9: a reflex vertex, far past
    # the rounding bound, that blocks the ears over it
    poly = jittered_star(random.Random(28), 800, 0.4)
    v, n = poly.vertices, poly.n
    tol = rounding_bound(v)
    assert -6e-9 < _turn(*v[666:669]) < -tol
    tris = visibility._triangulate(v, tol)
    assert len(tris) == n - 2
    areas = [signed_area([v[a], v[b], v[c]]) for a, b, c in tris]
    assert min(areas) > 0
    assert math.isclose(math.fsum(areas), signed_area(v), rel_tol=1e-12)
    vis = visibility_matrix(poly)
    for i in (666, 667, 668):
        assert vis[i] == _reference_row(poly, i)


def test_chord_through_an_edge_band_is_marked_blocked():
    # the chord (2, 8) leaves this ring: the walk blocks it, and so does the
    # exact reference, though its one midpoint lies within EPS of an edge
    ring = SimplePolygon(((0.21415359021526764, 0.4622371468970153),
                          (0.23620556384407182, 0.1948722365241953),
                          (0.04141973204569637, 0.9232193588940131),
                          (-0.2365409554263064, 0.40957099772274186),
                          (-0.5163877715044046, 0.26401211077240216),
                          (-0.8325669111731506, -0.22843567793258623),
                          (-0.5443941250863795, -0.7361602063968823),
                          (0.23989668313820786, -0.8320451484967162),
                          (0.5533205435714491, -0.44291215360044567)))
    v = ring.vertices
    assert visibility_matrix(ring)[2][8] is False
    assert visibility_reference(ring)[2][8] is False
    assert visibility_matrix(ring) == visibility_reference(ring)
    (ax, ay), (bx, by) = v[2], v[8]
    assert not point_in_polygon(v, (ax + (bx - ax) / 8, ay + (by - ay) / 8))


def test_scaled_star_blocks_the_chords_that_leave_it():
    # the seed-5 n=500 star scaled by 1e-2: these chords leave the polygon
    # by a rounding-size margin, and both the matrix and the reference block
    # them
    rng = random.Random(5)
    pts = []
    for i in range(500):  # perfbench's star_polygon
        a = 2.0 * math.pi * (i + rng.uniform(-0.3, 0.3)) / 500
        r = rng.uniform(0.4, 1.0)
        pts.append((r * math.cos(a) * 1e-2, r * math.sin(a) * 1e-2))
    poly = SimplePolygon(pts)
    vis = visibility_matrix(poly)
    v = [(2 * x, 2 * y) for x, y in integer_points(poly.vertices)]
    for i, j in ((4, 251), (8, 11), (117, 373), (124, 256)):
        assert vis[i][j] is False and vis[j][i] is False
        assert oracles._segment_inside(v, v[i], v[j]) is False


def test_near_flat_rings_match_the_reference():
    # stars scaled down to 3e-4 and, three in ten, snapped to a grid: many
    # turns and blockers lie within the rounding bound or on a line
    rng = random.Random(57)
    rings = near_flat = 0
    while rings < 100:
        n, s = rng.randint(3, 70), 3e-4 ** rng.random()
        pts = [(x * s, y * s) for x, y in
               jittered_star(rng, n, rng.choice((0.05, 0.4, 0.85))).vertices]
        if rng.random() < 0.3:
            h = s / rng.choice((8, 16, 64))
            pts = [(round(x / h) * h, round(y / h) * h) for x, y in pts]
        try:
            poly = SimplePolygon(pts)
        except InvalidPolygonError:
            continue
        rings += 1
        v, tol = poly.vertices, rounding_bound(poly.vertices)
        assert visibility_matrix(poly) == visibility_reference(poly), pts
        tris = visibility._triangulate(v, tol)
        # every clipped ear turns left, exactly; the last triangle is what
        # the clips leave
        assert all(turn(v[a], v[b], v[c], tol) > 0 for a, b, c in tris[:-1])
        # count the rings with a corner that turns by at most 1e-8
        corners = zip(v[-1:] + v[:-1], v, v[1:] + v[:1])
        near_flat += any(abs(_turn(*abc)) <= 1e-8 for abc in corners)
    assert near_flat >= 20, near_flat


def test_dp_matches_brute_on_random_polygons():
    rng = random.Random(41)
    done = 0
    while done < 30:
        maker = random_convex if done % 2 == 0 else random_star_shaped
        poly = maker(rng, rng.randint(4, 7))
        if poly is None:
            continue
        ref, _ = ham_brute(poly)
        got, path = shortest_ham_path_free_start(poly)
        assert got <= ref + 1e-9 * max(1.0, ref)
        s = rng.randrange(poly.n)
        ref_s, _ = ham_brute(poly, start=s)
        got_s, path_s = shortest_ham_path_fixed_start(poly, s)
        assert got_s <= ref_s + 1e-9 * max(1.0, ref_s)
        if path_s:
            assert path_s[0] == s
        done += 1


def _per_engine(monkeypatch, solve, *args):
    """``solve(*args)`` once on the list rows and once on the numpy rows,
    whatever the gate would pick for the instance's size."""
    out = []
    for gate in (math.inf, 0):
        with monkeypatch.context() as m:
            m.setattr(rows, "N_ARRAY", gate)
            out.append(solve(*args))
    return out


def test_engine_gate():
    below = rows.interval(rows.N_ARRAY - 1)
    assert rows.interval(2) is below is rows.LISTS
    assert rows.interval(rows.N_ARRAY) is not rows.LISTS


def test_list_and_array_engines_agree_on_curves(monkeypatch):
    rng = random.Random(49)
    sizes = [2, 3, 4, 7, 19, 64, 150, rows.N_ARRAY - 1, rows.N_ARRAY + 23]
    for t, n in enumerate(sizes * 2):
        if t % 2:
            gaps = [rng.randint(1, 9) for _ in range(n)]
            weights = [rng.randint(0, 4) for _ in range(n)]
        else:
            gaps = [rng.uniform(0.01, 10.0) for _ in range(n)]
            weights = [0.0 if rng.random() < 0.2 else rng.uniform(0.0, 5.0)
                       for _ in range(n)]
        start = rng.randrange(n) if t % 3 else None
        inst = CurveInstance(gaps, weights=weights, start=start)
        lists, arrays = _per_engine(monkeypatch, curve_weighted_ham_path, inst)
        assert lists == arrays, (n, start)
        assert type(arrays[0]) is float and len(arrays[1]) == n


def _cut(rng, vis):
    """``vis`` with about half of its visible pairs cut, each both ways: the
    DP's distances take visibility to be symmetric."""
    n = len(vis)
    cut = [list(row) for row in vis]
    for p in range(n):
        for q in range(p + 1, n):
            if rng.random() < 0.5:
                cut[p][q] = cut[q][p] = False
    return cut


def test_list_and_array_engines_agree_on_polygons(monkeypatch):
    rng = random.Random(50)
    polys = [jittered_star(rng, rng.randint(4, 24), rng.uniform(0.05, 0.85))
             for _ in range(12)] + [rectilinear_histogram(rng) for _ in range(6)]
    # past the gate: a regular polygon, where every pair is visible
    n = rows.N_ARRAY + 5
    polys.append(SimplePolygon([(math.cos(2 * math.pi * i / n),
                                 math.sin(2 * math.pi * i / n)) for i in range(n)]))
    reachable = 0
    for t, poly in enumerate(polys):
        n = poly.n
        vis = visibility_matrix(poly) if n < 100 else [[True] * n] * n
        if t % 2:
            vis = _cut(rng, vis)
        monkeypatch.setattr(hampath, "visibility_matrix", lambda poly, vis=vis: vis)
        start = rng.randrange(n)
        for solve, args in ((shortest_ham_path_free_start, (poly,)),
                            (shortest_ham_path_fixed_start, (poly, start))):
            lists, arrays = _per_engine(monkeypatch, solve, *args)
            assert lists == arrays, (poly.vertices, args[1:])
            reachable += lists[0] < INF
    assert 0 < reachable < 2 * len(polys)  # both outcomes are compared


def _reference_polygon_dp(poly, diag):
    """The polygon DP on an n x n table of the per-pair distance closure,
    ``rot[d][i] = dist(i, i + d)``, where each size's step from j back to i
    is the back row ``rot[n - s + 1]`` rotated: no symmetry is assumed."""
    n, v = poly.n, poly.vertices
    vis = visibility_reference(poly)

    def dist(p, q):
        if not vis[p][q]:
            return INF
        return math.hypot(v[p][0] - v[q][0], v[p][1] - v[q][1])

    rot = [[dist(p, (p + d) % n) for p in range(n)] for d in range(n)]

    def steps(s):
        back = rot[n - s + 1]  # dist(k, k - s + 1)
        near_b = rot[1][s - 2:] + rot[1][:s - 2]  # dist(j - 1, j)
        return (rot[n - 1][1:] + rot[n - 1][:1], back[s - 1:] + back[:s - 1],
                near_b, rot[s - 1])

    return hampath._interval_dp(n, diag, steps, rows.LISTS)


def test_solvers_match_the_per_pair_table_reference(monkeypatch):
    rng = random.Random(56)
    for t in range(60):
        if t % 2:
            poly = jittered_star(rng, rng.randint(4, 40), rng.uniform(0.05, 0.85))
        else:
            poly = rectilinear_histogram(rng)
        n = poly.n
        start = rng.randrange(n)
        diag = [INF] * n
        diag[start] = 0.0
        for solve, args, seeds in ((shortest_ham_path_free_start, (poly,), [0.0] * n),
                                   (shortest_ham_path_fixed_start, (poly, start), diag)):
            ref = _reference_polygon_dp(poly, seeds)
            assert ref[0] < INF
            for got in _per_engine(monkeypatch, solve, *args):
                assert got == ref, (poly.vertices, args[1:])
                assert type(got[0]) is float


def _multiplier_curve_dp(inst, ops):
    """The weighted curve DP on an engine that multiplies each step row by a
    weight row itself: ``steps(s)`` gives the arcs from j to i and from i to
    j, and the weights into A and into B; the steps between neighbours are
    the arcs of size 2."""
    n = inst.n
    dp = list(accumulate(inst.gaps, initial=0.0))
    wp = list(accumulate(inst.weights, initial=0.0))
    diag = [0.0 if inst.start in (None, k) else INF for k in range(n)]
    add_, sub_, mul_, cat, minimum = ops.add, ops.sub, ops.mul, ops.cat, ops.minimum
    w_out = ops.row([wp[n] - x for x in wp])
    totals = ops.row([dp[n]] * n)
    dp, wp = ops.row(dp), ops.row(wp)

    def steps(s):
        m = n - s + 1
        inner = cat(sub_(dp[s - 1:n], dp[:m]), sub_(dp[m:n], dp[:s - 1]))
        outer = sub_(totals, inner)
        short = minimum(inner, outer)
        flip = minimum(outer, sub_(totals, outer))
        mb = cat(add_(w_out[s - 1:n], wp[:m]), sub_(wp[m:n], wp[:s - 1]))
        return cat(flip[:m], short[m:]), cat(short[:m], flip[m:]), \
            cat(mb[1:], mb[:1]), mb

    A = B = ops.row(diag)
    near_a, near_b, _, _ = steps(2)
    near_b = cat(near_b, near_b)
    switched = [None, None]
    for s in range(2, n + 1):
        far_a, far_b, ma, mb = steps(s)
        a0 = add_(cat(A[1:], A[:1]), mul_(near_a, ma))
        a1 = add_(cat(B[1:], B[:1]), mul_(far_a, ma))
        b0 = add_(B, mul_(near_b[s - 2:s - 2 + n], mb))
        b1 = add_(A, mul_(far_b, mb))
        switched.append((ops.less(a1, a0), ops.less(b1, b0)))
        A, B = minimum(a0, a1), minimum(b0, b1)
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
    path_rev.append(i)
    return best, path_rev[::-1]


def test_weighted_curve_matches_the_multiplier_engine(monkeypatch):
    # the step costs are the products the multiplier engine formed, in the
    # same order, so costs and paths are bit for bit the same
    rng = random.Random(57)
    spread = (1e-9, 1e-3, 1.0, 3.0, 1e8, 1e16, 1e17)
    for t in range(120):
        n = rng.choice((2, 3, 5, 9, 17, 40, 130))
        gaps = [rng.choice(spread) * rng.uniform(1.0, 2.0) for _ in range(n)]
        weights = [0.0 if rng.random() < 0.2 else rng.choice(spread) for _ in range(n)]
        start = rng.randrange(n) if t % 2 else None
        inst = CurveInstance(gaps, weights=weights, start=start)
        solved = _per_engine(monkeypatch, curve_weighted_ham_path, inst)
        for engine, got in zip((rows.LISTS, rows.arrays()), solved):
            assert got == _multiplier_curve_dp(inst, engine), (gaps, weights, start)


def test_path_length_recomputes():
    rng = random.Random(42)
    done = 0
    while done < 20:
        poly = random_star_shaped(rng, rng.randint(4, 8))
        if poly is None:
            continue
        length, path = shortest_ham_path_free_start(poly)
        if path:
            assert sorted(path) == list(range(poly.n))
            vis, v = visibility_reference(poly), poly.vertices
            assert all(vis[a][b] for a, b in zip(path, path[1:]))
            total = sum(math.hypot(v[a][0] - v[b][0], v[a][1] - v[b][1])
                        for a, b in zip(path, path[1:]))
            assert abs(total - length) < 1e-9
        done += 1


def test_convex_lower_bound():
    # on a convex polygon the path must at least cover the perimeter minus
    # its largest edge
    rng = random.Random(43)
    done = 0
    while done < 20:
        poly = random_convex(rng, rng.randint(4, 8))
        if poly is None:
            continue
        v = poly.vertices
        n = poly.n
        sides = [math.hypot(v[i][0] - v[(i + 1) % n][0],
                            v[i][1] - v[(i + 1) % n][1]) for i in range(n)]
        length, _ = shortest_ham_path_free_start(poly)
        assert length >= sum(sides) - max(sides) - 1e-9
        done += 1


def test_curve_validation():
    with pytest.raises(ValueError):
        CurveInstance((1.0,))
    with pytest.raises(ValueError):
        CurveInstance((1.0, -1.0))
    with pytest.raises(ValueError):
        CurveInstance((1.0, 1.0), weights=(1.0,))
    with pytest.raises(ValueError):
        CurveInstance((1.0, 1.0), weights=(1.0, -1.0))
    with pytest.raises(ValueError):
        CurveInstance((1.0, 1.0), start=2)
    with pytest.raises(ValueError, match="gaps must sum"):
        CurveInstance((1e308, 1e308, 1.0))
    with pytest.raises(ValueError, match="weights must sum"):
        CurveInstance((1.0, 1.0, 1.0), weights=(1e308, 1e308, 1.0))


def test_curve_closed_forms():
    assert curve_ham_path(CurveInstance((1, 2, 3, 4))) == 6.0
    assert curve_ham_path(CurveInstance((1, 2, 3, 4), start=0)) == 6.0
    assert curve_ham_path(CurveInstance((5, 5, 5, 5), start=1)) == 15.0


def test_curve_fixed_start_may_zigzag():
    # skipping the remote large gap and doubling a small one beats any
    # one-directional sweep from this start
    inst = CurveInstance((3, 2, 9, 5, 9), start=1)
    assert curve_ham_path(inst) == 21.0
    assert curve_zigzag_brute(inst, objective="length")[0] == 21.0


def test_curve_matches_zigzag_brute():
    rng = random.Random(44)
    for _ in range(60):
        n = rng.randint(2, 8)
        gaps = tuple(rng.randint(1, 9) for _ in range(n))
        start = rng.randrange(n) if rng.random() < 0.7 else None
        inst = CurveInstance(gaps, start=start)
        assert curve_ham_path(inst) == curve_zigzag_brute(inst, "length")[0]


def test_curve_free_start_keeps_the_small_gaps_beside_a_large_one():
    # total - max(gaps) cancels both unit gaps against 1e17
    inst = CurveInstance((1e17, 1, 1))
    assert curve_ham_path(inst) == 2.0 == curve_zigzag_brute(inst, "length")[0]


def test_curve_fixed_start_keeps_the_small_gaps_beside_a_large_one():
    # a difference of sums such as total - gaps[j] cancels the unit gaps
    # against 1e17
    inst = CurveInstance((1e17, 1, 1), start=1)
    assert curve_ham_path(inst) == 2.0 == curve_zigzag_brute(inst, "length")[0]


def test_curve_free_start_matches_brute_over_spread_gaps():
    # each curve also runs from every fixed start
    rng = random.Random(45)
    for _ in range(300):
        gaps = [rng.choice((1e-9, 1e-3, 1, 1e8, 1e16, 1e17))
                for _ in range(rng.randint(2, 7))]
        for start in [None, *range(len(gaps))]:
            inst = CurveInstance(gaps, start=start)
            got = curve_ham_path(inst)
            want = curve_zigzag_brute(inst, "length")[0]
            assert abs(got - want) <= CHECK_EPS * max(1.0, abs(got), abs(want)), \
                (gaps, start)


def test_weighted_curve_examples():
    cost, path = curve_weighted_ham_path(
        CurveInstance((1, 1, 1, 1), weights=(1, 1, 1, 1), start=0))
    assert cost == 6.0
    assert path in ([0, 1, 2, 3], [0, 3, 2, 1])  # symmetric, both sweeps tie
    cost, _ = curve_weighted_ham_path(CurveInstance((1, 2, 3), start=0))
    assert cost == 0.0  # default weights are all zero
    cost, _ = curve_weighted_ham_path(
        CurveInstance((1, 1, 10), weights=(1, 1, 1), start=0))
    assert cost == 3.0


def test_weighted_curve_matches_zigzag_brute():
    rng = random.Random(45)
    for _ in range(60):
        n = rng.randint(2, 8)
        gaps = tuple(rng.randint(1, 9) for _ in range(n))
        weights = tuple(rng.randint(0, 5) for _ in range(n))
        start = rng.randrange(n) if rng.random() < 0.7 else None
        inst = CurveInstance(gaps, weights=weights, start=start)
        got, path = curve_weighted_ham_path(inst)
        ref, _ = curve_zigzag_brute(inst)
        assert got == ref, (gaps, weights, start, got, ref)
        assert sorted(path) == list(range(n))
        if start is not None:
            assert path[0] == start


def _replay_weighted(inst, path):
    """Weighted cost of ``path``, checking that each step extends the visited
    arc; arcs are correctly rounded gap sums, independent of the solver."""
    n, gaps = inst.n, inst.gaps
    assert sorted(path) == list(range(n))
    if inst.start is not None:
        assert path[0] == inst.start
    left = right = path[0]
    t = cost = 0.0
    for a, b in zip(path, path[1:]):
        assert b in ((left - 1) % n, (right + 1) % n)
        if b == (left - 1) % n:
            left = b
        else:
            right = b
        fwd = math.fsum(gaps[k % n] for k in range(a, b if a < b else b + n))
        back = math.fsum(gaps[k % n] for k in range(b, a if b < a else a + n))
        t += min(fwd, back)
        cost += inst.weights[b] * t
    return cost


def test_weighted_curve_real_valued_matches_brute_and_replay():
    rng = random.Random(46)
    cases = [(n, s) for n in (2, 3) for s in [None] + list(range(n))]
    cases += [(n, rng.randrange(n) if rng.random() < 0.6 else None)
              for n in (rng.randint(4, 9) for _ in range(80))]
    for n, start in cases:
        for _ in range(3):
            gaps = tuple(rng.uniform(0.01, 10.0) for _ in range(n))
            weights = tuple(0.0 if rng.random() < 0.2 else rng.uniform(0.0, 5.0)
                            for _ in range(n))
            inst = CurveInstance(gaps, weights=weights, start=start)
            got, path = curve_weighted_ham_path(inst)
            ref, _ = curve_zigzag_brute(inst)
            assert abs(got - ref) <= REL_TOL * max(1.0, ref), (inst, got, ref)
            replayed = _replay_weighted(inst, path)
            assert abs(replayed - got) <= REL_TOL * max(1.0, got), (inst, path)
