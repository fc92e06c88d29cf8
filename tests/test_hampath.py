import math
import random

import pytest

from transopt import rows, visibility
from transopt.cli import default_eps
from transopt.errors import InvalidPolygonError
from transopt.geometry import (
    DEFER_TOL,
    on_segment,
    orientation,
    point_in_polygon,
    segments_properly_intersect,
    signed_area,
)
from transopt.hampath import (
    CurveInstance,
    SimplePolygon,
    curve_ham_path,
    curve_weighted_ham_path,
    euclidean_dist,
    shortest_ham_path_fixed_start,
    shortest_ham_path_free_start,
    visibility_matrix,
)
from transopt.oracles import (
    _REL_TOL,
    curve_zigzag_brute,
    ham_brute,
    visibility_reference,
)

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


def test_dist_override_can_disconnect():
    def dist(p, q):
        return INF if {p, q} == {0, 1} or {p, q} == {1, 2} else 1.0

    length, path = shortest_ham_path_fixed_start(SQUARE, 1, dist=dist)
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


def test_visibility_matches_reference_near_degenerate(monkeypatch):
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
    # here the walks, not the triangulation, meet the near-zero cross
    # products, and defer some rows only
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
    partial = 0
    pair_rows = visibility._pair_rows

    def counted(v, vis, rows):
        nonlocal partial
        partial += len(rows) < len(v)
        return pair_rows(v, vis, rows)

    monkeypatch.setattr(visibility, "_pair_rows", counted)
    for poly in polys:
        assert visibility_matrix(poly) == visibility_reference(poly), poly.vertices
    assert partial > 0


def test_fast_pass_decides_general_position_rows(monkeypatch):
    calls = []
    pair_rows = visibility._pair_rows

    def counted(v, vis, rows):
        calls.append(len(rows))
        return pair_rows(v, vis, rows)

    def refuse(v, vis, rows):
        raise AssertionError("a row went to the pair test")

    rng = random.Random(55)
    monkeypatch.setattr(visibility, "_pair_rows", refuse)
    for _ in range(40):
        poly = jittered_star(rng, rng.randint(4, 60), rng.uniform(0.05, 0.85))
        shortest_ham_path_free_start(poly)
    monkeypatch.setattr(visibility, "_pair_rows", counted)
    for _ in range(20):
        poly = rectilinear_histogram(rng)
        calls.clear()
        assert visibility_matrix(poly) == visibility_reference(poly)
        assert calls  # collinear runs defer
    # the L-shaped room: a chord through the reflex corner defers every row
    room = SimplePolygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
    calls.clear()
    assert visibility_matrix(room) == visibility_reference(room)
    assert calls == [6]


def test_triangulation_covers_the_polygon():
    rng = random.Random(56)
    for _ in range(100):
        poly = jittered_star(rng, rng.randint(3, 80), rng.uniform(0.05, 0.85))
        v, n = poly.vertices, poly.n
        tris = visibility._triangulate(v, DEFER_TOL)
        assert len(tris) == n - 2
        areas = [signed_area([v[a], v[b], v[c]]) for a, b, c in tris]
        assert min(areas) > 0
        assert math.isclose(math.fsum(areas), signed_area(v), rel_tol=1e-12)
        # every polygon edge borders exactly one triangle
        edges = {(a, b) for t in tris for a, b in zip(t, t[1:] + t[:1])}
        assert len(edges) == 3 * (n - 2)
        assert all((k, (k + 1) % n) in edges for k in range(n))


def test_slab_containment_matches_point_in_polygon():
    # points within the collinearity tolerance of vertices and edges, where
    # the slab lookup must still find every boundary candidate
    rng = random.Random(47)
    offsets = (-1.5e-9, -0.8e-9, -0.5e-9, 0.0, 0.5e-9, 0.8e-9, 1.5e-9)
    # two vertex ordinates closer than the tolerance: the point 8e-10 above
    # the top edge lies in a slab that edge's own y-range does not reach
    polys = [SimplePolygon(((0, -1), (3, -1), (3, 6e-10), (1, 0), (0, 0)))]
    polys += [rectilinear_histogram(rng) if t % 2 else
              jittered_star(rng, rng.randint(4, 12), 0.3) for t in range(40)]
    for poly in polys:
        v, n = poly.vertices, poly.n
        inside = visibility._inside_test(v)
        probes = list(v) + [((v[e][0] + v[(e + 1) % n][0]) / 2,
                             (v[e][1] + v[(e + 1) % n][1]) / 2) for e in range(n)]
        for x, y in probes:
            for ox in offsets:
                for oy in offsets:
                    p = (x + ox, y + oy)
                    assert inside(*p) == point_in_polygon(v, p), (v, p)


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
        if t % 2:  # cut off about half of the visible pairs
            vis = [[ok and (p == q or rng.random() < 0.5)
                    for q, ok in enumerate(row)] for p, row in enumerate(vis)]
        dist = euclidean_dist(poly, vis)
        start = rng.randrange(n)
        for solve, args in ((shortest_ham_path_free_start, (poly, dist)),
                            (shortest_ham_path_fixed_start, (poly, start, dist))):
            lists, arrays = _per_engine(monkeypatch, solve, *args)
            assert lists == arrays, (poly.vertices, args[1:])
            reachable += lists[0] < INF
    assert 0 < reachable < 2 * len(polys)  # both outcomes are compared


def test_path_length_recomputes():
    rng = random.Random(42)
    done = 0
    while done < 20:
        poly = random_star_shaped(rng, rng.randint(4, 8))
        if poly is None:
            continue
        dist = euclidean_dist(poly)
        length, path = shortest_ham_path_free_start(poly)
        if path:
            assert sorted(path) == list(range(poly.n))
            total = sum(dist(a, b) for a, b in zip(path, path[1:]))
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


def test_curve_free_start_matches_brute_over_spread_gaps():
    eps = default_eps()
    rng = random.Random(45)
    for _ in range(300):
        gaps = [rng.choice((1e-9, 1e-3, 1, 1e8, 1e16, 1e17))
                for _ in range(rng.randint(2, 7))]
        inst = CurveInstance(gaps)
        got, want = curve_ham_path(inst), curve_zigzag_brute(inst, "length")[0]
        assert abs(got - want) <= eps * max(1.0, abs(got), abs(want)), gaps


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
            assert abs(got - ref) <= _REL_TOL * max(1.0, ref), (inst, got, ref)
            replayed = _replay_weighted(inst, path)
            assert abs(replayed - got) <= _REL_TOL * max(1.0, got), (inst, path)
