"""The seeded random trees the test modules share."""

from transopt.tree import build_rooted_tree


def _length(rng, real):
    return rng.uniform(0.5, 9.0) if real else rng.randint(1, 9)


def random_tree(rng, n, max_children=None):
    """Vertex i > 1 hangs below a uniformly drawn earlier vertex, redrawn
    while that one already has ``max_children`` children, by an edge of
    integer length 1..9."""
    childcount = {}
    edges = []
    for i in range(2, n + 1):
        while True:
            par = rng.randint(1, i - 1)
            if max_children is None or childcount.get(par, 0) < max_children:
                break
        childcount[par] = childcount.get(par, 0) + 1
        edges.append((par, i, _length(rng, False)))
    return build_rooted_tree(n, edges)


def deep_tree(rng, n, real):
    """Each parent within 10 ids of its child: depth about n/5.5."""
    edges = [(rng.randint(max(1, i - 10), i - 1), i, _length(rng, real))
             for i in range(2, n + 1)]
    return build_rooted_tree(n, edges)


def bushy_tree(rng, n, real):
    edges = [(rng.randint(1, i - 1), i, _length(rng, real))
             for i in range(2, n + 1)]
    return build_rooted_tree(n, edges)


def star_tree(rng, n, real):
    edges = [(1, i, _length(rng, real)) for i in range(2, n + 1)]
    return build_rooted_tree(n, edges)
