"""Row engines for the DPs that work a whole row of costs at a time, and the
gates that pick one.

The interval DP of ``hampath`` is written once against ``Rows``, a table
of row operations; ``mul`` serves only the weighted curve, which multiplies
its arcs by weights before the DP adds them.  ``LISTS`` applies each to
Python lists element by element; ``arrays()`` applies the same IEEE
operation to float64 numpy arrays, so both engines give identical results.  ``ovrp-dp2`` keeps its own list and array merges, because its
gathered min-plus product is not a row operation, and asks ``dp2_arrays``.

Importing numpy costs about 0.17 s, more than a small DP takes on lists, so
each DP runs on lists below its gate and imports numpy only past it.  The
gates were measured end to end on ``transopt`` processes (CHANGES.md); they
are read at call time, so setting one flips an engine.
"""

from collections import namedtuple
from operator import add, lt, mul, sub

N_ARRAY = 450  # interval DP: vertices
DP2_ARRAY_WORK = 600_000  # ovrp-dp2: n (p + 1)^2

Rows = namedtuple("Rows", "row out add sub mul cat minimum less")

LISTS = Rows(
    row=list,
    out=list,
    add=lambda xs, ys: list(map(add, xs, ys)),
    sub=lambda xs, ys: list(map(sub, xs, ys)),
    mul=lambda xs, ys: list(map(mul, xs, ys)),
    cat=lambda xs, ys: xs + ys,
    # y only where strictly smaller; several times faster than map(min, ...)
    minimum=lambda xs, ys: [y if y < x else x for x, y in zip(xs, ys)],
    less=lambda xs, ys: bytes(map(lt, xs, ys)),
)


def arrays():
    """The row operations on float64 arrays."""
    import numpy as np

    return Rows(
        row=lambda xs: np.array(xs, dtype=np.float64),
        out=np.ndarray.tolist,
        add=np.add,
        sub=np.subtract,
        mul=np.multiply,
        cat=lambda xs, ys: np.concatenate((xs, ys)),
        minimum=lambda xs, ys: np.where(ys < xs, ys, xs),
        less=lambda xs, ys: np.less(xs, ys).tobytes(),  # one byte per cell
    )


def interval(n):
    """The engine for an interval DP over n vertices."""
    return arrays() if n >= N_ARRAY else LISTS


def dp2_arrays(n, p):
    """True when ``ovrp-dp2`` on n vertices with p vehicles merges on numpy."""
    return n * (p + 1) ** 2 >= DP2_ARRAY_WORK
