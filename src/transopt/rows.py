"""Row engines for the interval DP, and the gate that picks one.

The interval DP of ``hampath`` is written once against ``Rows``, a table
of row operations; ``mul`` serves only the weighted curve, which multiplies
its arcs by weights before the DP adds them.  ``LISTS`` applies each to
Python lists element by element; ``arrays()`` applies the same IEEE
operation to float64 numpy arrays, so both engines give identical results.

Importing numpy costs about 0.17 s, more than a small DP takes on lists, so
the DP runs on lists below ``N_ARRAY`` vertices and imports numpy only from
there up.  The gate was measured end to end on ``transopt`` processes
(CHANGES.md); it is read at call time, so setting it flips the engine.
"""

from collections import namedtuple
from operator import add, lt, mul, sub

N_ARRAY = 450  # interval DP: vertices

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
