"""Neighbour counting for the distance-indicator kernel.

Points are sorted on their first coordinate, and ``searchsorted`` finds, for
each point or query, the candidates whose first coordinate lies in a band of
half-width about r around it.  Each candidate then takes the exact test
``sum((x_i - x_j)**2) <= r*r``, so counts do not depend on the band, ties at
distance exactly r included.
"""

import math

import numpy as np

BACKEND = "numpy"

_BLOCK = 1 << 18  # candidate pairs per block; bounds the temporaries

# The exact test rounds x_i - x_j, its square and r*r, so it can accept a pair
# whose true |dx| is a few ulps above r (x_i < 0 < x_j, say, where the
# difference rounds down to r).  The band is widened so that it never excludes
# such a pair.  Once r*r falls into the subnormal range, rounding is absolute
# rather than relative, hence the floor.
_MARGIN = 1e-9
_FLOOR = 1e-153


def _band(pts, r):
    """(points sorted on the first coordinate, band half-width, r*r)."""
    r2 = float(r) * float(r)
    p = pts[np.argsort(pts[:, 0])]
    return p, math.sqrt(r2) * (1.0 + _MARGIN) + _FLOOR, r2


def _blocks(lo, hi):
    """Candidate pairs (row, lo[row] <= col < hi[row]) in blocks of rows.

    Yields (a, b, row, col) for rows a..b-1, with row counted from a.  A
    block holds about _BLOCK candidates, or one row if that row has more.
    """
    width = hi - lo
    ends = np.cumsum(width)
    shift = hi - ends  # candidate number + shift of its row = its column
    a = 0
    while a < len(lo):
        start = ends[a] - width[a]
        b = max(int(np.searchsorted(ends, start + _BLOCK, side="right")), a + 1)
        row = np.repeat(np.arange(b - a), width[a:b])
        yield a, b, row, np.arange(start, ends[b - 1]) + shift[a:b][row]
        a = b


def count_pairs_within(points, r):
    """Number of unordered point pairs at Euclidean distance <= r."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = len(pts)
    if n < 2:
        return 0
    p, half, r2 = _band(pts, r)
    x = p[:, 0]
    # the partners of sorted point i are the later points in its band
    hi = np.searchsorted(x, x + half, side="right")
    total = 0
    for a, b, row, col in _blocks(np.arange(1, n + 1), hi):
        d2 = ((p[a:b][row] - p[col]) ** 2).sum(axis=-1)
        total += int(np.count_nonzero(d2 <= r2))
    return total


def count_neighbors(points, queries, r):
    """For each query point, the number of points within distance r."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    qs = np.ascontiguousarray(queries, dtype=np.float64)
    out = np.zeros(len(qs), dtype=np.int64)
    if len(pts) == 0 or len(qs) == 0:
        return out
    p, half, r2 = _band(pts, r)
    x = p[:, 0]
    lo = np.searchsorted(x, qs[:, 0] - half, side="left")
    hi = np.searchsorted(x, qs[:, 0] + half, side="right")
    for a, b, row, col in _blocks(lo, hi):
        d2 = ((qs[a:b][row] - p[col]) ** 2).sum(axis=-1)
        out[a:b] = np.bincount(row[d2 <= r2], minlength=b - a)
    return out
