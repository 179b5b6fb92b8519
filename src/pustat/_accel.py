"""Neighbour counting for the distance-indicator kernel.

Points are sorted on a band key, their first coordinate, and
``searchsorted`` finds, for each point or query, the candidates whose key
lies in a band of half-width about r around its own.  Each candidate then
takes the exact test ``sum((x_i - x_j)**2) <= r*r`` on the original
coordinates, so counts do not depend on the band, ties at distance exactly r
included.  The half-width is capped at the width of the first coordinates
(plus a rounding allowance), which holds every candidate anyway, so the
band stays finite when r*r overflows.

Groups.  Every count is a count of groups: only points of the same group
label are neighbours, so many configurations are counted in one call, and
an unlabelled count is one of group 0.  The label moves the key alone, to
``x0 + label * span``, where ``span`` exceeds the width of the first
coordinates plus twice the band.  So no band reaches into another group,
and no label test is needed.  The exact test still reads the original
coordinates, so a group counts exactly as it would on its own.  Rounding
moves a key by at most half an ulp of the largest key, and the band is
widened by a few such ulps.

Sure-inside band (1-D).  In one dimension the exact test is
``(x_i - x_j)**2 <= r*r``, and rounding is monotone, so it passes for every
pair whose true |x_i - x_j| is at most r.  A candidate whose key gap is at
most ``r (1 - 1e-9) - 4 ulp`` of the largest key is such a pair, because the
ulps cover the rounding of the keys.  These candidates are counted as a
difference of ``searchsorted`` positions, without the test, and only the
thin shell between that inner band and the outer one takes the exact test.
The factor 1 - 1e-9 mirrors the outer band's margin.  The inner half-width
is capped at the outer one.  When it is not positive, or r*r is below the
normal range, every candidate takes the test.
"""

import math

import numpy as np

BACKEND = "numpy"

_BLOCK = 1 << 15  # candidate pairs per block; keeps the temporaries in cache

# The exact test rounds x_i - x_j, its square and r*r, so it can accept a pair
# whose true |dx| is a few ulps above r (x_i < 0 < x_j, say, where the
# difference rounds down to r).  The band is widened so that it never excludes
# such a pair.  Once r*r falls into the subnormal range, rounding is absolute
# rather than relative, hence the floor.
_MARGIN = 1e-9
_FLOOR = 1e-153
_KEY_ULPS = 4  # ulps of the largest key that widen the band and narrow the inner band
_TINY = float(np.finfo(np.float64).tiny)


def _layout(first, top_label, r, dim):
    """(group span, outer half-width, inner half-width, r*r) for the keys of
    first coordinates ``first`` (of every point and query) with labels up to
    ``top_label``.  An inner half-width <= 0 means no sure-inside band."""
    r = float(r)
    r2 = r * r
    lo, hi = float(first.min()), float(first.max())
    scale = max(abs(lo), abs(hi))
    slack = 16.0 * float(np.spacing(scale))
    # a band wider than the keys of a group holds no more candidates
    half = min(math.sqrt(r2) * (1.0 + _MARGIN) + _FLOOR, hi - lo + slack)
    # more than width + 2 * band between groups, with room for key rounding
    span = 2.0 * (hi - lo + 2.0 * half + slack)
    ulp = _KEY_ULPS * float(np.spacing(scale + (top_label + 1) * span + half))
    inner = min(r * (1.0 - _MARGIN) - ulp, half + ulp) if dim == 1 and r2 >= _TINY else 0.0
    return span, half + ulp, inner, r2


def _blocks(lo, hi, size=_BLOCK):
    """Candidate pairs (row, lo[row] <= col < hi[row]) in blocks of rows.

    Yields (a, b, row, col) for rows a..b-1, with row counted from a.  A
    block holds about ``size`` candidates, or one row if that row has more.
    """
    width = hi - lo
    ends = np.cumsum(width)
    shift = hi - ends  # candidate number + shift of its row = its column
    a = 0
    while a < len(lo):
        start = ends[a] - width[a]
        b = max(int(np.searchsorted(ends, start + size, side="right")), a + 1)
        row = np.repeat(np.arange(b - a), width[a:b])
        yield a, b, row, np.arange(start, ends[b - 1]) + shift[a:b][row]
        a = b


def _columns(pts):
    """The coordinates of (n, d) points as d contiguous arrays."""
    return list(np.ascontiguousarray(pts.T, dtype=np.float64))


def _tested(qs, p, lo, hi, r2):
    """For each query q, how many of the points lo[q]..hi[q]-1 pass the exact
    test.  Queries and points come as coordinate columns; the squares add up
    over the coordinates in order, as ``sum(axis=-1)`` adds them."""
    out = np.zeros(len(lo), dtype=np.int64)
    if not np.any(hi > lo):
        return out
    for a, b, row, col in _blocks(lo, hi):
        d2 = 0.0
        for qc, pc in zip(qs, p):
            dx = qc[a:b][row] - pc[col]
            d2 = d2 + dx * dx
        out[a:b] = np.bincount(row[d2 <= r2], minlength=b - a)
    return out


def _later_neighbours(pts, labels, r):
    """(counts, order): pts[order] sorted on the band key, and for each of
    them the number of later sorted points of its group within distance r."""
    cols = _columns(pts)
    span, half, inner, r2 = _layout(cols[0], int(labels.max()), r, len(cols))
    key = cols[0] + labels * span
    order = np.argsort(key)
    p, key = [c[order] for c in cols], key[order]
    after = np.arange(1, len(key) + 1)
    hi = np.searchsorted(key, key + half, side="right")
    if inner > 0.0:
        sure = np.searchsorted(key, key + inner, side="right")
        return sure - after + _tested(p, p, sure, hi, r2), order
    return _tested(p, p, after, hi, r2), order


def count_pairs_within(points, r):
    """Number of unordered point pairs at Euclidean distance <= r."""
    return int(count_group_pairs(points, np.zeros(len(points), dtype=np.int64), r, 1)[0])


def count_group_pairs(points, labels, r, groups):
    """For each group label 0..groups-1, the number of unordered pairs of its
    points at Euclidean distance <= r; ``labels`` gives each point's group."""
    pts = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(pts) < 2:
        return np.zeros(groups, dtype=np.int64)
    counts, order = _later_neighbours(pts, labels, r)
    return np.bincount(labels[order], weights=counts, minlength=groups).astype(np.int64)


def count_neighbors(points, queries, r, point_labels=None, query_labels=None):
    """For each query point, the number of points within distance r.

    With labels (both or neither), a query counts only the points that
    carry its own label; without them every point and query is in group 0.
    """
    if (point_labels is None) != (query_labels is None):
        raise ValueError("give both point and query labels, or neither")
    pts = np.asarray(points, dtype=np.float64)
    qs = np.asarray(queries, dtype=np.float64)
    if len(pts) == 0 or len(qs) == 0:
        return np.zeros(len(qs), dtype=np.int64)
    if point_labels is None:
        point_labels, query_labels = np.zeros(len(pts), np.int64), np.zeros(len(qs), np.int64)
    point_labels = np.asarray(point_labels, dtype=np.int64)
    query_labels = np.asarray(query_labels, dtype=np.int64)
    top = int(max(point_labels.max(), query_labels.max()))
    cols, qs = _columns(pts), _columns(qs)
    span, half, inner, r2 = _layout(np.concatenate([cols[0], qs[0]]), top, r, len(cols))
    key = cols[0] + point_labels * span
    order = np.argsort(key)
    p, key = [c[order] for c in cols], key[order]
    qkey = qs[0] + query_labels * span
    # queries in key order make the binary searches walk the keys in order
    qorder = np.argsort(qkey)
    qkey, qs = qkey[qorder], [c[qorder] for c in qs]
    lo = np.searchsorted(key, qkey - half, side="left")
    hi = np.searchsorted(key, qkey + half, side="right")
    if inner > 0.0:
        lo_in = np.searchsorted(key, qkey - inner, side="left")
        hi_in = np.searchsorted(key, qkey + inner, side="right")
        counts = hi_in - lo_in + _tested(qs, p, lo, lo_in, r2) + _tested(qs, p, hi_in, hi, r2)
    else:
        counts = _tested(qs, p, lo, hi, r2)
    out = np.empty_like(counts)
    out[qorder] = counts
    return out
