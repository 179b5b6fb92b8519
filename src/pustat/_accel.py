"""Neighbour counting for the distance-indicator kernel.

Groups and cells.  Every count is a count of groups: only points of the
same group label are neighbours, so many configurations are counted in one
call, and an unlabelled count is one of group 0.  In d >= 2 dimensions the
first coordinate is cut into S strips of a common width, and a point's cell
is ``label * (S + 1) + strip``; with one strip, as always in 1-D, the cell
is the label.  Points are sorted on the key ``x + cell * span`` of their
last coordinate x, where ``span`` exceeds the width of the last coordinates
plus twice the band, so no band reaches into another cell.  A neighbour
lies in a point's own strip or in one next to it, so a query searches the
band of half-width about r around its key in cells c - 1, c and c + 1, and
a pair count, which finds each pair from its lower cell, searches the later
points of cell c and the band in cell c + 1.  The spare cell after each
label's strips is empty, so no window reaches into another label, and no
label test is needed.  Every candidate of every window takes the exact test
``sum((x_i - x_j)**2) <= r*r`` on the original coordinates, one
``_tested`` call per window, so counts depend on neither the strips nor
the band, ties at distance exactly r included.

Widths.  The exact test rounds x_i - x_j, its square and r*r, so it can
accept a pair whose true gap on a coordinate is a few ulps above r.  The
outer band ``r (1 + 1e-9) + 1e-153`` covers that, the floor covering r*r in
the subnormal range; when r*r is not finite the exact test accepts every
pair and the band is infinite.  Strips are at least as wide as the band,
plus a relative 1e-6 for the rounding of the strip index, so points two
strips apart are never neighbours, and an infinite band leaves one strip.
The search half-width is the band capped at the width of the last
coordinates (plus a rounding allowance), which holds every candidate
anyway, so keys stay finite when r*r overflows.  Rounding moves a key by at
most half an ulp of the largest key, and the search is widened by a few
such ulps.

Strip count.  As many strips as fit, but at most one per point (queries
included).  One strip when fewer than three fit, or when the band alone
would give fewer candidates than one ``_BLOCK`` (an exact-test chunk),
counted as the block's query-point pairs over the label count, times the
band's share of the last coordinates: for L groups of equal size that is
the candidates of all L groups together, L times those of one group.
Below it the extra windows cost more than the candidates they save.

Sure-inside band (1-D).  In one dimension the exact test is
``(x_i - x_j)**2 <= r*r``, and rounding is monotone, so it passes for every
pair whose true |x_i - x_j| is at most r.  A candidate whose key gap is at
most ``r (1 - 1e-9) - 4 ulp`` of the largest key is such a pair, because the
ulps cover the rounding of the keys.  These candidates are counted as a
difference of ``searchsorted`` positions, without the test, and only the
thin shell between that inner band and the outer one takes the exact test.
The shell is about 1e-9 r plus a few ulps wide and almost never holds a
key, so each outer edge is found from the inner one by comparing the next
key beyond it, and only the queries whose shell holds a key search again.
The keys are sorted alone; only when some shell holds a key are the
coordinates put in key order, by one argsort and a gather, for the exact
test.  A pair count's group totals add up each label's run of the sorted
counts, since the cells of one label are contiguous in key order.  The
factor 1 - 1e-9 mirrors the outer band's margin.  The inner half-width is
capped at the outer one.  When it is not positive, or r*r is below the
normal range, every candidate takes the test.
"""
import math

import numpy as np

BACKEND = "numpy"

# candidate pairs per exact-test chunk.  A chunk makes about 7 temporaries of
# _BLOCK 8-byte values, which must stay below glibc's 128 KB mmap threshold: a
# larger array is mapped afresh, and its pages faulted in, on every chunk.
# 2^13 keeps them at 64 KB and in cache; 2^12 made the single-group counts
# slower.
_BLOCK = 1 << 13

# The exact test rounds x_i - x_j, its square and r*r, so it can accept a pair
# whose true |dx| is a few ulps above r (x_i < 0 < x_j, say, where the
# difference rounds down to r).  The band is widened so that it never excludes
# such a pair.  Once r*r falls into the subnormal range, rounding is absolute
# rather than relative, hence the floor.
_MARGIN = 1e-9
_FLOOR = 1e-153
_KEY_ULPS = 4  # ulps of the largest key that widen the band and narrow the inner band
# (x - origin) / width rounds twice, to within a relative 2.3e-16, so the edge
# of strip k moves by less than (k + 2) * 4.6e-16 widths.  Up to 10^9 strips,
# each keeps a true width above width / (1 + _STRIP_MARGIN), which is the band.
_STRIP_MARGIN = 1e-6
_TINY = float(np.finfo(np.float64).tiny)


def _layout(cols, qs, top_label, r):
    """(cells per label, strip origin, strip width, cell span, outer
    half-width, inner half-width, r*r) for the keys of points and queries
    with coordinate columns ``cols`` and ``qs`` (None when the points are
    the queries, a pair count) and labels up to ``top_label``.  One cell
    per label means one strip; an inner half-width <= 0 means no
    sure-inside band."""

    def joined(axis):
        return cols[axis] if qs is None else np.concatenate([cols[axis], qs[axis]])

    last = joined(-1)
    r = float(r)
    r2 = r * r
    # no accepted pair is further apart on any coordinate; inf once r*r overflows
    band = math.sqrt(r2) * (1.0 + _MARGIN) + _FLOOR
    lo, hi = float(last.min()), float(last.max())
    scale = max(abs(lo), abs(hi))
    slack = 16.0 * float(np.spacing(scale))
    # a band wider than the keys of a cell holds no more candidates
    half = min(band, hi - lo + slack)
    stride, origin, width = 1, 0.0, math.inf
    # the extra windows pay only once one band gives a block of candidates
    n = len(cols[0])
    candidates = n * (n - 1) // 2 if qs is None else n * len(qs[0])
    many = candidates / (top_label + 1) * min(1.0, 2.0 * half / (hi - lo + slack)) >= _BLOCK
    if many and len(cols) > 1:
        first = joined(0)
        origin = float(first.min())
        length = float(first.max()) - origin
        fit = min(length / (band * (1.0 + _STRIP_MARGIN)), len(first))
        if fit >= 3.0:
            stride = int(fit) + 1  # the strips and a spare cell
            width = max(band * (1.0 + _STRIP_MARGIN), length / (stride - 1))
    # more than width + 2 * band between cells, with room for key rounding
    span = 2.0 * (hi - lo + 2.0 * half + slack)
    ulp = _KEY_ULPS * float(np.spacing(scale + (top_label + 1) * stride * span + half))
    inner = min(r * (1.0 - _MARGIN) - ulp, half + ulp) if len(cols) == 1 and r2 >= _TINY else 0.0
    return stride, origin, width, span, half + ulp, inner, r2


def _cells(first, labels, layout):
    """Each point's cell: its label's run of ``stride`` cells, then its strip."""
    stride, origin, width = layout[:3]
    if stride == 1:
        return labels
    strip = np.minimum(np.floor((first - origin) / width), stride - 2).astype(np.int64)
    return labels * stride + strip


def _blocks(lo, hi, size):
    """Candidate pairs (row, lo[row] <= col < hi[row]) in blocks of rows.

    Yields (a, b, width, col) for rows a..b-1: each row's candidate count
    and the columns of its candidates, row after row.  A block holds about
    ``size`` candidates, or one row if that row has more.
    """
    width = hi - lo
    ends = np.cumsum(width)
    shift = hi - ends  # candidate number + shift of its row = its column
    a = 0
    while a < len(lo):
        start = ends[a] - width[a]
        if ends[-1] - start <= size:  # the rest fits in one block
            b = len(lo)
        else:
            b = max(int(np.searchsorted(ends, start + size, side="right")), a + 1)
        w = width[a:b]
        yield a, b, w, np.arange(start, ends[b - 1]) + np.repeat(shift[a:b], w)
        a = b


def _columns(pts):
    """The coordinates of (n, d) points as d contiguous arrays."""
    return list(np.ascontiguousarray(pts.T, dtype=np.float64))


def _tested(qs, p, lo, hi, r2):
    """For each query q, how many of the points lo[q]..hi[q]-1 pass the exact
    test.  Queries and points come as coordinate columns; the squares add up
    over the coordinates in order, as ``sum(axis=-1)`` adds them."""
    out = np.zeros(len(lo), dtype=np.int64)
    with np.errstate(over="ignore"):  # an overflowing square is inf; the test decides it
        for a, b, w, col in _blocks(lo, hi, _BLOCK):
            d2 = None
            for qc, pc in zip(qs, p):
                dx = np.repeat(qc[a:b], w)
                dx -= pc[col]
                dx *= dx
                d2 = dx if d2 is None else np.add(d2, dx, out=d2)
            out[a:b] = np.bincount(np.repeat(np.arange(b - a), w)[d2 <= r2], minlength=b - a)
    return out


def _tested_windows(qs, p, windows, r2):
    """For each query q, how many points of its windows lo[q]..hi[q]-1, one
    for each (lo, hi) in ``windows``, pass the exact test."""
    counts = np.zeros(len(qs[0]), dtype=np.int64)
    for lo, hi in windows:
        if (hi > lo).any():
            counts += _tested(qs, p, lo, hi, r2)
    return counts


def _window(key, qkey, half):
    """The sorted positions of the keys within ``half`` of each query key."""
    lo = np.searchsorted(key, qkey - half, side="left")
    return lo, np.searchsorted(key, qkey + half, side="right")


def _widened(key, inner, edge, side):
    """``searchsorted(key, edge, side)`` from ``inner``, the same search at
    edges no further out: only the queries whose shell between the two
    edges holds a key are searched again."""
    last = len(key) - 1
    if side == "right":
        held = (key[np.minimum(inner, last)] <= edge) & (inner <= last)
    else:
        held = (key[np.maximum(inner - 1, 0)] >= edge) & (inner > 0)
    if not held.any():
        return inner
    out = inner.copy()
    out[held] = np.searchsorted(key, edge[held], side=side)
    return out


def _later_neighbours(pts, labels, r):
    """For each point, in the order of the cell keys, the number of its
    group's points within distance r that come later in its own cell or lie
    in the next cell."""
    cols = _columns(pts)
    layout = _layout(cols, None, int(labels.max()), r)
    span, half, inner, r2 = layout[3:]
    cell = _cells(cols[0], labels, layout)
    key = cols[-1] + cell * span
    after = np.arange(1, len(pts) + 1)
    if inner > 0.0:
        ranked = np.sort(key)
        sure = np.searchsorted(ranked, ranked + inner, side="right")
        hi = _widened(ranked, sure, ranked + half, "right")
        counts = sure - after
        if (hi > sure).any():
            p = [cols[0][np.argsort(key)]]
            counts += _tested(p, p, sure, hi, r2)
        return counts
    order = np.argsort(key)
    p, key = [c[order] for c in cols], key[order]
    hi = np.searchsorted(key, key + half, side="right")
    windows = [(after, hi)]
    if layout[0] > 1:
        windows.append(_window(key, p[-1] + (cell[order] + 1) * span, half))
    return _tested_windows(p, p, windows, r2)


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
    counts = _later_neighbours(pts, labels, r)
    # the cells of one label are contiguous in key order, so the labels in
    # that order are runs of each label in turn
    sizes = np.bincount(labels, minlength=groups)
    runs = np.repeat(np.arange(len(sizes)), sizes)
    return np.bincount(runs, weights=counts, minlength=groups).astype(np.int64)


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
    layout = _layout(cols, qs, top, r)
    span, half, inner, r2 = layout[3:]
    key = cols[-1] + _cells(cols[0], point_labels, layout) * span
    qcell = _cells(qs[0], query_labels, layout)
    qkey = qs[-1] + qcell * span
    # queries in key order make the binary searches walk the keys in order
    qorder = np.argsort(qkey)
    qkey, qs = qkey[qorder], [c[qorder] for c in qs]
    if inner > 0.0:
        ranked = np.sort(key)
        lo_in, hi_in = _window(ranked, qkey, inner)
        lo = _widened(ranked, lo_in, qkey - half, "left")
        hi = _widened(ranked, hi_in, qkey + half, "right")
        counts = hi_in - lo_in
        if (lo < lo_in).any() or (hi > hi_in).any():
            p = [cols[0][np.argsort(key)]]
            counts += _tested_windows(qs, p, [(lo, lo_in), (hi_in, hi)], r2)
    else:
        order = np.argsort(key)
        p, key = [c[order] for c in cols], key[order]
        windows = [_window(key, qkey, half)]
        if layout[0] > 1:
            qcell = qcell[qorder]
            windows += [_window(key, qs[-1] + (qcell + s) * span, half) for s in (-1, 1)]
        counts = _tested_windows(qs, p, windows, r2)
    out = np.empty_like(counts)
    out[qorder] = counts
    return out
