import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pustat import _accel

from oracles import brute_force_neighbors, brute_force_pairs


def _check(pts, qs, r):
    assert _accel.count_pairs_within(pts, r) == brute_force_pairs(pts, r)
    assert np.array_equal(_accel.count_neighbors(pts, qs, r), brute_force_neighbors(pts, qs, r))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_counts_match_oracle(rng, d):
    for n in (0, 1, 2, 7, 50, 400):
        pts = rng.random((n, d))
        qs = rng.random((int(rng.integers(0, 40)), d))
        for r in rng.uniform(0.01, 0.6, size=3):
            _check(pts, qs, float(r))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ties_at_r_and_one_ulp_above(rng, d):
    for r in (0.25, *rng.uniform(0.01, 0.6, size=5)):
        # a single pair exactly r and one ulp above r apart
        for gap, expected in ((r, 1), (np.nextafter(r, np.inf), 0)):
            pair = np.zeros((2, d))
            pair[1, 0] = gap
            assert _accel.count_pairs_within(pair, r) == expected
            assert _accel.count_neighbors(pair[:1], pair[1:], r).tolist() == [expected]
            # away from the origin, rounding of x + gap decides; the oracle knows
            _check(pair + rng.random(d), pair, r)
    # across zero, x_j - x_i rounds down to r for some x_j a few ulps above
    # x_i + r, so the exact test accepts pairs that are more than r apart
    for r in rng.uniform(0.01, 0.6, size=20):
        left = -rng.uniform(0.0, 1.0, size=(4, 1))
        right = left + r
        steps = [right]
        for _ in range(4):
            steps.append(np.nextafter(steps[-1], np.inf))
        x = np.vstack([left, *steps])
        pts = np.hstack([x, np.zeros((len(x), d - 1))])
        _check(pts, pts, r)
    # r*r underflows to 0, which still accepts pairs whose squared gap underflows
    pair = np.zeros((2, d))
    pair[1, 0] = 1.2e-162
    _check(pair, pair, 1e-162)
    assert _accel.count_pairs_within(pair, 1e-162) == 1
    # lattices of spacing r and one ulp above r, in every direction
    r = 0.25
    for spacing in (r, np.nextafter(r, np.inf)):
        axis = np.arange(5) * spacing
        pts = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
        _check(pts, pts[::3] + 0.125, r)
        _check(pts, pts, r)
    assert brute_force_pairs(pts, r) < 4 * d * 5 ** (d - 1)  # fewer ties at the wider spacing


def test_coincident_points(rng):
    for d in (1, 2, 3):
        pts = np.repeat(rng.random((4, d)), 25, axis=0)  # 4 clusters of 25
        _check(pts, pts[::10], 1e-12)
        _check(pts, rng.random((9, d)), 0.3)


def _chunk_walks(monkeypatch):
    """The number of chunks of each walk of ``_accel._blocks``, as a list
    that fills while the patch holds: a patched ``_BLOCK`` must reach the
    exact test, which reads it at each call."""
    walks = []
    blocks = _accel._blocks

    def counting(lo, hi, size):
        walks.append(0)
        for chunk in blocks(lo, hi, size):
            walks[-1] += 1
            yield chunk

    monkeypatch.setattr(_accel, "_blocks", counting)
    return walks


def test_small_blocks_match_oracle(rng, monkeypatch):
    monkeypatch.setattr(_accel, "_BLOCK", 5)
    walks = _chunk_walks(monkeypatch)
    for d in (1, 2, 3):
        pts = np.vstack([rng.random((120, d)), np.full((30, d), 0.5)])
        qs = rng.random((60, d))
        _check(pts, qs, 0.2)
    assert max(walks) > 1


def test_pair_count_known_values():
    pts = np.array([[0.0], [0.05], [0.5]])
    assert _accel.count_pairs_within(pts, 0.1) == 1
    assert _accel.count_pairs_within(pts, 0.5) == 3
    assert _accel.count_pairs_within(np.zeros((4, 2)), 0.01) == 6  # coincident points


def test_neighbor_count_known_values():
    pts = np.array([[0.0], [0.2], [0.9]])
    out = _accel.count_neighbors(pts, np.array([[0.1], [0.85]]), 0.15)
    assert out.tolist() == [2, 1]


# ---------------------------------------------------------------------------
# grouped counts: each group counted on its own by the oracle
# ---------------------------------------------------------------------------


def _check_groups(groups, query_groups, r):
    """Grouped pair and neighbour counts against the oracle run per group."""
    pts = np.concatenate(groups)
    labels = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    qs = np.concatenate(query_groups)
    qlabels = np.repeat(np.arange(len(query_groups)), [len(q) for q in query_groups])
    pairs = _accel.count_group_pairs(pts, labels, r, len(groups))
    assert pairs.tolist() == [brute_force_pairs(g, r) for g in groups]
    expected = [brute_force_neighbors(g, q, r) for g, q in zip(groups, query_groups)]
    counts = _accel.count_neighbors(pts, qs, r, labels, qlabels)
    assert np.array_equal(counts, np.concatenate(expected).astype(np.int64))


def _random_groups(rng, d, sizes, scale=1.0, offset=0.0):
    return [offset + scale * rng.random((n, d)) for n in sizes]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_group_counts_match_oracle(rng, d):
    for _ in range(5):
        sizes = rng.integers(0, 60, size=int(rng.integers(1, 12)))
        groups = _random_groups(rng, d, sizes)
        queries = _random_groups(rng, d, rng.integers(0, 20, size=len(sizes)))
        for r in rng.uniform(0.01, 0.6, size=3):
            _check_groups(groups, queries, float(r))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_group_counts_empty_and_single_point_groups(rng, d):
    empty = np.empty((0, d))
    groups = [empty, rng.random((1, d)), rng.random((30, d)), empty, rng.random((1, d))]
    queries = [rng.random((3, d)), empty, rng.random((5, d)), rng.random((2, d)), empty]
    _check_groups(groups, queries, 0.3)
    assert _accel.count_group_pairs(np.empty((0, d)), [], 0.3, 3).tolist() == [0, 0, 0]
    assert _accel.count_group_pairs(rng.random((1, d)), [1], 0.3, 3).tolist() == [0, 0, 0]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_group_counts_ties_at_r(rng, d):
    for r in (0.25, *rng.uniform(0.01, 0.6, size=5)):
        groups, queries = [], []
        for gap in (r, np.nextafter(r, np.inf)):
            pair = np.zeros((2, d))
            pair[1, 0] = gap
            # the same pair at the origin, away from it, and straddling zero
            for shift in (0.0, rng.random(), -gap / 2):
                groups.append(pair + shift)
                queries.append(pair[::-1] + shift)
        _check_groups(groups, queries, r)
        # exactly r at the origin counts, one ulp above does not
        assert _accel.count_group_pairs(np.concatenate(groups[:1] + groups[3:4]),
                                        [0, 0, 1, 1], r, 2).tolist() == [1, 0]
    # across zero, x_j - x_i rounds down to r for some x_j a few ulps above
    # x_i + r, so the exact test accepts pairs that are more than r apart
    for r in rng.uniform(0.01, 0.6, size=10):
        left = -rng.uniform(0.0, 1.0, size=(4, 1))
        steps = [left + r]
        for _ in range(4):
            steps.append(np.nextafter(steps[-1], np.inf))
        x = np.vstack([left, *steps])
        pts = np.hstack([x, np.zeros((len(x), d - 1))])
        _check_groups([pts, pts[::2], pts[1::3]], [pts, pts[::3], pts], r)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_group_counts_ties_at_r_in_high_groups(rng, d):
    # with hundreds of groups the keys reach the hundreds, where one ulp of a
    # key is far wider than r's own margin; the band must still hold pairs
    # exactly r apart
    r = 1e-6
    groups = []
    for _ in range(300):
        left = rng.random((3, 1))
        x = np.vstack([left, left + r, np.nextafter(left + r, np.inf), left - r])
        groups.append(np.hstack([x, np.zeros((len(x), d - 1))]))
    _check_groups(groups, [g[::-1] for g in groups], r)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_group_counts_far_from_origin_with_tiny_r(rng, d):
    r = 1e-9
    for centre in (1e6, -1e6, 4e6):
        groups, queries = [], []
        for _ in range(4):
            x = centre + rng.integers(0, 6, size=(12, 1)) * r * rng.choice([1.0, 0.5, 1.5])
            groups.append(np.hstack([x, np.zeros((12, d - 1))]))
            queries.append(groups[-1][::2] + np.spacing(centre) * rng.integers(-2, 3, size=(6, 1)))
        _check_groups(groups, queries, r)
    # at 4e6 the key ulps exceed r, so the sure-inside band is empty
    first = np.array([4e6, 4e6 + 1e-8])
    assert _accel._layout([first], None, 3, r)[5] <= 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_group_counts_when_r_squared_underflows(d):
    r = 1e-162  # r*r underflows to 0
    pair = np.zeros((2, d))
    pair[1, 0] = 1.2e-162
    far = pair + 1.0
    _check_groups([pair, far, pair[:1]], [pair, pair, far], r)
    assert _accel.count_group_pairs(np.vstack([pair, far]), [0, 0, 1, 1], r, 2).tolist() == [1, 1]


def test_group_counts_small_blocks(rng, monkeypatch):
    monkeypatch.setattr(_accel, "_BLOCK", 5)
    walks = _chunk_walks(monkeypatch)
    for d in (1, 2, 3):
        groups = _random_groups(rng, d, [120, 0, 1, 40]) + [np.full((30, d), 0.5)]
        queries = _random_groups(rng, d, [60, 3, 0, 10, 7])
        _check_groups(groups, queries, 0.2)
    assert max(walks) > 1


def test_neighbour_labels_come_in_pairs():
    with pytest.raises(ValueError):
        _accel.count_neighbors(np.zeros((2, 1)), np.zeros((1, 1)), 0.1, [0, 0], None)


@pytest.mark.parametrize("r", [1e10, 1e160, 1e300, sys.float_info.max, math.inf])
def test_huge_radius_counts_every_pair(rng, r):
    # r*r overflows from about 1.3e154; the band stays finite and every
    # group keeps to itself
    x = np.linspace(0.0, 1.0, 10)[:, None]
    assert _accel.count_group_pairs(x, np.repeat([0, 1], 5), r, 2).tolist() == [10, 10]
    assert _accel.count_neighbors(x, x[:3], r).tolist() == [10, 10, 10]
    assert _accel.count_pairs_within(x, r) == 45
    for d in (1, 2, 3):
        groups = _random_groups(rng, d, [7, 0, 12, 1], scale=1e3, offset=-5e2)
        _check_groups(groups, _random_groups(rng, d, [3, 2, 0, 4]), r)
        _check(groups[0], groups[2], r)
        pts = np.concatenate(groups)
        span = _accel._layout(list(pts.T), None, 3, r)[3]
        assert math.isfinite(span)


@pytest.mark.parametrize("r", [1e150, 1e200])
def test_overflowing_squares_count_without_warnings(rng, r):
    # gaps up to 5e200 square to inf, outside any errstate: once r*r is
    # finite such a pair fails the exact test, once it overflows it passes
    square = rng.random((30, 2)) * 5e200
    row = square * [1.0, 0.0]  # one last coordinate: every pair a candidate
    qs = rng.random((12, 2)) * 5e200
    for pts in (square, row):
        pairs = _accel.count_pairs_within(pts, r)
        counts = _accel.count_neighbors(pts, qs, r)
        with np.errstate(over="ignore"):
            assert pairs == brute_force_pairs(pts, r)
            assert counts.tolist() == brute_force_neighbors(pts, qs, r).tolist()


# ---------------------------------------------------------------------------
# strips: d >= 2 cuts the first coordinate into strips, each point searching
# its own cell and the ones next to it
# ---------------------------------------------------------------------------


def _strips(pts, top_label, r):
    """The strip count a pair count of ``pts`` with labels up to top_label uses."""
    stride = _accel._layout(_accel._columns(pts), None, top_label, r)[0]
    return max(stride - 1, 1)


@pytest.fixture(params=[_accel._BLOCK, 5], ids=["block", "block5"])
def block(request, monkeypatch):
    monkeypatch.setattr(_accel, "_BLOCK", request.param)
    walks = _chunk_walks(monkeypatch)
    yield request.param
    if request.param == 5:
        assert max(walks) > 1, "no exact test ran in more than one chunk"


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [1e154, 1e200])
def test_strips_when_r_squared_overflows_or_nearly(rng, d, r, block):
    # coordinates spread over several multiples of r: once r*r overflows the
    # exact test accepts every pair, so one strip must hold them all
    groups = _random_groups(rng, d, [40, 0, 25], scale=8.0 * r, offset=-3.0 * r)
    queries = _random_groups(rng, d, [9, 4, 12], scale=8.0 * r, offset=-3.0 * r)
    with np.errstate(over="ignore"):
        _check_groups(groups, queries, r)
        pts = np.concatenate(groups)
        _check(pts, queries[2], r)
        if math.isinf(r * r):
            assert _accel.count_pairs_within(pts, r) == len(pts) * (len(pts) - 1) // 2
    if math.isinf(r * r):
        assert _strips(pts, 2, r) == 1
    elif block == 5:
        assert _strips(pts, 2, r) >= 3  # r*r is finite: strips of width ~r


def _ties_across_strip_edges(d, r, unit, lo, hi):
    """Points on a grid of ``unit`` along x0 in [lo, hi), each with partners
    exactly r and one ulp above r away, along x0 and on a (3, 4, 5) diagonal
    in the (x0, x_last) plane; r = 5 * unit keeps every gap exact."""
    x = np.arange(lo, hi, unit)
    base = np.zeros((len(x), d))
    base[:, 0] = x
    base[:, -1] = np.arange(len(x)) % 3 * unit
    along, diagonal = base.copy(), base.copy()
    along[:, 0] += r
    diagonal[:, 0] += 3 * unit
    diagonal[:, -1] += 4 * unit
    above = diagonal.copy()
    above[:, -1] = np.nextafter(above[:, -1], np.inf)
    beyond = along.copy()
    beyond[:, 0] = np.nextafter(beyond[:, 0], np.inf)
    return base, np.vstack([along, diagonal, above, beyond])


@pytest.mark.parametrize("d", [2, 3])
def test_ties_straddling_strip_edges(d, block):
    unit = 2.0**-6
    r = 5 * unit
    base, partners = _ties_across_strip_edges(d, r, unit, -1.0, 3.0)
    pts = np.vstack([base, partners])
    _check(pts, partners, r)
    _check(base, partners, r)
    # the grid is finer than the strips, so exact-r pairs straddle every edge
    assert _strips(pts, 0, r) >= 3
    n = len(pts)
    layout = _accel._layout(_accel._columns(pts), None, 0, r)
    strip = _accel._cells(pts[:, 0], np.zeros(n, dtype=np.int64), layout)
    tied = slice(len(base), 2 * len(base))  # the exact-r partners along x0
    assert np.any(strip[: len(base)] != strip[tied])


@pytest.mark.parametrize("d", [2, 3])
def test_labels_whose_strips_meet(rng, d, block, monkeypatch):
    # label L fills its last strip and label L + 1 its first, at the same last
    # coordinates; the spare cell between them keeps every window in its label
    r = 0.05
    groups, queries = [], []
    for label in range(4):
        ends = np.zeros((2, d))  # every label spans the same strips
        ends[:, 0] = 0.0, 1.0
        ends[:, -1] = 0.5 + 0.01 * label
        g = rng.random((60, d))
        g[:, 0] = 1.0 - 0.02 * g[:, 0] if label % 2 == 0 else 0.02 * g[:, 0]
        g[:, -1] = np.linspace(0.0, 0.3, 60)
        groups.append(np.vstack([ends, g, rng.random((400, d))]))
        queries.append(g[::4])
    pts = np.concatenate(groups)
    labels = np.repeat(np.arange(4), [len(g) for g in groups])
    assert _strips(pts, 3, r) >= 3
    # every candidate the exact test sees carries its query's label
    label_of = {tuple(p): lab for p, lab in zip(pts.tolist(), labels.tolist())}
    qlabel_of = dict(label_of)
    for lab, q in enumerate(queries):
        qlabel_of.update((tuple(p), lab) for p in q.tolist())
    tested = _accel._tested

    def same_label(qs, p, lo, hi, r2):
        q_rows, p_rows = np.column_stack(qs).tolist(), np.column_stack(p).tolist()
        for row, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            want = qlabel_of[tuple(q_rows[row])]
            assert all(label_of[tuple(p_rows[c])] == want for c in range(a, b))
        return tested(qs, p, lo, hi, r2)

    monkeypatch.setattr(_accel, "_tested", same_label)
    _check_groups(groups, queries, r)


@pytest.mark.parametrize("d", [2, 3])
def test_tiny_radius_far_from_origin_caps_the_strips(rng, d, block):
    # at 1e6, r = 1e-9 is a few ulps wide: a unit spread fits 10^9 strips, so
    # the count stops at one strip per point
    r = 1e-9
    left = 1e6 + rng.random(150)
    pts = np.zeros((600, d))
    pts[:150, 0] = left
    pts[150:300, 0] = left + r
    pts[300:450, 0] = np.nextafter(left + r, np.inf)
    pts[450:, 0] = left + 0.6 * r
    pts[450:, -1] = 0.8 * r
    _check(pts, pts[::7], r)
    half = len(pts) // 2
    _check_groups([pts[:half], pts[half:]], [pts[::5], pts[1::5]], r)
    assert _strips(pts, 0, r) == len(pts)


@pytest.mark.parametrize("d", [2, 3])
def test_strips_match_oracle(rng, d, block):
    for n, r in ((400, 0.05), (300, 0.2), (250, 0.01)):
        groups = _random_groups(rng, d, [n, n // 3, 1, 0], offset=-0.5)
        queries = _random_groups(rng, d, [50, 0, 9, 4], offset=-0.5)
        _check_groups(groups, queries, r)
        _check(groups[0], queries[0], r)


# ---------------------------------------------------------------------------
# 1-D sure-inside band: each outer edge is searched only where its shell
# between the inner and the outer band holds a key
# ---------------------------------------------------------------------------


def _shell_points(qs, r):
    """Points at gaps r, one ulp above r and r (1 +- 5e-10) on both sides of
    each query: all of them in the shell of the sure-inside band."""
    gaps = (r, float(np.nextafter(r, np.inf)), r * (1 + 5e-10), r * (1 - 5e-10))
    return np.vstack([qs + sign * gap for gap in gaps for sign in (-1.0, 1.0)])


def _held_shells(monkeypatch):
    """A list of the share of queries whose shell held a key, per edge."""
    held = []
    widened = _accel._widened

    def recording(key, inner, edge, side):
        out = widened(key, inner, edge, side)
        assert np.array_equal(out, np.searchsorted(key, edge, side=side))
        held.append(float(np.mean(out != inner)))
        return out

    monkeypatch.setattr(_accel, "_widened", recording)
    return held


@pytest.mark.parametrize("r", [0.25, 0.05, 1e-6])
def test_band_edges_at_r_in_every_shell(rng, monkeypatch, r):
    held = _held_shells(monkeypatch)
    query_groups = [rng.uniform(-1.0, 1.0, size=(n, 1)) for n in (6, 1, 9)]
    groups = [np.vstack([q, _shell_points(q, r)]) for q in query_groups]
    _check_groups(groups, query_groups, r)
    # every query's shell holds a key on both sides, so every query searched
    # again; in the pair count, the points at the queries searched again
    assert held[1:3] == [1.0, 1.0]
    assert 0.0 < held[0] < 1.0


@pytest.mark.parametrize("r", [0.25, 0.05])
def test_band_edges_at_r_in_some_shells(rng, monkeypatch, r):
    held = _held_shells(monkeypatch)
    groups, query_groups = [], []
    for n in (40, 0, 25):
        qs = rng.uniform(-1.0, 1.0, size=(n, 1))
        shelled = _shell_points(qs[: n // 3], r)
        groups.append(np.vstack([rng.uniform(-1.5, 1.5, size=(3 * n, 1)), shelled[::3]]))
        query_groups.append(qs)
    _check_groups(groups, query_groups, r)
    assert held and all(0.0 <= h < 1.0 for h in held)
    assert max(held) > 0.0


def _argsorts(monkeypatch):
    """A list of the lengths of the arrays that np.argsort sorts."""
    lengths = []
    argsort = np.argsort

    def recording(a, *args, **kwargs):
        lengths.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    return lengths


@pytest.mark.parametrize("r", [0.25, 0.05])
def test_points_are_argsorted_only_for_a_held_shell(rng, monkeypatch, r):
    # the keys are sorted alone; the coordinates are put in key order, by
    # one argsort, only for a call whose shells hold a key
    query_groups = [rng.uniform(-1.0, 1.0, size=(n, 1)) for n in (6, 1, 9)]
    plain = [rng.uniform(-1.5, 1.5, size=(n, 1)) for n in (40, 3, 25)]
    shelled = [np.vstack([q, _shell_points(q, r)]) for q in query_groups]
    qs = np.concatenate(query_groups)
    qlabels = np.repeat(np.arange(3), [len(q) for q in query_groups])
    lengths = _argsorts(monkeypatch)
    for groups, point_sorts in ((plain, []), (shelled, [sum(map(len, shelled))])):
        pts = np.concatenate(groups)
        labels = np.repeat(np.arange(3), [len(g) for g in groups])
        lengths.clear()
        pairs = _accel.count_group_pairs(pts, labels, r, 3)
        assert pairs.tolist() == [brute_force_pairs(g, r) for g in groups]
        assert lengths == point_sorts
        lengths.clear()
        counts = _accel.count_neighbors(pts, qs, r, labels, qlabels)
        expected = [brute_force_neighbors(g, q, r) for g, q in zip(groups, query_groups)]
        assert np.array_equal(counts, np.concatenate(expected))
        assert lengths == [len(qs)] + point_sorts  # the queries, then any points


# ---------------------------------------------------------------------------
# the mechanism as a count: most of the candidates a strip search tests pass
# ---------------------------------------------------------------------------


def _candidates(monkeypatch):
    """A list whose one entry sums hi - lo over every _tested call."""
    total = [0]
    tested = _accel._tested

    def counting(qs, p, lo, hi, r2):
        total[0] += int((hi - lo).sum())
        return tested(qs, p, lo, hi, r2)

    monkeypatch.setattr(_accel, "_tested", counting)
    return total


def test_strips_test_few_candidates(monkeypatch):
    # one slab of width 2r passes pi r / 2, about 8%, of its candidates; the
    # strips of cells c and c + 1 (or c - 1..c + 1) pass about half
    rng = np.random.default_rng(20130404)
    total = _candidates(monkeypatch)
    pts = rng.random((2000, 2))
    pairs = _accel.count_pairs_within(pts, 0.05)
    assert pairs == brute_force_pairs(pts, 0.05)
    assert pairs >= 0.4 * total[0]
    total[0] = 0
    pts, qs = rng.random((20000, 2)), rng.random((2000, 2))
    hits = int(_accel.count_neighbors(pts, qs, 0.05).sum())
    assert hits >= 0.4 * total[0]


# ---------------------------------------------------------------------------
# property: lattices, ties and far offsets across dimensions, radii and labels
# ---------------------------------------------------------------------------

_RADII = (1e-162, 1e-9, 0.05, 0.5, 1e200)


@st.composite
def _labelled_points(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    r = draw(st.sampled_from(_RADII))
    spacing = draw(st.sampled_from([r, r / 2, float(np.nextafter(r, np.inf))]))
    offset = draw(st.sampled_from([0.0, -5.0, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_lattice, n_uniform, n_queries = (draw(st.integers(0, 40)) for _ in range(3))
    lattice = offset + spacing * rng.integers(0, 5, size=(n_lattice, d))
    uniform = draw(st.sampled_from([0.0, -5.0, 1e6])) + rng.random((n_uniform, d))
    pts = rng.permutation(np.vstack([lattice, uniform]))
    qs = pts[rng.integers(0, len(pts), size=n_queries)] if len(pts) else pts
    groups = draw(st.integers(1, 6))
    labels = rng.integers(0, groups, size=len(pts))
    qlabels = rng.integers(0, groups, size=len(qs))
    block = draw(st.sampled_from([1, 5, _accel._BLOCK]))
    return pts, labels, qs, qlabels, groups, r, block


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_labelled_points())
def test_strip_counts_match_oracle_property(case):
    pts, labels, qs, qlabels, groups, r, block = case
    with mock.patch.object(_accel, "_BLOCK", block), np.errstate(over="ignore"):
        pairs = _accel.count_group_pairs(pts, labels, r, groups)
        counts = _accel.count_neighbors(pts, qs, r, labels, qlabels)
        assert pairs.tolist() == [brute_force_pairs(pts[labels == g], r) for g in range(groups)]
        for g in range(groups):
            expected = brute_force_neighbors(pts[labels == g], qs[qlabels == g], r)
            assert counts[qlabels == g].tolist() == expected.tolist()
