import math
import sys

import numpy as np
import pytest

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


def test_small_blocks_match_oracle(rng, monkeypatch):
    monkeypatch.setattr(_accel, "_BLOCK", 5)
    for d in (1, 2, 3):
        pts = np.vstack([rng.random((120, d)), np.full((30, d), 0.5)])
        qs = rng.random((60, d))
        _check(pts, qs, 0.2)


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
    assert _accel._layout(first, 3, r, 1)[2] <= 0.0


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
    for d in (1, 2, 3):
        groups = _random_groups(rng, d, [120, 0, 1, 40]) + [np.full((30, d), 0.5)]
        queries = _random_groups(rng, d, [60, 3, 0, 10, 7])
        _check_groups(groups, queries, 0.2)


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
        span = _accel._layout(np.concatenate(groups)[:, 0], 3, r, d)[0]
        assert math.isfinite(span)
