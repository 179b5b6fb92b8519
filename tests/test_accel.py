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
