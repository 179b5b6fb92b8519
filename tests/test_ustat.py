import itertools
import math

import numpy as np
import pytest

from pustat.kernels import make_constant, make_count, make_geometric_indicator, make_product
from pustat.measure import IntensitySpec, PointConfiguration, sample_point_process, sample_points
from pustat import kernels, ustat
from pustat.ustat import (
    add_one_cost,
    add_one_costs,
    add_one_costs_many,
    evaluate,
    evaluate_many,
    inverse_ou_add_one_costs,
    inverse_ou_add_one_costs_many,
    replication_blocks,
)

from oracles import inverse_ou_pathwise, iterated_difference, iterated_differences, with_points

UNIT = [(0.0, 1.0)]


def _config(*pts):
    return PointConfiguration(np.asarray(pts, dtype=float))


def test_pairs_of_three_points():
    cfg = _config([0.1], [0.5], [0.9])
    out = evaluate(make_constant(1.0, 2), cfg)
    assert out.value == 6.0  # 3 * 2 ordered pairs
    assert out.tuple_count == 6


def test_empty_configuration():
    cfg = PointConfiguration(np.empty((0, 1)))
    for k in (make_count(), make_geometric_indicator(0.2), make_constant(2.0, 3)):
        out = evaluate(k, cfg)
        assert out.value == 0.0 and out.tuple_count == 0


def test_count_kernel_counts(rng):
    spec = IntensitySpec(UNIT, t=6.0)
    cfg = sample_point_process(spec, rng)
    out = evaluate(make_count(), cfg)
    assert out.value == float(len(cfg))
    assert out.tuple_count == len(cfg)


def test_permutation_invariance(rng):
    k = make_geometric_indicator(0.2)
    pts = rng.random((40, 1))
    base = evaluate(k, PointConfiguration(pts)).value
    for _ in range(5):
        shuffled = PointConfiguration(pts[rng.permutation(len(pts))])
        assert evaluate(k, shuffled).value == base


def test_geometric_fast_path_matches_generic(rng):
    # force the generic combination path by clearing pair_radius
    from dataclasses import replace

    k = make_geometric_indicator(0.15)
    generic = replace(k, pair_radius=None)
    for n in (0, 1, 2, 17, 60):
        cfg = PointConfiguration(rng.random((n, 1)))
        assert evaluate(k, cfg).value == evaluate(generic, cfg).value
        zs = rng.random((7, 1))
        assert np.array_equal(add_one_costs(k, cfg, zs), add_one_costs(generic, cfg, zs))


def test_add_one_cost_count_kernel(rng):
    spec = IntensitySpec(UNIT, t=4.0)
    cfg = sample_point_process(spec, rng)
    assert add_one_cost(make_count(), cfg, [0.5]) == 1.0


def test_add_one_cost_pairs():
    # k=2, f == 1: adding a point creates 2n new ordered pairs
    k = make_constant(1.0, 2)
    for n in (0, 1, 5, 11):
        cfg = PointConfiguration(np.linspace(0.0, 1.0, n).reshape(n, 1))
        assert add_one_cost(k, cfg, [0.5]) == 2.0 * n


def test_add_one_cost_consistency(rng):
    # D_z F must equal the full difference F(eta + z) - F(eta)
    k = make_geometric_indicator(0.25)
    for _ in range(20):
        cfg = PointConfiguration(rng.random((rng.integers(0, 30), 1)))
        z = rng.random(1)
        direct = evaluate(k, with_points(cfg, z)).value - evaluate(k, cfg).value
        inc = add_one_cost(k, cfg, z)
        assert abs(inc - direct) <= 1e-10 * max(1.0, abs(direct))


def test_add_one_cost_nonneg_for_nonneg_kernels(rng):
    k = make_geometric_indicator(0.2)
    cfg = PointConfiguration(rng.random((25, 1)))
    zs = rng.random((50, 1))
    assert np.all(add_one_costs(k, cfg, zs) >= 0.0)


def test_iterated_difference_first_order(rng):
    k = make_geometric_indicator(0.2)
    cfg = PointConfiguration(rng.random((10, 1)))
    z = rng.random((1, 1))
    assert iterated_difference(k, cfg, z) == pytest.approx(add_one_cost(k, cfg, z[0]), rel=1e-12)


def test_iterated_difference_second_order():
    # k=2, f == 1: D^2 F = f(z1, z2) + f(z2, z1) = 2 regardless of eta
    k = make_constant(1.0, 2)
    for n in (0, 3, 8):
        cfg = PointConfiguration(np.linspace(0.1, 0.9, n).reshape(n, 1))
        assert iterated_difference(k, cfg, [[0.2], [0.7]]) == pytest.approx(2.0, abs=1e-10)


def test_iterated_difference_vanishes_above_order(rng):
    # D^n F = 0 for n > k, on random instances
    k2 = make_geometric_indicator(0.3)
    for _ in range(100):
        cfg = PointConfiguration(rng.random((rng.integers(0, 8), 1)))
        zs = rng.random((3, 1))
        assert iterated_difference(k2, cfg, zs) == pytest.approx(0.0, abs=1e-9)


def test_iterated_difference_guard():
    k = make_count()
    cfg = PointConfiguration(np.empty((0, 1)))
    with pytest.raises(ValueError):
        iterated_difference(k, cfg, np.zeros((21, 1)))
    with pytest.raises(ValueError):
        iterated_difference(k, cfg, np.zeros((0, 1)))


def test_inverse_ou_order_one_is_centred_statistic(rng):
    # k = 1: -L^{-1}(F - EF) = F - EF pathwise
    spec = IntensitySpec(UNIT, t=3.0)
    k = make_count()
    for _ in range(10):
        cfg = sample_point_process(spec, rng)
        expected = evaluate(k, cfg).value - spec.total_mass
        assert inverse_ou_pathwise(k, cfg, spec) == pytest.approx(expected, abs=1e-12)


def test_inverse_ou_closed_form_two_points():
    # k=2, f == 1, t=1, N=2: value is N t + N(N-1)/2 - 1.5 t^2 = 1.5
    spec = IntensitySpec(UNIT, t=1.0)
    k = make_constant(1.0, 2)
    cfg = _config([0.3], [0.8])
    assert inverse_ou_pathwise(k, cfg, spec) == pytest.approx(1.5, abs=1e-12)


def test_inverse_ou_order_three_closed_form():
    # f == 1, k=3, t=1, N=2: sum_m (1/m)[(N)_m t^{3-m} - t^3]
    # = (2-1) + (1/2)(2-1) + (1/3)(0-1) = 7/6
    spec = IntensitySpec(UNIT, t=1.0)
    k = make_constant(1.0, 3)
    cfg = _config([0.2], [0.6])
    assert inverse_ou_pathwise(k, cfg, spec) == pytest.approx(7.0 / 6.0, abs=1e-12)


def test_inverse_ou_zero_mean(rng):
    spec = IntensitySpec(UNIT, t=1.0)
    k = make_constant(1.0, 2)
    reps = 10_000
    vals = np.array([inverse_ou_pathwise(k, sample_point_process(spec, rng), spec) for _ in range(reps)])
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean()) <= 4.0 * se


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_geometric_indicator(0.2),
        # order 3 checks the m < k sum and the D_z F / k top term
        lambda: make_product(lambda p: 2.0 * p[:, 0], 3, base_integral=1.0),
    ],
    ids=["geometric_indicator", "product_k3"],
)
def test_inverse_ou_add_one_matches_difference(rng, make):
    spec = IntensitySpec(UNIT, t=2.0)
    k = make()
    cfg = PointConfiguration(rng.random((6, 1)))
    zs = rng.random((4, 1))
    inc = inverse_ou_add_one_costs(k, cfg, spec, zs)
    for row, z in enumerate(zs):
        direct = inverse_ou_pathwise(k, with_points(cfg, z), spec) - inverse_ou_pathwise(k, cfg, spec)
        assert inc[row] == pytest.approx(direct, rel=1e-10, abs=1e-10)


# Ties: a pair at distance exactly r counts.  The coordinates below are
# exact binary fractions, so every distance of r is exactly r in floats.


def test_ties_at_r_1d():
    spec = IntensitySpec(UNIT, t=10.0)
    k = make_geometric_indicator(0.25)
    cfg = _config([0.0], [0.25], [0.5], [0.75], [1.0])
    assert evaluate(k, cfg).value == 8.0  # 4 neighbouring pairs, each at 0.25
    zs = np.array([[0.5], [0.125], [1.25], [1.5]])
    assert add_one_costs(k, cfg, zs).tolist() == [6.0, 4.0, 2.0, 0.0]
    # marginal_1(z) = t * |[z - r, z + r] ∩ [0, 1]| plus the neighbour count
    assert inverse_ou_add_one_costs(k, cfg, spec, zs).tolist() == [8.0, 5.75, 1.0, 0.0]


def test_ties_at_r_2d():
    spec = IntensitySpec(UNIT * 2, t=10.0)
    k = make_geometric_indicator(0.5)
    cfg = _config([0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5])
    assert evaluate(k, cfg).value == 8.0  # the 4 sides; the diagonals are longer
    zs = np.array([[0.5, 0.5], [0.0, 1.0], [0.25, 0.0], [1.0, 1.0]])
    counts = [3.0, 1.0, 2.0, 0.0]
    assert add_one_costs(k, cfg, zs).tolist() == [2.0 * c for c in counts]
    marginal = k.marginal(spec, zs[:, None, :], 1)
    assert inverse_ou_add_one_costs(k, cfg, spec, zs).tolist() == (marginal + counts).tolist()


def test_replication_blocks_keep_order(monkeypatch):
    # counts first, then the points: the blocks are one draw of every
    # point cut at the block boundaries, whatever the cap
    spec = IntensitySpec(UNIT * 2, t=3.0)
    reps, queries = 40, 2
    rng = np.random.default_rng(9)
    sizes = rng.poisson(spec.total_mass, reps)
    assert 0 in sizes  # an empty replication keeps its row
    expected = np.split(sample_points(spec, int(sizes.sum()), rng), np.cumsum(sizes)[:-1])
    for cap in (1, 5, 1 << 40):
        monkeypatch.setattr(ustat, "_BLOCK_POINTS", cap)
        blocks = list(replication_blocks(spec, reps, np.random.default_rng(9), queries))
        assert [rows.start for rows, _, _ in blocks] == [0] + [r.stop for r, _, _ in blocks[:-1]]
        assert blocks[-1][0].stop == reps
        for rows, points, block_sizes in blocks:
            assert block_sizes.tolist() == sizes[rows].tolist()
            held = int(block_sizes.sum()) + queries * len(block_sizes)
            assert held <= cap or len(block_sizes) == 1
            assert np.array_equal(points, np.concatenate(expected[rows]))
        if cap == 1:
            assert len(blocks) == reps
        if cap == 1 << 40:
            assert len(blocks) == 1
    assert list(replication_blocks(spec, 0, np.random.default_rng(9))) == []


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_many_configurations_match_one_at_a_time(rng, dim):
    spec = IntensitySpec(UNIT * dim, t=25.0)
    configs = [sample_point_process(spec, rng) for _ in range(6)]
    configs += [PointConfiguration(np.empty((0, dim))), _config([0.5] * dim)]
    points = np.concatenate([c.points for c in configs])
    sizes = np.array([len(c) for c in configs])
    zs = rng.random((len(configs), 9, dim))
    product = make_product(lambda p: 2.0 * p[:, 0], 3, base_integral=1.0)
    for kernel in (make_geometric_indicator(0.2), make_constant(2.0, 2), make_count(), product):
        expected = [evaluate(kernel, c).value for c in configs]
        assert evaluate_many(kernel, points, sizes).tolist() == expected
        costs = add_one_costs_many(kernel, points, sizes, zs)
        assert np.array_equal(costs, np.stack([add_one_costs(kernel, c, z) for c, z in zip(configs, zs)]))


def _lower_inverse_ou_costs(kernel, intensity, points, zs):
    # the m < k terms of -D_z L^{-1}F: (m-1)! times the sum of marginal_m(z,
    # subset) over the (m-1)-subsets, in lexicographic order, m ascending
    q, dim = zs.shape
    lower = np.zeros(q)
    for m in range(1, kernel.order):
        combos = list(itertools.combinations(range(len(points)), m - 1))
        subsets = points[np.array(combos, dtype=np.intp).reshape(len(combos), m - 1)]
        probes = np.empty((q, len(combos), m, dim))
        probes[:, :, 0], probes[:, :, 1:] = zs[:, None], subsets[None]
        values = kernel.marginal(intensity, probes.reshape(-1, m, dim), m).reshape(q, len(combos))
        lower += math.factorial(m - 1) * values.sum(axis=1)
    return lower


@pytest.mark.parametrize("dim", [1, 2])
def test_inverse_ou_block_matches_one_at_a_time_bit_for_bit(rng, monkeypatch, dim):
    # row b of the block is configuration b's block of one, and both are
    # D_z F / k added to the lower terms summed first, to the last bit
    monkeypatch.setattr(kernels, "_FALLBACK", kernels.MarginalIntegration(samples=300))
    spec = IntensitySpec(UNIT * dim, t=3.0)
    configs = [sample_point_process(spec, rng) for _ in range(3)]
    configs.insert(1, PointConfiguration(np.empty((0, dim))))
    points = np.concatenate([c.points for c in configs])
    sizes = np.array([len(c) for c in configs])
    zs = rng.random((len(configs), 5, dim))
    product = make_product(lambda p: 1.0 + p[:, 0] * p[:, -1], 3)  # no base integral: MC
    for kernel in (make_count(), make_geometric_indicator(0.3), make_constant(-0.7, 4), product):
        d = add_one_costs_many(kernel, points, sizes, zs)
        block = inverse_ou_add_one_costs_many(kernel, points, sizes, spec, zs, d)
        assert block.shape == zs.shape[:2]
        for row, cfg, z in zip(block, configs, zs):
            expected = add_one_costs(kernel, cfg, z) / kernel.order
            expected += _lower_inverse_ou_costs(kernel, spec, cfg.points, z)
            assert row.tobytes() == inverse_ou_add_one_costs(kernel, cfg, spec, z).tobytes()
            assert row.tobytes() == expected.tobytes()


@pytest.mark.parametrize("chunk", [1, 3, ustat._EVAL_CHUNK])
def test_combo_chunks_match_itertools(chunk):
    # lexicographic order, every chunk nonempty and about ``chunk`` rows
    for n in range(10):
        for k in range(5):
            chunks = list(ustat._combo_chunks(n, k, chunk))
            rows = [tuple(row) for c in chunks for row in c.tolist()]
            assert rows == list(itertools.combinations(range(n), k))
            assert all(0 < len(c) <= max(chunk, n) and c.shape[1] == k for c in chunks)


def _direct_iterated_difference(kernel, cfg, zs):
    # the inclusion-exclusion sum over augmented configurations, one by one
    total = 0.0
    for mask in range(1 << len(zs)):
        chosen = [i for i in range(len(zs)) if (mask >> i) & 1]
        sign = -1.0 if (len(zs) - len(chosen)) % 2 else 1.0
        total += sign * evaluate(kernel, with_points(cfg, zs[chosen])).value
    return total


@pytest.mark.parametrize("dim", [1, 2])
def test_iterated_differences_of_a_block_match_one_at_a_time(rng, dim):
    spec = IntensitySpec(UNIT * dim, t=8.0)
    configs = [PointConfiguration(np.empty((0, dim)))] + [sample_point_process(spec, rng) for _ in range(5)]
    configs += [PointConfiguration(np.empty((0, dim))), _config([0.5] * dim)]
    points = np.concatenate([c.points for c in configs])
    sizes = np.array([len(c) for c in configs])
    kernels = (make_geometric_indicator(0.3), make_constant(2.0, 2), make_count(),
               make_product(lambda p: 2.0 * p[:, 0], 3, base_integral=1.0))
    for kernel in kernels:
        for n in (1, 2, 3):
            zs = rng.random((n, dim))
            block = iterated_differences(kernel, points, sizes, zs)
            single = [iterated_difference(kernel, c, zs) for c in configs]
            direct = [_direct_iterated_difference(kernel, c, zs) for c in configs]
            assert block.tolist() == single == direct
