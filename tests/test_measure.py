import math

import numpy as np
import pytest
from scipy.stats import chi2, poisson

from pustat import measure
from pustat.measure import (
    IntensitySpec,
    NumericalError,
    PointConfiguration,
    mc_integral,
    sample_point_process,
)

from oracles import mc_integral_single_shot, replication_rng, with_points

UNIT = [(0.0, 1.0)]


def test_total_mass_constant_density():
    assert IntensitySpec(UNIT, t=5.0).total_mass == 5.0
    assert IntensitySpec([(0.0, 1.0), (0.0, 1.0)], t=2.0).total_mass == 2.0


def test_total_mass_analytic_density():
    # density(x) = 2x integrates to 1 on [0,1]
    spec = IntensitySpec(UNIT, t=3.0, density=lambda p: 2.0 * p[:, 0], density_sup=2.0,
                         base_integral=1.0)
    assert spec.total_mass == 3.0


def test_density_without_integral_refused():
    # an estimated mass would scale every integral with an error no stderr
    # carries, so a density comes with its integral or is refused
    with pytest.raises(ValueError, match="base_integral"):
        IntensitySpec(UNIT, t=3.0, density=lambda p: 2.0 * p[:, 0], density_sup=2.0)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        IntensitySpec([(1.0, 0.0)])
    with pytest.raises(ValueError):
        IntensitySpec(UNIT, t=-1.0)
    with pytest.raises(ValueError):
        IntensitySpec(UNIT, t=math.inf)


def test_density_sup_violation_raises(rng):
    spec = IntensitySpec(UNIT, t=1.0, density=lambda p: 2.0 * p[:, 0], density_sup=1.0,
                         base_integral=1.0)
    with pytest.raises(ValueError, match="declared sup"):
        sample_point_process(spec, rng)


def test_zero_mass_gives_empty_configuration(rng):
    spec = IntensitySpec(UNIT, t=0.0)
    for _ in range(20):
        assert len(sample_point_process(spec, rng)) == 0


def test_sampling_determinism():
    spec = IntensitySpec([(0.0, 2.0), (-1.0, 1.0)], t=7.5)
    a = sample_point_process(spec, replication_rng(123, 4)).points
    b = sample_point_process(spec, replication_rng(123, 4)).points
    assert a.tobytes() == b.tobytes()
    c = sample_point_process(spec, replication_rng(123, 5)).points
    assert a.shape != c.shape or a.tobytes() != c.tobytes()


def test_count_mean_and_variance(rng):
    # mean within 4 sqrt(t/reps); variance within a chi^2 interval
    spec = IntensitySpec(UNIT, t=10.0)
    reps = 10_000
    counts = np.array([len(sample_point_process(spec, rng)) for _ in range(reps)])
    assert abs(counts.mean() - 10.0) <= 4.0 * math.sqrt(10.0 / reps)
    s2 = counts.var(ddof=1)
    lo = 10.0 * chi2.ppf(2.5e-4, reps - 1) / (reps - 1)
    hi = 10.0 * chi2.ppf(1 - 2.5e-4, reps - 1) / (reps - 1)
    assert lo <= s2 <= hi


def test_count_distribution_tv(rng):
    # TV distance of the empirical counts to Poisson(m) below 0.02
    m = 7.0
    spec = IntensitySpec(UNIT, t=m)
    reps = 100_000
    counts = np.array([len(sample_point_process(spec, rng)) for _ in range(reps)])
    top = int(m + 10 * math.sqrt(m))
    pmf_emp = np.bincount(counts, minlength=top + 1)[: top + 1] / reps
    pmf_true = poisson.pmf(np.arange(top + 1), m)
    tv = 0.5 * np.abs(pmf_emp - pmf_true).sum()
    assert tv < 0.02


def test_point_law_respects_density(rng):
    # density 2x on [0,1]: P(X <= 1/2) = 1/4
    spec = IntensitySpec(UNIT, t=1.0, density=lambda p: 2.0 * p[:, 0], density_sup=2.0,
                         base_integral=1.0)
    from pustat.measure import sample_points

    pts = sample_points(spec, 40_000, rng)[:, 0]
    frac = (pts <= 0.5).mean()
    assert abs(frac - 0.25) <= 4.0 * math.sqrt(0.25 * 0.75 / 40_000)


def test_mc_integral_constant_exact(rng):
    spec = IntensitySpec(UNIT, t=5.0)
    est, se = mc_integral(lambda x: np.full(len(x), 2.5), spec, n=2, samples=1000, rng=rng)
    assert est == 2.5 * 5.0**2
    assert se == 0.0
    est, se = mc_integral(lambda x: np.ones(len(x)), spec, n=1, samples=100, rng=rng)
    assert est == 5.0 and se == 0.0


def test_mc_integral_zero(rng):
    spec = IntensitySpec(UNIT, t=5.0)
    est, se = mc_integral(lambda x: np.zeros(len(x)), spec, n=1, samples=1000, rng=rng)
    assert est == 0.0 and se == 0.0


def test_mc_integral_linear(rng):
    # integral of 2x against mu_1 on [0,1] is 1
    spec = IntensitySpec(UNIT, t=1.0)
    est, se = mc_integral(lambda x: 2.0 * x[:, 0, 0], spec, n=1, samples=50_000, rng=rng)
    assert abs(est - 1.0) <= 4.0 * se


def test_mc_integral_rejects_bad_input(rng):
    spec = IntensitySpec(UNIT, t=1.0)
    for samples in (0, 1):  # one sample has no standard error
        with pytest.raises(ValueError, match="samples"):
            mc_integral(lambda x: np.ones(len(x)), spec, n=1, samples=samples, rng=rng)
    with pytest.raises(ValueError, match="non-finite"):
        mc_integral(lambda x: np.full(len(x), np.nan), spec, n=1, samples=10, rng=rng)


def test_configuration_shape_guard():
    with pytest.raises(ValueError):
        PointConfiguration(np.zeros(3))
    cfg = PointConfiguration(np.empty((0, 2)))
    assert len(cfg) == 0 and cfg.dim == 2
    assert len(with_points(cfg, [0.1, 0.2])) == 1


def test_mc_integral_overflow_is_a_numerical_error(rng):
    # mass**n overflows a float: refused as non-finite, not an OverflowError
    spec = IntensitySpec(UNIT, t=1e200)
    with pytest.raises(NumericalError, match="non-finite"):
        mc_integral(lambda x: np.zeros(len(x)), spec, 2, 10, rng)


def _rowwise(x):
    # each row's value from its own coordinates, by exact elementwise steps
    first, last = x[:, 0, 0], x[:, -1, -1]
    return first * (1.0 + last) ** 2 / (1.0 + x[:, x.shape[1] // 2, 0] ** 2)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mc_integral_chunks_match_single_shot(n, d):
    # on a constant density the chunked draws and values are those of one
    # draw, so the estimate and its stderr keep every bit
    chunk = measure._MC_CHUNK
    spec = IntensitySpec([(-0.5, 1.5), (0.0, 3.0)][:d], t=2.5)
    for samples in (2, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        got = mc_integral(_rowwise, spec, n, samples, np.random.default_rng(samples))
        want = mc_integral_single_shot(_rowwise, spec, n, samples, np.random.default_rng(samples))
        assert got == want, (n, d, samples)


def test_mc_integral_evaluates_in_chunks(rng):
    chunk = measure._MC_CHUNK
    rows = []

    def g(x):
        rows.append(len(x))
        return x[:, 0, 0]

    mc_integral(g, IntensitySpec(UNIT, t=2.0), 2, 3 * chunk + 5, rng)
    assert rows == [chunk, chunk, chunk, 5]


def test_mc_integral_nan_in_a_middle_chunk(rng):
    calls = []

    def g(x):
        calls.append(len(x))
        vals = np.ones(len(x))
        if len(calls) == 2:
            vals[len(x) // 2] = np.nan
        return vals

    with pytest.raises(NumericalError, match="non-finite"):
        mc_integral(g, IntensitySpec(UNIT), 1, 3 * measure._MC_CHUNK, rng)
    assert len(calls) == 3


def test_mc_integral_chunks_on_a_nonconstant_density(rng):
    # density 2x on [0,1]: the integral of x_1 x_2 against mu_t^2 is (2t/3)^2;
    # rejection makes the draws depend on the chunks, not the estimate's law
    spec = IntensitySpec(UNIT, t=3.0, density=lambda p: 2.0 * p[:, 0], density_sup=2.0,
                         base_integral=1.0)
    est, se = mc_integral(lambda x: x[:, 0, 0] * x[:, 1, 0], spec, 2,
                          3 * measure._MC_CHUNK + 5, rng)
    assert se > 0.0
    assert abs(est - 4.0) <= 4.0 * se


@pytest.mark.parametrize("box", [[(-2.0, 3.0)],
                                 [(0.5, 0.75), (1e6, 1e6 + 1.0)],
                                 [(-2.0, 3.0), (0.5, 0.75), (1e6, 1e6 + 1.0)]])
def test_unit_density_draws_are_the_broadcast_formula(box):
    # the column-by-column draws in place are lo + (hi - lo) * u bit for
    # bit, and leave the generator where one (n, d) draw leaves it
    spec = IntensitySpec(box, t=3.0)
    lo, hi = np.array(box).T
    for n in (1, 7, 5000):
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        got = measure.sample_points(spec, n, a)
        want = lo + (hi - lo) * b.random((n, len(box)))
        assert got.tobytes() == want.tobytes()
        assert a.bit_generator.state == b.bit_generator.state


def test_rejection_draws_are_reproduced():
    # draws and the generator's next double at seed 20121017, recorded with
    # proposals computed as lo + (hi - lo) * u by broadcasting
    linear = IntensitySpec([(-2.0, 3.0)], density=lambda p: (p[:, 0] + 2.0) / 5.0,
                           density_sup=1.0, base_integral=2.5)
    ramp = IntensitySpec([(0.5, 0.75), (-2.0, 3.0)], density=lambda p: 4.0 * (p[:, 0] - 0.5),
                         density_sup=1.0, base_integral=0.625)
    recorded = [
        (linear, [[1.633695086250765], [2.5333854829191624], [-0.5331727991891881],
                  [0.09558139387137299]], 0.6609289093185194),
        (ramp, [[0.6816847543125383, -1.3362995588249214],
                [0.7266692741459582, -0.5331727991891881],
                [0.5832946670810334, 2.930098424940123],
                [0.7438229912194455, 0.9548365041618792]], 0.29486664674087604),
    ]
    for spec, points, after in recorded:
        rng = np.random.default_rng(20121017)
        assert measure.sample_points(spec, 4, rng).tolist() == points
        assert rng.random() == after
