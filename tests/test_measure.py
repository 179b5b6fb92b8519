import math

import numpy as np
import pytest
from scipy.stats import chi2, poisson

from pustat.measure import (
    IntensitySpec,
    NumericalError,
    PointConfiguration,
    mc_integral,
    sample_point_process,
)

from oracles import replication_rng, with_points

UNIT = [(0.0, 1.0)]


def test_total_mass_constant_density():
    assert IntensitySpec(UNIT, t=5.0).total_mass == 5.0
    assert IntensitySpec([(0.0, 1.0), (0.0, 1.0)], t=2.0).total_mass == 2.0


def test_total_mass_analytic_density():
    # density(x) = 2x integrates to 1 on [0,1]
    spec = IntensitySpec(UNIT, t=3.0, density=lambda p: 2.0 * p[:, 0], density_sup=2.0,
                         base_integral=1.0)
    assert spec.total_mass == 3.0
    assert spec.total_mass_stderr == 0.0


def test_total_mass_mc_density():
    spec = IntensitySpec(UNIT, t=3.0, density=lambda p: 2.0 * p[:, 0], density_sup=2.0)
    assert abs(spec.total_mass - 3.0) <= 4.0 * spec.total_mass_stderr
    assert spec.total_mass_stderr > 0.0


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
    cfg = PointConfiguration.empty(2)
    assert len(cfg) == 0 and cfg.dim == 2
    assert len(with_points(cfg, [0.1, 0.2])) == 1


def test_mc_integral_overflow_is_a_numerical_error(rng):
    # mass**n overflows a float: refused as non-finite, not an OverflowError
    spec = IntensitySpec(UNIT, t=1e200)
    with pytest.raises(NumericalError, match="non-finite"):
        mc_integral(lambda x: np.zeros(len(x)), spec, 2, 10, rng)
