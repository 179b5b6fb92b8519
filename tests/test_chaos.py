import math

import numpy as np
import pytest

from pustat.chaos import (
    kernel_empirical,
    kernel_f_i,
    variance_from_kernels,
    wiener_ito_I1,
)
from pustat.kernels import make_constant, make_count, make_geometric_indicator
from pustat.measure import IntensitySpec, NumericalError, sample_point_process
from pustat.ustat import evaluate

UNIT = [(0.0, 1.0)]


def test_kernel_f_i_top_order_is_kernel_itself():
    spec = IntensitySpec(UNIT, t=2.0)
    k = make_geometric_indicator(0.1)
    close = kernel_f_i(k, spec, 2, [[0.4], [0.45]])
    far = kernel_f_i(k, spec, 2, [[0.1], [0.9]])
    assert (close.value, close.stderr) == (1.0, 0.0)
    assert (far.value, far.stderr) == (0.0, 0.0)


def test_kernel_f_i_count():
    spec = IntensitySpec(UNIT, t=9.0)
    assert kernel_f_i(make_count(), spec, 1, [[0.3]]).value == 1.0


def test_kernel_f_i_geometric_interior_point():
    # C(2,1) * t * 2r at an interior point: 2 * 10 * 0.2 = 4
    spec = IntensitySpec(UNIT, t=10.0)
    k = make_geometric_indicator(0.1)
    out = kernel_f_i(k, spec, 1, [[0.5]])
    assert out.value == pytest.approx(4.0, rel=1e-12)
    assert out.stderr == 0.0


def test_kernel_f_i_index_range():
    spec = IntensitySpec(UNIT, t=1.0)
    with pytest.raises(ValueError):
        kernel_f_i(make_count(), spec, 2, [[0.5], [0.6]])


def test_kernel_empirical_count_exact(rng):
    spec = IntensitySpec(UNIT, t=3.0)
    out = kernel_empirical(make_count(), spec, 1, [[0.5]], reps=50, rng=rng)
    assert out.value == 1.0 and out.stderr == 0.0


def test_kernel_empirical_matches_analytic(rng):
    # mean iterated difference / n! agrees with the closed-form chaos kernel
    spec = IntensitySpec(UNIT, t=10.0)
    k = make_geometric_indicator(0.1)
    probes = rng.random(5)
    for x0 in probes:
        emp = kernel_empirical(k, spec, 1, [[x0]], reps=3000, rng=rng)
        ana = kernel_f_i(k, spec, 1, [[x0]])
        combined = math.hypot(emp.stderr, ana.stderr)
        assert abs(emp.value - ana.value) <= 4.0 * max(combined, 1e-12)


def test_kernel_empirical_needs_two_reps(rng):
    # one replication has no standard error; refuse it instead of printing inf
    spec = IntensitySpec(UNIT, t=3.0)
    for reps in (0, 1):
        with pytest.raises(ValueError, match="reps must be >= 2"):
            kernel_empirical(make_count(), spec, 1, [[0.5]], reps=reps, rng=rng)
    out = kernel_empirical(make_count(), spec, 1, [[0.5]], reps=2, rng=rng)
    assert out == (1.0, 0.0)


def test_kernel_empirical_vanishes_above_order(rng):
    spec = IntensitySpec(UNIT, t=2.0)
    k = make_geometric_indicator(0.2)
    out = kernel_empirical(k, spec, 3, rng.random((3, 1)), reps=50, rng=rng)
    assert out.value == 0.0 and out.stderr == 0.0


def test_variance_count_kernel():
    spec = IntensitySpec(UNIT, t=7.0)
    res = variance_from_kernels(make_count(), spec, mc_samples=1000)
    assert res.variance == 7.0
    assert res.stderr == 0.0


def test_variance_order_two_constant():
    # Var F for k=2, f == 1 is 4 t^3 + 2 t^2; 6 at t=1 (Poisson-moment oracle)
    for t in (1.0, 2.0):
        spec = IntensitySpec(UNIT, t=t)
        res = variance_from_kernels(make_constant(1.0, 2), spec, mc_samples=1000)
        assert res.variance == pytest.approx(4 * t**3 + 2 * t**2, rel=1e-12)
    spec1 = IntensitySpec(UNIT, t=1.0)
    assert variance_from_kernels(make_constant(1.0, 2), spec1, mc_samples=100).variance == pytest.approx(6.0)


def test_variance_terms_nonnegative(rng):
    spec = IntensitySpec(UNIT, t=3.0)
    res = variance_from_kernels(make_geometric_indicator(0.2), spec, mc_samples=20_000, rng=rng)
    assert res.variance >= 0.0
    assert all(term.value >= 0.0 for term in res.terms)


def test_variance_matches_sample_variance(rng):
    # identity Var F = sum_i i! ||f_i||^2 against 10^4 replications
    for kernel, t in ((make_count(), 5.0), (make_geometric_indicator(0.2), 8.0)):
        spec = IntensitySpec(UNIT, t=t)
        res = variance_from_kernels(kernel, spec, mc_samples=200_000, rng=rng)
        reps = 10_000
        vals = np.array([evaluate(kernel, sample_point_process(spec, rng)).value for _ in range(reps)])
        s2 = vals.var(ddof=1)
        m4 = np.mean((vals - vals.mean()) ** 4)
        se_s2 = math.sqrt(max(m4 - s2 * s2 * (reps - 3) / (reps - 1), 0.0) / reps)
        assert abs(s2 - res.variance) <= 4.0 * (se_s2 + res.stderr)


def test_variance_order_cap():
    spec = IntensitySpec(UNIT, t=1.0)
    with pytest.raises(ValueError, match="capped"):
        variance_from_kernels(make_constant(1.0, 5), spec, mc_samples=10)


def test_wiener_ito_count(rng):
    spec = IntensitySpec(UNIT, t=6.0)
    cfg = sample_point_process(spec, rng)
    out = wiener_ito_I1(lambda p: np.ones(len(p)), cfg, spec, g_integral=spec.total_mass)
    assert out == float(len(cfg)) - 6.0


def test_wiener_ito_empty_config():
    from pustat.measure import PointConfiguration

    spec = IntensitySpec(UNIT, t=2.0)
    out = wiener_ito_I1(lambda p: p[:, 0], PointConfiguration.empty(1), spec, g_integral=1.0)
    assert out == -1.0


def test_wiener_ito_zero_mean(rng):
    spec = IntensitySpec(UNIT, t=4.0)
    reps = 10_000
    vals = np.array([
        wiener_ito_I1(lambda p: p[:, 0], sample_point_process(spec, rng), spec, g_integral=2.0)
        for _ in range(reps)
    ])
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean()) <= 4.0 * se


def test_wiener_ito_orthogonality(rng):
    # E I_1(g) I_1(h) = integral of g h against mu_t
    spec = IntensitySpec(UNIT, t=5.0)
    g_fn = lambda p: p[:, 0]
    h_fn = lambda p: p[:, 0] ** 2
    g_int = 5.0 / 2.0
    h_int = 5.0 / 3.0
    target = 5.0 / 4.0  # integral of x^3 against mu_5
    reps = 10_000
    prods = np.empty(reps)
    for rep in range(reps):
        cfg = sample_point_process(spec, rng)
        prods[rep] = wiener_ito_I1(g_fn, cfg, spec, g_integral=g_int) * wiener_ito_I1(
            h_fn, cfg, spec, g_integral=h_int
        )
    se = prods.std(ddof=1) / math.sqrt(reps)
    assert abs(prods.mean() - target) <= 4.0 * se


def test_variance_overflow_is_a_numerical_error():
    # at t = 1e60 the squared stderr of the order-1 term overflows
    spec = IntensitySpec(UNIT, t=1e60)
    with pytest.raises(NumericalError, match="non-finite"):
        variance_from_kernels(make_geometric_indicator(0.05), spec, mc_samples=100)
