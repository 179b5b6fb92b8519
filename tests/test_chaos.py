import math

import numpy as np
import pytest

from pustat import chaos
from pustat.chaos import chaos_kernel_values, variance_from_kernels
from pustat.kernels import MarginalIntegration, make_constant, make_count, make_geometric_indicator
from pustat.measure import IntensitySpec, NumericalError, mc_integral, sample_point_process
from pustat.ustat import evaluate

import oracles
from oracles import kernel_empirical, wiener_ito_I1

UNIT = [(0.0, 1.0)]


def test_kernel_f_i_top_order_is_kernel_itself():
    spec = IntensitySpec(UNIT, t=2.0)
    k = make_geometric_indicator(0.1)
    close = chaos_kernel_values(k, spec, 2, np.array([[[0.4], [0.45]]]))
    far = chaos_kernel_values(k, spec, 2, np.array([[[0.1], [0.9]]]))
    assert (close[0][0], close[1][0]) == (1.0, 0.0)
    assert (far[0][0], far[1][0]) == (0.0, 0.0)


def test_kernel_f_i_count():
    spec = IntensitySpec(UNIT, t=9.0)
    assert chaos_kernel_values(make_count(), spec, 1, np.array([[[0.3]]]))[0][0] == 1.0


def test_kernel_f_i_geometric_interior_point():
    # C(2,1) * t * 2r at an interior point: 2 * 10 * 0.2 = 4
    spec = IntensitySpec(UNIT, t=10.0)
    k = make_geometric_indicator(0.1)
    vals, ses = chaos_kernel_values(k, spec, 1, np.array([[[0.5]]]))
    assert vals[0] == pytest.approx(4.0, rel=1e-12)
    assert ses[0] == 0.0


def test_kernel_f_i_index_range():
    spec = IntensitySpec(UNIT, t=1.0)
    with pytest.raises(ValueError):
        chaos_kernel_values(make_count(), spec, 2, np.array([[[0.5], [0.6]]]))


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
        ana, ana_se = chaos_kernel_values(k, spec, 1, np.array([[[x0]]]))
        combined = math.hypot(emp.stderr, ana_se[0])
        assert abs(emp.value - ana[0]) <= 4.0 * max(combined, 1e-12)


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
    assert res.value == 7.0
    assert res.stderr == 0.0


def test_variance_order_two_constant():
    # Var F for k=2, f == 1 is 4 t^3 + 2 t^2; 6 at t=1 (Poisson-moment oracle)
    for t in (1.0, 2.0):
        spec = IntensitySpec(UNIT, t=t)
        res = variance_from_kernels(make_constant(1.0, 2), spec, mc_samples=1000)
        assert res.value == pytest.approx(4 * t**3 + 2 * t**2, rel=1e-12)
    spec1 = IntensitySpec(UNIT, t=1.0)
    assert variance_from_kernels(make_constant(1.0, 2), spec1, mc_samples=100).value == pytest.approx(6.0)


def test_variance_terms_nonnegative(rng):
    spec = IntensitySpec(UNIT, t=3.0)
    res = variance_from_kernels(make_geometric_indicator(0.2), spec, mc_samples=20_000, rng=rng)
    assert res.value >= 0.0


@pytest.mark.parametrize("make, dim", [
    (lambda: make_constant(1.5, 3), 1),
    (lambda: make_geometric_indicator(0.2), 1),
    (lambda: make_geometric_indicator(0.2), 2),  # fallback marginals
], ids=["constant_k3", "indicator_1d", "indicator_2d"])
def test_variance_matches_integral_at_t(make, dim):
    # unit-scale integrals rescaled by t^p equal the two-factor integrals
    # against mu_t on the same draws
    spec = IntensitySpec([(0.0, 1.0)] * dim, t=30.0)
    mc = MarginalIntegration(samples=300)
    kernel = make()
    if dim == 2:
        assert chaos_kernel_values(kernel, spec, 1, np.full((1, 1, 2), 0.5), mc=mc)[1][0] > 0.0
    got = variance_from_kernels(kernel, spec, mc_samples=2000, rng=np.random.default_rng(4), mc=mc)
    want = oracles.variance_at_t(make(), spec, 2000, np.random.default_rng(4), mc)
    assert got.value == pytest.approx(want[0], rel=1e-12)
    # a constant integrand's stderr is rounding noise around zero
    assert got.stderr == pytest.approx(want[1], rel=1e-12, abs=1e-12 * want[0])


def _count_integrals(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return mc_integral(*args, **kwargs)

    monkeypatch.setattr(chaos, "mc_integral", counting)
    return calls


def test_variance_seed_sequence_integrates_once_across_t(monkeypatch):
    calls = _count_integrals(monkeypatch)
    k = make_geometric_indicator(0.1)
    t40 = IntensitySpec(UNIT, t=40.0)

    def run(kern=k, intensity=IntensitySpec(UNIT, t=20.0)):
        before = len(calls)
        out = variance_from_kernels(kern, intensity, mc_samples=2000,
                                    rng=np.random.SeedSequence(6, spawn_key=(0,)))
        return out, len(calls) - before

    assert run()[1] == 2
    hit, ran = run(intensity=t40)
    assert ran == 0
    assert hit == run(kern=make_geometric_indicator(0.1), intensity=t40)[0]
    # the default stream is a SeedSequence too
    variance_from_kernels(k, t40, mc_samples=2000)
    before = len(calls)
    variance_from_kernels(k, IntensitySpec(UNIT, t=20.0), mc_samples=2000)
    assert len(calls) == before


def test_variance_generators_are_not_cached(monkeypatch):
    calls = _count_integrals(monkeypatch)
    k = make_geometric_indicator(0.1)
    spec = IntensitySpec(UNIT, t=20.0)
    a, b, c = (variance_from_kernels(k, spec, mc_samples=2000, rng=np.random.default_rng(s))
               for s in (1, 1, 2))
    assert len(calls) == 3 * 2
    assert a == b
    assert a != c


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
        assert abs(s2 - res.value) <= 4.0 * (se_s2 + res.stderr)


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
