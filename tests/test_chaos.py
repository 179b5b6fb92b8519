import math

import numpy as np
import pytest

from pustat import chaos, kernels, measure
from pustat.bounds import compute_Mij
from pustat.chaos import chaos_kernel_values, variance_from_kernels
from pustat.kernels import MarginalIntegration, make_constant, make_count, make_geometric_indicator
from pustat.measure import IntensitySpec, NumericalError, mc_integral, sample_point_process
from pustat.partitions import contraction_classes
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


@pytest.mark.parametrize("make, box", [
    (lambda: make_constant(1.5, 3), UNIT),
    (lambda: make_geometric_indicator(0.2), UNIT),
    # 2r above the short side: fallback marginals
    (lambda: make_geometric_indicator(0.2), [(0.0, 1.0), (0.0, 0.3)]),
], ids=["constant_k3", "indicator_1d", "indicator_2d"])
def test_variance_matches_integral_at_t(monkeypatch, make, box):
    # unit-scale integrals rescaled by t^p equal the two-factor integrals
    # against mu_t on the same draws
    spec = IntensitySpec(box, t=30.0)
    monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=300))
    kernel = make()
    if spec.dim == 2:
        probe = np.array([[[0.5, 0.15]]])
        assert chaos_kernel_values(kernel, spec, 1, probe)[1][0] > 0.0
    got = variance_from_kernels(kernel, spec, mc_samples=2000, rng=np.random.default_rng(4))
    want = oracles.variance_at_t(make(), spec, 2000, np.random.default_rng(4))
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


def test_class_sums_count_their_nonzero_draws():
    # the counting kernel's integrands never vanish: every draw is a hit,
    # also when the cache answers for another t
    k = make_count()
    stream = np.random.SeedSequence(2)
    for t in (5.0, 9.0):
        out = variance_from_kernels(k, IntensitySpec(UNIT, t=t), mc_samples=700, rng=stream)
        assert out.fewest_hits == 700
        assert out == chaos.MCValue(t, 0.0)
    # a link of radius 0.01 leaves f_2^2 zero on most of 2000 draws
    out = variance_from_kernels(make_geometric_indicator(0.01), IntensitySpec(UNIT, t=10.0),
                                mc_samples=2000, rng=np.random.default_rng(3))
    assert 0 < out.fewest_hits < 200


def test_class_weights_replace_partition_counts():
    # weights equal to the partition counts give the plain sum bit for bit;
    # weights naming one class give that class alone, from the same cache
    from pustat.partitions import contraction_classes

    k = make_geometric_indicator(0.1)
    spec = IntensitySpec(UNIT, t=20.0)
    groups = ((2, 2, 2, 2),)
    classes = contraction_classes(groups[0])

    def total(weights=None):
        return chaos.contraction_sum(k, spec, groups, samples=2000, rng=np.random.SeedSequence(4),
                                     name="M_22", weights=weights)

    plain = total()
    assert total(dict(classes)) == plain
    parts = [total({masks: w}) for masks, w in classes]
    assert sum(p.value for p in parts) == pytest.approx(plain.value, rel=1e-12)
    assert min(p.fewest_hits for p in parts) == plain.fewest_hits
    assert total({}) == (0.0, 0.0) and total({}).fewest_hits == 2000


def test_variance_generators_are_not_cached(monkeypatch):
    calls = _count_integrals(monkeypatch)
    k = make_geometric_indicator(0.1)
    spec = IntensitySpec(UNIT, t=20.0)
    a, b, c = (variance_from_kernels(k, spec, mc_samples=2000, rng=np.random.default_rng(s))
               for s in (1, 1, 2))
    assert len(calls) == 3 * 2
    assert a == b
    assert a != c


def _kernel_value_calls(monkeypatch):
    """A list of (i, rows, values) for each chaos_kernel_values call of a
    class integrand."""
    calls = []

    def recording(kernel, intensity, i, x, **kwargs):
        out = chaos_kernel_values(kernel, intensity, i, x, **kwargs)
        calls.append((i, len(x), out[0]))
        return out

    monkeypatch.setattr(chaos, "chaos_kernel_values", recording)
    return calls


def test_variance_evaluates_an_exact_factor_once(monkeypatch):
    # in 1-D f_1 is analytic and f_2 is f, so each Var F class evaluates its
    # one factor once per chunk and squares it
    calls = _kernel_value_calls(monkeypatch)
    chunk = measure._MC_CHUNK
    k = make_geometric_indicator(0.1)
    spec = IntensitySpec(UNIT, t=20.0)
    got = variance_from_kernels(k, spec, mc_samples=2 * chunk + 3, rng=np.random.default_rng(3))
    assert [c[:2] for c in calls] == [(1, chunk), (1, chunk), (1, 3), (2, chunk), (2, chunk), (2, 3)]
    monkeypatch.undo()
    want = oracles.variance_at_t(k, spec, 2 * chunk + 3, np.random.default_rng(3))
    assert got.value == pytest.approx(want[0], rel=1e-12)


def test_variance_fallback_factors_stay_independent(monkeypatch):
    # on a 2-D box with 2r above one side f_1 comes from the seeded
    # fallback: its two factors draw from their own seeds and differ, while
    # f_2 = f is evaluated once
    calls = _kernel_value_calls(monkeypatch)
    monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=300))
    spec = IntensitySpec([(0.0, 1.0), (0.0, 0.3)], t=30.0)
    variance_from_kernels(make_geometric_indicator(0.2), spec, mc_samples=500,
                          rng=np.random.default_rng(4))
    assert [c[:2] for c in calls] == [(1, 500), (1, 500), (2, 500)]
    assert not np.array_equal(calls[0][2], calls[1][2])


def test_variance_matches_sample_variance(rng):
    # identity Var F = sum_i i! ||f_i||^2 against 10^4 replications
    for kernel, t in ((make_count(), 5.0), (make_geometric_indicator(0.2), 8.0)):
        spec = IntensitySpec(UNIT, t=t)
        res = variance_from_kernels(kernel, spec, mc_samples=200_000, rng=rng)
        reps = 10_000
        vals = np.array([evaluate(kernel, sample_point_process(spec, rng)) for _ in range(reps)])
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
    out = wiener_ito_I1(lambda p: p[:, 0], PointConfiguration(np.empty((0, 1))), spec, g_integral=1.0)
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


# ---------------------------------------------------------------------------
# the exact route of the 1-D distance indicator's class integrals
# ---------------------------------------------------------------------------

_M_GROUPS = ((1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2))


def _m_classes():
    return [(sizes, masks) for sizes in _M_GROUPS
            for masks, _ in contraction_classes(sizes)]


def test_exact_classes_match_the_cell_oracle():
    # the kernel takes the float 0.05, the oracle r = 1/20 exactly
    kernel = make_geometric_indicator(0.05)
    classes = _m_classes()
    assert len(classes) == 18
    for sizes, masks in classes:
        got = chaos._exact_unit_integral(kernel, IntensitySpec(UNIT), sizes, masks)
        want = float(oracles.distance_class_exact(sizes, masks, 20))
        assert got == pytest.approx(want, rel=1e-12), (sizes, masks)


def test_exact_classes_match_monte_carlo_off_whole_cells():
    # L / r = 5.48 is not a whole number of cells; plain Monte Carlo with
    # 10^6 draws shares no code with the route (max |z| = 2.14)
    kernel = make_geometric_indicator(0.25)
    intensity = IntensitySpec([(0.0, 1.37)])
    classes = [(sizes, masks, 1) for sizes, masks in _m_classes()]
    drawn = chaos._unit_integrals(kernel, intensity, classes, 10**6,
                                  np.random.default_rng(np.random.SeedSequence(21)))
    for (sizes, masks, _), (est, se, _) in zip(classes, drawn):
        exact = chaos._exact_unit_integral(kernel, intensity, sizes, masks)
        assert se > 0.0
        assert abs(exact - est) <= 4.0 * se, (sizes, masks)


def test_exact_m11_closed_form():
    # M_11 = 16 t^5 (16 r^4 - 98 r^5 / 5) on the unit interval: to 1e-12 at
    # r = 0.07 (1/r not whole), and bit for bit at r = 0.05 against the
    # closed form evaluated in rationals and rounded once, as the zero-
    # tolerance M_11 gate of perfbench needs
    from fractions import Fraction

    r = 0.07
    for t in (3.0, 100.0):
        got = compute_Mij(make_geometric_indicator(r), IntensitySpec(UNIT, t=t), 1, 1)
        assert got.stderr == 0.0
        assert got.value == pytest.approx(16 * t**5 * (16 * r**4 - 98 / 5 * r**5), rel=1e-12)
    r = Fraction(0.05)
    for t in (50, 100, 200):
        got = compute_Mij(make_geometric_indicator(0.05), IntensitySpec(UNIT, t=t), 1, 1)
        assert got.value == float(16 * Fraction(t) ** 5 * (16 * r**4 - Fraction(98, 5) * r**5))
    # its one class against mu_1 on a box of length L >= 2r is
    # 16 (16 r^4 L - 98 r^5 / 5), correctly rounded (a float evaluation of
    # the affine form misses it on about half of these)
    for r in (0.05, 0.07, 0.1, 0.13, 0.2, 0.3, 0.011, 0.0123):
        for lo, hi in ((0.0, 1.0), (0.3, 1.45), (-2.0, 5.5), (0.1, 0.9)):
            length = Fraction(hi) - Fraction(lo)
            want = 16 * (16 * Fraction(r) ** 4 * length - Fraction(98, 5) * Fraction(r) ** 5)
            got = chaos._exact_unit_integral(make_geometric_indicator(r),
                                             IntensitySpec([(lo, hi)]), (1, 1, 1, 1), (0b1111,))
            assert got == float(want), (r, lo, hi)


def test_exact_route_starts_at_b_plus_one_radii(monkeypatch):
    # r = 0.25 on the unit interval: L = 4r exactly, so the classes of at
    # most 3 blocks take the route and those of 4 blocks take Monte Carlo
    kernel = make_geometric_indicator(0.25)
    intensity = IntensitySpec(UNIT, t=10.0)
    routes = {len(masks): set() for _, masks in _m_classes()}
    for sizes, masks in _m_classes():
        exact = chaos._exact_unit_integral(kernel, intensity, sizes, masks)
        routes[len(masks)].add(exact is not None)
    assert routes == {1: {True}, 2: {True}, 3: {True}, 4: {False}}
    # the test is taken in rationals: at r = 0.2 the float 5 * 0.2 is 1.0,
    # but the rational 5r is above 1, so the 4-block classes are drawn
    assert 5 * 0.2 == 1.0
    wide = make_geometric_indicator(0.2)
    assert all((chaos._exact_unit_integral(wide, intensity, sizes, masks) is None)
               == (len(masks) == 4) for sizes, masks in _m_classes())
    # contraction_sum draws for the 4-block classes alone, with their stderr
    calls = []

    def counting(g, intensity, n, *args, **kwargs):
        calls.append(n)
        return mc_integral(g, intensity, n, *args, **kwargs)

    monkeypatch.setattr(chaos, "mc_integral", counting)
    out = chaos.contraction_sum(kernel, intensity, ((2, 2, 2, 2),), samples=2000,
                                rng=np.random.default_rng(3), name="M_22", exact=True)
    four = [((2, 2, 2, 2), masks, w) for masks, w in contraction_classes((2, 2, 2, 2))
            if len(masks) == 4]
    assert calls == [4] * len(four) and out.stderr > 0.0
    # the Monte Carlo classes draw as they would alone, in class order
    drawn = chaos._unit_integrals(kernel, IntensitySpec(UNIT), four, 2000,
                                  np.random.default_rng(3))
    var = sum((w * 10.0**4 * se) ** 2 for (_, _, w), (_, se, _) in zip(four, drawn))
    assert math.sqrt(var) == pytest.approx(out.stderr, rel=1e-12)


@pytest.mark.parametrize("seed, value, stderr", [
    (1, 40285.43040415771, 18.46538763177021),
    (2, 40279.18659025967, 18.380466878985384),
])
def test_variance_never_takes_the_exact_route(seed, value, stderr):
    # Var F keeps its Monte Carlo bytes (the values of the previous release)
    got = variance_from_kernels(make_geometric_indicator(0.05), IntensitySpec(UNIT, t=100.0),
                                rng=np.random.SeedSequence(seed, spawn_key=(0,)))
    assert (got.value, got.stderr) == (value, stderr)
