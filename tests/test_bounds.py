import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pustat.bounds import (
    bound_report,
    compute_Mij,
    dk_bound,
    dw_bound,
    estimate_Rij,
    estimate_stein_terms,
    fourth_moment_bound,
    MIN_HITS,
    UNRELIABLE_RATIO,
)
from pustat.chaos import MCValue, variance_from_kernels
from pustat import bounds, chaos, cli, kernels, ustat
from pustat.cli import _replicate_standardized
from pustat.kernels import (
    MarginalIntegration,
    make_constant,
    make_count,
    make_geometric_indicator,
)
from pustat.measure import IntensitySpec, NumericalError, mc_integral, sample_point_process
from pustat.partitions import contraction_classes
from pustat.ustat import evaluate

import oracles
from oracles import poisson_central_moment4, scale_kernel

UNIT = [(0.0, 1.0)]


def _short(r):
    """A 1-D box shorter than 2r, where every class of the distance
    indicator takes Monte Carlo."""
    return [(0.0, 1.75 * r)]


def _mc(value, stderr=0.0):
    return MCValue(value, stderr)


# ---------------------------------------------------------------------------
# M_ij
# ---------------------------------------------------------------------------


def test_m11_count_kernel_exact():
    # single partition, integrand == 1, one integration variable
    spec = IntensitySpec(UNIT, t=7.0)
    out = compute_Mij(make_count(), spec, 1, 1, samples=200)
    assert out == (7.0, 0.0)


def test_m_of_f_is_m_of_its_abs():
    # M_ij integrates the chaos kernels of |f|: -f gives the same bits as f
    spec = IntensitySpec(UNIT, t=5.0)
    indicator = make_geometric_indicator(0.2)
    for neg, pos in ((make_constant(-2.0, 2), make_constant(2.0, 2)),
                     (scale_kernel(indicator, -1.0), scale_kernel(indicator, 1.0))):
        for i, j in ((1, 1), (1, 2), (2, 2)):
            got, want = (compute_Mij(kern, spec, i, j, samples=500,
                                     rng=np.random.SeedSequence(3, spawn_key=(i, j)))
                         for kern in (neg, pos))
            assert got == want
            assert got.value > 0.0


def test_m11_geometric_analytic_oracle(rng):
    # single partition: M_11 = t * integral of (2 t seg(x))^4 dx with
    # seg(x) = |[x-r, x+r] cap [0,1]|; for r <= 1/2 the x-integral is
    # 16 r^4 - (98/5) r^5 (split at r and 1-r, integrate the quartics);
    # the class takes the exact route, so the stderr is 0
    t, r = 8.0, 0.2
    spec = IntensitySpec(UNIT, t=t)
    k = make_geometric_indicator(r)
    target = 16.0 * t**5 * (16.0 * r**4 - 98.0 / 5.0 * r**5)
    out = compute_Mij(k, spec, 1, 1, samples=400_000, rng=rng)
    assert out.stderr == 0.0
    assert out.value == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 20])
def test_distance_oracle_closed_forms(n):
    # the exact class oracle, summed over the classes of Var F and M_11,
    # gives their closed forms for r = 1/n, in every power of t
    r = Fraction(1, n)
    for t in (Fraction(1), Fraction(7, 3)):
        var_f = oracles.distance_contraction_exact(((1, 1), (2, 2)), n, t)
        assert var_f == 4 * t**3 * (4 * r**2 - Fraction(10, 3) * r**3) + 2 * t**2 * (2 * r - r**2)
        m11 = oracles.distance_contraction_exact(((1, 1, 1, 1),), n, t)
        assert m11 == 16 * t**5 * (16 * r**4 - Fraction(98, 5) * r**5)


def test_distance_oracle_ignores_block_order():
    # the blocks are exchangeable integration variables
    for sizes in ((1, 1, 2, 2), (2, 2, 2, 2)):
        for masks, _ in contraction_classes(sizes):
            values = {oracles.distance_class_exact(sizes, order, 3)
                      for order in itertools.permutations(masks)}
            assert len(values) == 1 and values.pop() > 0


def test_each_class_integral_within_errors_of_exact_oracle():
    # every class of Var F and the M_ij of the r = 1/20 indicator, integrated
    # at unit scale with 10^6 draws, lies within 4 stderr of its exact value
    # (max |z| = 2.17, at the 4-block class of (2, 2, 2, 2))
    kernel = make_geometric_indicator(0.05)
    classes = [(sizes, masks, w)
               for sizes in ((1, 1), (2, 2), (1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2))
               for masks, w in contraction_classes(sizes)]
    assert len(classes) == 20
    got = chaos._unit_integrals(kernel.absolute, IntensitySpec(UNIT), classes, 10**6,
                                np.random.default_rng(np.random.SeedSequence(16)))
    for (sizes, masks, _), (est, se, hits) in zip(classes, got):
        exact = float(oracles.distance_class_exact(sizes, masks, 20))
        assert se > 0.0 and hits > 0
        assert abs(est - exact) <= 4.0 * se, (sizes, masks)


def test_certificate_within_errors_of_exact_oracle():
    # r = 1/20 at t = 100 with the default draws: Var F lies within 4
    # stderr of its exact value (z = +0.11 at seed 1), and every M_ij,
    # integrated exactly, equals its exact value to rounding
    rep = bound_report(make_geometric_indicator(0.05), IntensitySpec(UNIT, t=100.0), seed=1)
    exact = float(oracles.distance_contraction_exact(((1, 1), (2, 2)), 20, 100))
    assert abs(rep.var_f.value - exact) <= 4.0 * rep.var_f.stderr
    for est, groups in (
        (rep.m[0][0], ((1, 1, 1, 1),)),
        (rep.m[0][1], ((1, 1, 2, 2),)),
        (rep.m[1][1], ((2, 2, 2, 2),)),
    ):
        exact = float(oracles.distance_contraction_exact(groups, 20, 100))
        assert est.stderr == 0.0
        assert est.value == pytest.approx(exact, rel=1e-12), groups
    # every class got enough nonzero draws for its stderr to hold
    assert rep.unreliable == ()
    assert not rep.var_f_unreliable


def test_error_bars_calibrated_over_seeds():
    # over seeds 1..20 at 20k draws, the z-scores of Var F and every M_ij
    # against their exact values look standard normal: at most 2 of the 80
    # beyond 3 and a sample sd in [0.75, 1.3] (1 beyond 3, max |z| = 3.02,
    # sd 1.02, mean 0.01)
    # R_12 and R_22, from the same class integrals, have a band of their
    # own: at most 1 of their 40 beyond 3 and a sample sd in [0.75, 1.3].
    # M_ij and R_ij take the Monte Carlo route on bound_report's streams:
    # the certificate integrates them exactly
    kernel = make_geometric_indicator(0.05)
    intensity = IntensitySpec(UNIT, t=100.0)
    cases = (((1, 1), (2, 2)), ((1, 1, 1, 1),), ((1, 1, 2, 2),), ((2, 2, 2, 2),))
    exact = [float(oracles.distance_contraction_exact(groups, 20, 100)) for groups in cases]
    exact_r = [float(_r_distance_exact(i, j, 20, 100)) for i, j in ((1, 2), (2, 2))]

    def _sum(seed, i, j, **weights):
        return chaos.contraction_sum(kernel, intensity, ((i, i, j, j),), samples=20_000,
                                     rng=np.random.SeedSequence(seed, spawn_key=(1, i, j)),
                                     name="z", exact=False, **weights)

    z, z_r = [], []
    for seed in range(1, 21):
        var_f = variance_from_kernels(kernel, intensity, mc_samples=20_000,
                                      rng=np.random.SeedSequence(seed, spawn_key=(0,)))
        for est, truth in zip((var_f, _sum(seed, 1, 1), _sum(seed, 1, 2), _sum(seed, 2, 2)),
                              exact):
            z.append((est.value - truth) / est.stderr)
        for (i, j), truth in zip(((1, 2), (2, 2)), exact_r):
            est = _sum(seed, i, j, weights=bounds._R_WEIGHTS[i, j])
            z_r.append((est.value - truth) / est.stderr)
    z = np.array(z)
    assert len(z) == 80
    assert np.count_nonzero(np.abs(z) > 3.0) <= 2
    assert 0.75 <= z.std(ddof=1) <= 1.3
    z_r = np.array(z_r)
    assert len(z_r) == 40
    assert np.count_nonzero(np.abs(z_r) > 3.0) <= 1
    assert 0.75 <= z_r.std(ddof=1) <= 1.3


def test_m_matrix_symmetric_within_errors(rng):
    # on one shared stream, (i, j) and (j, i) draw different samples and
    # agree within their errors; a box shorter than 2r keeps every class on
    # Monte Carlo
    spec = IntensitySpec(_short(0.2), t=8.0)
    k = make_geometric_indicator(0.2)
    for i, j in ((1, 2), (2, 2)):
        a = compute_Mij(k, spec, i, j, samples=100_000, rng=rng)
        b = compute_Mij(k, spec, j, i, samples=100_000, rng=rng)
        assert abs(a.value - b.value) <= 4.0 * math.hypot(a.stderr, b.stderr)
    # M_ij = M_ji exactly: (i, j) and (j, i) run the same class integrals,
    # on the same default stream or on equal explicit streams
    a = compute_Mij(k, spec, 1, 2, samples=20_000)
    b = compute_Mij(k, spec, 2, 1, samples=20_000)
    assert a == b and a.stderr > 0.0
    a = compute_Mij(k, spec, 1, 2, samples=20_000, rng=np.random.default_rng(5))
    b = compute_Mij(k, spec, 2, 1, samples=20_000, rng=np.random.default_rng(5))
    assert a == b
    rep = bound_report(k, spec, seed=2, mc_samples=5000)
    assert rep.m[0][1] == rep.m[1][0]
    assert rep.to_dict()["m"][0][1] == rep.to_dict()["m"][1][0]
    # on the unit box M_12 (at most 3 blocks, 4r <= 1) is exact
    unit = IntensitySpec(UNIT, t=8.0)
    a = compute_Mij(k, unit, 1, 2, samples=20_000)
    assert a == compute_Mij(k, unit, 2, 1, samples=20_000, rng=rng) and a.stderr == 0.0


@pytest.mark.parametrize("order", [3, 4])
def test_m_constant_kernel_exact_high_order(order):
    # every factor is the constant C(k,i) c m^{k-i}, so a class with |c|
    # blocks integrates to m^{|c|} times the product; c = 1.5 and m = 2 keep
    # every product and sum exact in binary, so the stderr is exactly 0
    from pustat.kernels import make_constant
    from pustat.partitions import contraction_classes

    c = 1.5
    spec = IntensitySpec(UNIT, t=2.0)
    mass = spec.total_mass
    rep = bound_report(make_constant(c, order), spec, seed=1, mc_samples=1000)
    for i in range(1, order + 1):
        for j in range(1, order + 1):
            fi = math.comb(order, i) * c * mass ** (order - i)
            fj = math.comb(order, j) * c * mass ** (order - j)
            classes = contraction_classes(tuple(sorted((i, i, j, j))))
            target = sum(w * mass ** len(masks) for masks, w in classes) * fi**2 * fj**2
            got = rep.m[i - 1][j - 1]
            assert got.value == pytest.approx(target, rel=1e-12)
            assert got.stderr == 0.0
    assert rep.unreliable == ()


def test_m_scales_as_t_to_the_fifth():
    # M_11 of the distance indicator has one class with one block, and its
    # factors are t * (marginal at t = 1): M_11(t) = t^5 M_11(1) on one stream
    k = make_geometric_indicator(0.1)
    for stream in (lambda: np.random.SeedSequence(3, spawn_key=(9,)),
                   lambda: np.random.default_rng(3)):
        a = compute_Mij(k, IntensitySpec(_short(0.1), t=100.0), 1, 1, samples=5000, rng=stream())
        b = compute_Mij(k, IntensitySpec(_short(0.1), t=200.0), 1, 1, samples=5000, rng=stream())
        assert b.value / a.value == pytest.approx(2.0**5, rel=1e-14)
        assert b.stderr / a.stderr == pytest.approx(2.0**5, rel=1e-14)
        # the exact route on the unit box scales the same way
        a = compute_Mij(k, IntensitySpec(UNIT, t=100.0), 1, 1, samples=5000, rng=stream())
        b = compute_Mij(k, IntensitySpec(UNIT, t=200.0), 1, 1, samples=5000, rng=stream())
        assert b.value / a.value == pytest.approx(2.0**5, rel=1e-14)
        assert a.stderr == b.stderr == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_m_matches_class_integrals_at_t(monkeypatch, dim):
    # the unit-scale integrals, rescaled (and, after the first t, read from
    # the cache), agree with every class integrated at the actual t; in 2-D
    # the first marginal takes the Monte Carlo fallback, and the 1-D box is
    # shorter than 2r, so that no class takes the exact route
    k = make_geometric_indicator(0.15)
    monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=300))
    box = _short(0.15) if dim == 1 else [(0.0, 1.0)] * dim
    for t in (50.0, 100.0, 200.0):
        spec = IntensitySpec(box, t=t)
        for i, j in ((1, 1), (1, 2), (2, 2)):
            got = compute_Mij(k, spec, i, j, samples=2000,
                              rng=np.random.SeedSequence(8, spawn_key=(i, j)))
            want = oracles.mij_at_t(k, spec, i, j, 2000, np.random.default_rng(
                np.random.SeedSequence(8, spawn_key=(i, j))))
            assert got.value == pytest.approx(want[0], rel=1e-12)
            assert got.stderr == pytest.approx(want[1], rel=1e-12)
            assert got.stderr > 0.0
        if dim == 1:  # on the unit box every class is exact
            m11 = compute_Mij(k, IntensitySpec(UNIT, t=t), 1, 1, samples=2000)
            r = 0.15
            assert m11.value == pytest.approx(16 * t**5 * (16 * r**4 - 98 / 5 * r**5), rel=1e-12)
            assert all(compute_Mij(k, IntensitySpec(UNIT, t=t), i, j, samples=2000).stderr == 0.0
                       for i, j in ((1, 1), (1, 2), (2, 2)))


def _count_class_integrals(monkeypatch):
    """Record each class integral that compute_Mij or Var F runs; returns
    the record."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return mc_integral(*args, **kwargs)

    monkeypatch.setattr(chaos, "mc_integral", counting)
    return calls


def test_m_cache_hits_only_on_equal_inputs(monkeypatch):
    # a box shorter than 2r keeps every class on Monte Carlo
    calls = _count_class_integrals(monkeypatch)
    k = make_geometric_indicator(0.1)
    spec = IntensitySpec(_short(0.1), t=20.0)
    n_classes = len(contraction_classes((1, 1, 2, 2)))

    def run(kern=k, intensity=spec, seed=4, samples=2000):
        before = len(calls)
        out = compute_Mij(kern, intensity, 1, 2, samples=samples,
                          rng=np.random.SeedSequence(seed, spawn_key=(1, 1, 2)))
        return out, len(calls) - before

    assert run()[1] == n_classes
    assert run()[1] == 0
    assert run(seed=np.int64(4))[1] == 0
    # another t on the same stream rescales, and gives what a fresh kernel
    # integrates at that t
    t40 = IntensitySpec(_short(0.1), t=40.0)
    hit, ran = run(intensity=t40)
    assert ran == 0
    assert hit == run(kern=make_geometric_indicator(0.1), intensity=t40)[0]
    for change in (
        {"intensity": IntensitySpec([(0.0, 0.19)], t=20.0)},
        {"seed": 5},
        {"samples": 3000},
        {"kern": make_geometric_indicator(0.1)},
        {"kern": make_geometric_indicator(0.2)},
    ):
        assert run(**change)[1] == n_classes, change
    # the fallback's draws are part of the key, read at call time
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=500))
        assert run()[1] == n_classes
    # the default stream is a value too, the same for (1, 2) and (2, 1)
    before = len(calls)
    compute_Mij(k, spec, 2, 1, samples=2000)
    default_t40 = compute_Mij(k, t40, 1, 2, samples=2000)
    assert len(calls) - before == n_classes
    assert default_t40 == compute_Mij(make_geometric_indicator(0.1), t40, 1, 2, samples=2000)
    # on the unit box the exact route draws nothing and is cached too; an
    # exact and a Monte Carlo call on equal streams keep separate entries
    before = len(calls)
    unit = IntensitySpec(UNIT, t=20.0)
    exact = run(intensity=unit)[0]
    assert run(intensity=unit)[0] == exact and exact.stderr == 0.0
    assert len(calls) == before
    drawn = chaos.contraction_sum(k, unit, ((1, 1, 2, 2),), samples=2000, name="M_12",
                                  rng=np.random.SeedSequence(4, spawn_key=(1, 1, 2)))
    assert len(calls) - before == n_classes and drawn.stderr > 0.0


def test_m_overflowing_scale_is_a_numerical_error():
    # t^p beyond the float range (t^5 for M_11 at t=1e80) exits 3, not with
    # a Python OverflowError, also when the unit-scale integrals are cached
    k = make_geometric_indicator(0.1)
    compute_Mij(k, IntensitySpec(UNIT, t=20.0), 1, 1, samples=200)
    for t in (1e80, 1e200):
        with pytest.raises(NumericalError, match="non-finite M_11"):
            compute_Mij(k, IntensitySpec(UNIT, t=t), 1, 1, samples=200)


def test_m_generators_are_not_cached(monkeypatch):
    # a Generator's state is not a value: each call draws afresh from it
    # (a box shorter than 2r keeps every class on Monte Carlo)
    calls = _count_class_integrals(monkeypatch)
    k = make_geometric_indicator(0.1)
    spec = IntensitySpec(_short(0.1), t=20.0)
    a = compute_Mij(k, spec, 1, 2, samples=2000, rng=np.random.default_rng(1))
    b = compute_Mij(k, spec, 1, 2, samples=2000, rng=np.random.default_rng(1))
    c = compute_Mij(k, spec, 1, 2, samples=2000, rng=np.random.default_rng(2))
    assert len(calls) == 3 * len(contraction_classes((1, 1, 2, 2)))
    assert a == b
    assert a != c
    # on the unit box every class is exact, and the Generator is not drawn
    gen = np.random.default_rng(1)
    assert compute_Mij(k, IntensitySpec(UNIT, t=20.0), 1, 2, samples=2000, rng=gen).stderr == 0.0
    assert len(calls) == 3 * len(contraction_classes((1, 1, 2, 2)))
    assert gen.random() == np.random.default_rng(1).random()


def test_experiment_integrates_each_class_once(tmp_path, capsys, monkeypatch):
    # an experiment over three t runs the Monte Carlo class integrals of
    # one: Var F's two (orders 1 and 2)
    calls = _count_class_integrals(monkeypatch)
    counts = []
    for t_values in ([50, 100, 200], [100]):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kernel": {"name": "geometric_indicator", "r": 0.05}, "t_values": t_values,
            "seed": 3, "reps": 50, "mc_samples": 2000, "stein_terms": False,
        }))
        before = len(calls)
        assert cli.main(["experiment", str(path)]) == 0
        counts.append(len(calls) - before)
        assert len(capsys.readouterr().out.splitlines()) == 1 + len(t_values)
    # the M_ij classes take the exact route: only Var F's two draw
    assert counts == [2, 2]


def test_m_order_cap():
    from pustat.kernels import make_constant

    spec = IntensitySpec(UNIT, t=1.0)
    with pytest.raises(ValueError, match="capped"):
        compute_Mij(make_constant(1.0, 5), spec, 1, 1, samples=10)
    with pytest.raises(ValueError, match="capped"):
        bound_report(make_constant(1.0, 5), spec, seed=1, mc_samples=10)


def test_m_nonnegative(rng):
    spec = IntensitySpec(UNIT, t=5.0)
    k = make_geometric_indicator(0.1)
    for i, j in ((1, 1), (1, 2), (2, 2)):
        out = compute_Mij(k, spec, i, j, samples=20_000, rng=rng)
        assert out.value >= -4.0 * out.stderr  # integrand is nonnegative


def test_m_index_guard():
    spec = IntensitySpec(UNIT, t=1.0)
    with pytest.raises(ValueError):
        compute_Mij(make_count(), spec, 1, 2, samples=10)


# ---------------------------------------------------------------------------
# bound values
# ---------------------------------------------------------------------------


def test_dk_bound_count_closed_form():
    for t in (1.0, 25.0, 400.0):
        m = [[_mc(t)]]
        out = dk_bound(m, _mc(t), 1)
        assert abs(out.value - 19.0 / math.sqrt(t)) <= 1e-12 * out.value
    assert dk_bound([[_mc(400.0)]], _mc(400.0), 1).value == pytest.approx(0.95, abs=1e-15)
    rep = bound_report(make_count(), IntensitySpec(UNIT, t=1.0), seed=1, mc_samples=500)
    assert rep.to_dict()["dk_bound_effective"] == 1.0  # raw 19 clips at 1


def test_dw_bound_count_closed_form():
    for t in (1.0, 9.0, 400.0):
        out = dw_bound([[_mc(t)]], _mc(t), 1)
        assert abs(out.value - 2.0 / math.sqrt(t)) <= 1e-12 * out.value
    dk = dk_bound([[_mc(4.0)]], _mc(4.0), 1)
    dw = dw_bound([[_mc(4.0)]], _mc(4.0), 1)
    assert dk.value / dw.value == pytest.approx(9.5, rel=1e-13)
    assert dk.value >= 0.0 and dw.value >= 0.0


def test_bounds_read_the_upper_triangle():
    # M_21 is the same estimate as M_12: the lower triangle is never read,
    # and the off-diagonal entry enters the full double sums with weight 2,
    # stderr included
    m = [[_mc(4.0), _mc(9.0, 0.3)], [_mc(1e9, 1e9), _mc(16.0)]]
    var = _mc(1.0)
    dk = dk_bound(m, var, 2)
    assert dk.value == pytest.approx(19.0 * 32 * (2.0 + 2 * 3.0 + 4.0), rel=1e-14)
    assert dk.stderr == pytest.approx(19.0 * 32 * 2 * 0.3 / 6.0, rel=1e-14)
    dw = dw_bound(m, var, 2)
    assert dw.value == pytest.approx(2.0 * 2**3.5 * (2.0 + 3.0 + 4.0), rel=1e-14)
    assert dw.stderr == pytest.approx(2.0 * 2**3.5 * 0.3 / 6.0, rel=1e-14)
    fm = fourth_moment_bound(m, var, 2)
    assert fm.value == pytest.approx(4 * (4.0 + 2 * 9.0 + 16.0) + 12.0, rel=1e-14)
    assert fm.stderr == pytest.approx(4 * 2 * 0.3, rel=1e-14)


def test_bounds_require_positive_variance():
    with pytest.raises(ValueError):
        dk_bound([[_mc(1.0)]], _mc(0.0), 1)
    with pytest.raises(ValueError):
        dw_bound([[_mc(1.0)]], _mc(-2.0), 1)


def test_bound_invariant_under_kernel_scaling():
    # f -> c f multiplies M by c^4 and Var by c^2: the ratio is unchanged;
    # identical streams make the comparison exact up to float rounding.
    # scale_kernel drops pair_radius, so a box shorter than 2r keeps the
    # base kernel on the same Monte Carlo route as the scaled ones
    spec = IntensitySpec(_short(0.15), t=6.0)
    base = make_geometric_indicator(0.15)
    vals = {}
    for name, kern in (("base", base), (3.0, scale_kernel(base, 3.0)),
                       (-3.0, scale_kernel(base, -3.0))):
        m = [
            [
                compute_Mij(kern, spec, i, j, samples=20_000,
                            rng=np.random.default_rng(1000 + 10 * i + j))
                for j in (1, 2)
            ]
            for i in (1, 2)
        ]
        var = variance_from_kernels(kern, spec, mc_samples=20_000,
                                    rng=np.random.default_rng(77))
        vals[name] = dk_bound(m, _mc(var.value, var.stderr), 2).value
    assert vals[3.0] == pytest.approx(vals["base"], rel=1e-9)
    assert vals[-3.0] == pytest.approx(vals["base"], rel=1e-9)
    # on the unit box the base kernel's M_ij are exact
    unit = IntensitySpec(UNIT, t=6.0)
    assert all(compute_Mij(base, unit, i, j, samples=20_000).stderr == 0.0
               for i, j in ((1, 1), (1, 2), (2, 2)))


def test_bound_rate_exact_for_count():
    # sqrt(t) * dk_bound is exactly 19 for every t
    for t in (3.0, 50.0, 1234.5):
        out = dk_bound([[_mc(t)]], _mc(t), 1)
        assert abs(math.sqrt(t) * out.value - 19.0) <= 1e-12 * 19.0


# ---------------------------------------------------------------------------
# fourth moment
# ---------------------------------------------------------------------------


def test_fourth_moment_count_equality():
    # k=1, f >= 0: the bound t + 3t^2 IS the Poisson central fourth moment
    for t in (2.0, 9.0, 50.0):
        out = fourth_moment_bound([[_mc(t)]], _mc(t), 1)
        assert out.value == pytest.approx(poisson_central_moment4(t), rel=1e-14)


def test_fourth_moment_dominates_lower_bound(rng):
    spec = IntensitySpec(UNIT, t=6.0)
    k = make_geometric_indicator(0.2)
    m = [
        [compute_Mij(k, spec, i, j, samples=30_000, rng=rng) for j in (1, 2)]
        for i in (1, 2)
    ]
    var = variance_from_kernels(k, spec, mc_samples=50_000, rng=rng)
    out = fourth_moment_bound(m, _mc(var.value, var.stderr), 2)
    assert out.value >= 3.0 * 4 * var.value**2 - 4.0 * out.stderr


def test_fourth_moment_bounds_empirical_moment(rng):
    # Monte Carlo oracle: the empirical centred fourth moment stays below the bound
    spec = IntensitySpec(UNIT, t=6.0)
    k = make_geometric_indicator(0.2)
    m = [
        [compute_Mij(k, spec, i, j, samples=100_000, rng=rng) for j in (1, 2)]
        for i in (1, 2)
    ]
    var = variance_from_kernels(k, spec, mc_samples=100_000, rng=rng)
    bound = fourth_moment_bound(m, _mc(var.value, var.stderr), 2)
    reps = 10_000
    vals = np.empty(reps)
    for rep in range(reps):
        vals[rep] = evaluate(k, sample_point_process(spec, rng))
    centred = vals - vals.mean()
    m4 = float(np.mean(centred**4))
    se_m4 = float(np.std(centred**4, ddof=1)) / math.sqrt(reps)
    assert m4 <= bound.value + 4.0 * (se_m4 + bound.stderr)


# ---------------------------------------------------------------------------
# R_ij
# ---------------------------------------------------------------------------


def test_r11_count_kernel_zero(rng):
    # I_0(f_1(z)) = f_1(z) does not depend on the configuration: R_11 sums
    # no class and is exactly 0, for the count and the distance indicator
    spec = IntensitySpec(UNIT, t=9.0)
    assert estimate_Rij(make_count(), spec, 1, 1, samples=2000, rng=rng) == (0.0, 0.0)
    rep = bound_report(make_geometric_indicator(0.05), spec, seed=1, mc_samples=2000,
                       with_rij=True)
    assert rep.r[0][0] == (0.0, 0.0)


def test_r_below_m(rng):
    spec = IntensitySpec(UNIT, t=8.0)
    k = make_geometric_indicator(0.2)
    for i, j in ((1, 1), (1, 2), (2, 2)):
        r = estimate_Rij(k, spec, i, j, samples=50_000, rng=rng)
        m = compute_Mij(k, spec, i, j, samples=50_000, rng=rng)
        assert r.value <= m.value + 4.0 * (r.stderr + m.stderr)
        assert r.value >= -4.0 * r.stderr


def test_r_order_guard(rng):
    from pustat.kernels import make_constant

    spec = IntensitySpec(UNIT, t=1.0)
    with pytest.raises(ValueError):
        estimate_Rij(make_constant(1.0, 3), spec, 1, 1, rng=rng)


def _r_distance_exact(i, j, n, t):
    """R_ij of the distance indicator with r = 1/n on [0, 1] at intensity t,
    from the exact class integrals of the oracle."""
    sizes = (i, i, j, j)
    return sum(w * oracles.distance_class_exact(sizes, masks, n)
               * Fraction(t) ** (len(masks) + sum(2 - s for s in sizes))
               for masks, w in bounds._R_WEIGHTS[i, j].items())


def test_r_distance_indicator_exact():
    # R_12 = 3,732,500 and R_22 = 137,083.33 at t = 100, r = 0.05
    assert _r_distance_exact(1, 2, 20, 100) == 3_732_500
    assert float(_r_distance_exact(2, 2, 20, 100)) == pytest.approx(137_083.33, abs=0.01)
    rep = bound_report(make_geometric_indicator(0.05), IntensitySpec(UNIT, t=100.0), seed=1,
                       with_rij=True)
    for i, j in ((1, 2), (2, 2)):
        r = rep.r[i - 1][j - 1]
        assert r.stderr == 0.0
        assert r.value == pytest.approx(float(_r_distance_exact(i, j, 20, 100)), rel=1e-12)


@pytest.mark.parametrize("c", [1.5, -2.0])
def test_r_constant_kernel_closed_forms(c):
    # f_1 = 2 c lam and f_2 = c, lam = t |box|: R_12 = 4 c^4 lam^5 and
    # R_22 = 2 c^4 lam^4 + c^4 lam^3, exact in binary
    spec = IntensitySpec(UNIT, t=2.0)
    lam = spec.total_mass
    rep = bound_report(make_constant(c, 2), spec, seed=1, mc_samples=1000, with_rij=True)
    for (i, j), target in (((1, 2), 4 * c**4 * lam**5),
                           ((2, 2), 2 * c**4 * lam**4 + c**4 * lam**3)):
        got = rep.r[i - 1][j - 1]
        assert got.value == pytest.approx(target, rel=1e-12)
        assert got.stderr == 0.0


def test_r_integrates_f_not_its_absolute_value():
    # f(x, y) = g(x) g(y), g(x) = x - 1/4 on [0, 1]: R_12 = 4 t^5 m1^2 m2^3
    # with m1 the integral of g (1/4) and m2 that of g^2 (7/48); |f| has
    # m1 = 5/16
    from pustat.kernels import make_product

    t = 10.0
    kernel = make_product(lambda p: p[:, 0] - 0.25, 2, base_integral=0.25,
                          abs_base_integral=5.0 / 16.0)
    r12 = estimate_Rij(kernel, IntensitySpec(UNIT, t=t), 1, 2, samples=100_000)
    of_f, of_abs = (4 * t**5 * m1**2 * (7 / 48) ** 3 for m1 in (0.25, 5 / 16))
    assert abs(r12.value - of_f) <= 4.0 * r12.stderr
    assert abs(r12.value - of_abs) > 20.0 * r12.stderr


def test_r_reads_the_classes_of_m(monkeypatch):
    # f >= 0: R_ij sums classes that M_ij integrated on the same stream,
    # so --rij runs no integral, and R_ij <= M_ij holds term by term
    calls = _count_class_integrals(monkeypatch)
    spec = IntensitySpec(UNIT, t=100.0)
    counts, reports = [], []
    for with_rij in (False, True):
        before = len(calls)
        reports.append(bound_report(make_geometric_indicator(0.05), spec, seed=4,
                                    mc_samples=5000, with_rij=with_rij))
        counts.append(len(calls) - before)
    assert counts[1] == counts[0] > 0
    rep = reports[1]
    for i in range(2):
        for j in range(2):
            assert rep.r[i][j].value <= rep.m[i][j].value


def test_r_matrix_symmetric():
    # a box shorter than 2r keeps every class on Monte Carlo; on the unit
    # box R is exact
    for box, drawn in ((_short(0.1), True), (UNIT, False)):
        spec = IntensitySpec(box, t=20.0)
        rep = bound_report(make_geometric_indicator(0.1), spec, seed=5, mc_samples=2000,
                           with_rij=True, reps=100)
        assert rep.r[0][1] == rep.r[1][0]
        assert (rep.r[0][1].stderr > 0.0) == drawn
        r = rep.to_dict()["r"]
        assert r[0][1] == r[1][0]


def test_z_samples_must_be_positive(rng):
    spec = IntensitySpec(UNIT, t=5.0)
    k = make_geometric_indicator(0.2)
    with pytest.raises(ValueError, match="z_samples"):
        estimate_stein_terms(k, spec, reps=10, z_samples=0, rng=rng, var_f=_mc(1.0))


def test_bound_report_checks_replication_args_first(monkeypatch):
    def _no_integrals(*args, **kwargs):
        raise AssertionError("an integral ran before the arguments were checked")

    monkeypatch.setattr(bounds, "variance_from_kernels", _no_integrals)
    monkeypatch.setattr(bounds, "compute_Mij", _no_integrals)
    spec = IntensitySpec(UNIT, t=100.0)
    k = make_geometric_indicator(0.05)
    with pytest.raises(ValueError, match="z_samples"):
        bound_report(k, spec, seed=1, with_stein_terms=True, z_samples=0)
    with pytest.raises(ValueError, match="reps"):
        bound_report(k, spec, seed=1, with_stein_terms=True, reps=1)
    with pytest.raises(ValueError, match="order <= 2"):
        bound_report(make_constant(1.0, 3), spec, seed=1, with_rij=True)


def test_bound_report_refuses_var_f_before_any_mij(monkeypatch, capsys):
    # Var F <= 0 (f = 0, or no points at t = 0) is refused before the M_ij
    # and the Stein terms, with dk_bound's message; the CLI exits 2
    def _no_integrals(*args, **kwargs):
        raise AssertionError("a bound integral ran after Var F <= 0")

    monkeypatch.setattr(bounds, "compute_Mij", _no_integrals)
    monkeypatch.setattr(bounds, "estimate_stein_terms", _no_integrals)
    zero = make_constant(0.0, 4)
    for with_stein_terms in (False, True):
        with pytest.raises(ValueError, match="^Var F must be positive$"):
            bound_report(zero, IntensitySpec(UNIT, t=5.0), seed=1,
                         with_stein_terms=with_stein_terms)
    with pytest.raises(ValueError, match="^Var F must be positive$"):
        bound_report(make_geometric_indicator(0.05), IntensitySpec(UNIT * 2, t=0.0), seed=1)
    argv = ["bound", "--kernel", "constant", "--c", "0", "--k", "4", "--t", "5", "--seed", "1"]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: Var F must be positive\n"


# ---------------------------------------------------------------------------
# Malliavin--Stein terms
# ---------------------------------------------------------------------------


def test_stein_terms_count_kernel(rng):
    # standardized Poisson: <DG, -DL^{-1}G> = 1 exactly, so T1 = 0; the
    # second inner product is 1/t; E G^4 approaches 3 + 1/t
    t = 25.0
    spec = IntensitySpec(UNIT, t=t)
    th = estimate_stein_terms(
        make_count(), spec, reps=4000, z_samples=64, rng=rng, var_f=_mc(t)
    )
    assert abs(th.t1.value) <= 3.0 * th.t1.stderr + 1e-12
    assert abs(th.t2.value - 1.0 / t) <= 4.0 * th.t2.stderr + 1e-12
    assert abs(th.g4.value - (3.0 + 1.0 / t)) <= 4.0 * th.g4.stderr
    assert abs(th.dg2_dg2.value - 1.0 / t) <= 4.0 * th.dg2_dg2.stderr + 1e-12
    assert abs(th.dgdg_sq.value - 1.0) <= 4.0 * th.dgdg_sq.stderr + 1e-12
    assert th.sup_term.value >= 0.0
    assert th.c_f.value > 0.0


def test_stein_terms_geometric_integration_by_parts(rng):
    # E<DG, -DL^{-1}G> = E G^2 = 1 for the standardized statistic: a
    # simulation cross-check of the difference and inverse-generator paths
    spec = IntensitySpec(UNIT, t=12.0)
    k = make_geometric_indicator(0.1)
    var = variance_from_kernels(k, spec, mc_samples=200_000, rng=rng)
    th = estimate_stein_terms(k, spec, reps=4000, z_samples=256, rng=rng,
                              var_f=_mc(var.value, var.stderr))
    assert abs(th.inner_mean.value - 1.0) <= 4.0 * (th.inner_mean.stderr + var.stderr / var.value)


def test_stein_terms_count_sup_dominated(rng):
    # for the count kernel the supremum term is at most 1/sqrt(t)
    t = 25.0
    spec = IntensitySpec(UNIT, t=t)
    th = estimate_stein_terms(make_count(), spec, reps=3000, z_samples=64,
                              rng=rng, var_f=_mc(t))
    assert th.sup_term.value <= 1.0 / math.sqrt(t) + 4.0 * th.sup_term.stderr


def _sup_draws(monkeypatch, kernel, t, reps, z_samples, seed):
    """estimate_stein_terms's result and the draws of its sup term: each
    replication's G, its G + D_z G and the oracle's weights c."""
    seen = []
    real = bounds._rows_at_step_sup

    def spy(pos, wt, n):
        seen.append((pos.copy(), wt.copy()))
        return real(pos, wt, n)

    monkeypatch.setattr(bounds, "_rows_at_step_sup", spy)
    spec = IntensitySpec(UNIT, t=t)
    if kernel.order == 1:
        var = _mc(t)
    else:
        # Var F from the first of two streams split off the seed
        var = variance_from_kernels(kernel, spec, rng=np.random.default_rng(seed).spawn(2)[0])
    th = estimate_stein_terms(kernel, spec, reps=reps, z_samples=z_samples,
                              rng=np.random.default_rng(seed), var_f=var)
    (pos, wt), = seen
    top = pos[reps:].reshape(reps, z_samples)
    c = -spec.total_mass / z_samples * wt[reps:].reshape(reps, z_samples)
    return th, pos[:reps], top, c


@pytest.mark.parametrize("reps, z_samples", [(3, 2), (7, 5), (40, 16)])
@pytest.mark.parametrize("name", ["distance", "count"])
def test_stein_sup_is_the_brute_force_maximum(monkeypatch, name, reps, z_samples):
    # the sweep's sup term is the largest value of the sample function over
    # every breakpoint and just below each one, and at least the old
    # 41-point grid's maximum on the same draws
    kernel = make_geometric_indicator(0.1) if name == "distance" else make_count()
    for seed in range(4):
        th, g, top, c = _sup_draws(monkeypatch, kernel, 12.0, reps, z_samples, seed)
        exact = oracles.stein_sup_brute_force(g, top, c)
        assert th.sup_term.value == pytest.approx(exact, rel=1e-12, abs=1e-300)
        grid = oracles.stein_sup_sample(g, top, c, np.linspace(-4.0, 4.0, 41)).max()
        assert th.sup_term.value >= grid - 1e-15


def test_stein_sup_count_kernel_ties(monkeypatch):
    # D_z G = 1/sigma for every z and G is shared by a replication's z, so
    # every breakpoint ties with many others; at t = 4, G = (N - 4)/2 and
    # G + 1/2 are exact, so rises at one replication's G tie with falls at
    # another's G + D_z G.  The value is the oracle's
    t, reps, z_samples = 4.0, 60, 8
    th, g, top, c = _sup_draws(monkeypatch, make_count(), t, reps, z_samples, 5)
    assert np.all(top - g[:, None] == 0.5)
    assert np.allclose(c, 1.0 / z_samples, rtol=1e-12)  # mass t times 1/sigma^2
    points = np.concatenate([g, top.ravel()])
    assert len(np.unique(points)) < len(points) / 4
    assert len(np.intersect1d(g, top)) > 1
    assert th.sup_term.value > 0.0
    assert th.sup_term.value == pytest.approx(oracles.stein_sup_brute_force(g, top, c), rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_step_sup_with_mixed_weights_and_ties(seed):
    # integer breakpoints tie often, and weights of either sign put rises
    # and falls in the same tie group
    rng = np.random.default_rng(seed)
    reps, z = 30, 6
    g = rng.integers(-5, 5, reps).astype(float)
    top = g[:, None] + rng.integers(-3, 4, (reps, z))
    c = rng.normal(size=(reps, z))
    pos = np.concatenate([g, top.ravel()])
    wt = np.concatenate([c.sum(axis=1), -c.ravel()])
    rows = bounds._rows_at_step_sup(pos, wt, reps)
    exact = oracles.stein_sup_brute_force(g, top, c)
    assert rows.mean() == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_stein_sup_of_an_all_negative_function_is_zero():
    # below every breakpoint the function is 0, which bounds the sup below
    g = np.array([0.0, 1.0])
    top = g[:, None] + np.array([[1.0], [2.0]])
    c = -np.ones((2, 1))
    pos = np.concatenate([g, top.ravel()])
    wt = np.concatenate([c.sum(axis=1), -c.ravel()])
    assert not np.any(bounds._rows_at_step_sup(pos, wt, 2))
    assert oracles.stein_sup_brute_force(g, top, c) == 0.0


@st.composite
def _step_functions(draw):
    """(g, top, c) of a sup term's sample function: integer breakpoints in a
    range of ``spread`` + 1 values, so that ties are frequent within and
    across replications, and weights of both signs, or signs that make the
    function negative at every s where it is not 0."""
    reps, z = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    spread = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.integers(0, spread + 1, reps).astype(float)
    top = rng.integers(0, spread + 1, (reps, z)).astype(float)
    c = rng.normal(size=(reps, z))
    if draw(st.booleans()):
        # c(1(top > s) - 1(g > s)) is c on [g, top) and -c on [top, g)
        c = -np.abs(c) * np.where(top >= g[:, None], 1.0, -1.0)
    return g, top, c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_step_functions())
def test_step_sup_matches_brute_force_property(case):
    # the running sum is read at the last index of each tie group; a tie
    # group's order does not matter.  The absolute slack covers the rounding
    # of sums of at most 40 * 9 unit-scale weights where the sup is 0
    g, top, c = case
    reps = len(g)
    pos = np.concatenate([g, top.ravel()])
    wt = np.concatenate([c.sum(axis=1), -c.ravel()])
    exact = oracles.stein_sup_brute_force(g, top, c)
    assert bounds._rows_at_step_sup(pos, wt, reps).mean() == pytest.approx(
        exact, rel=1e-12, abs=1e-14)


def test_mean_matches_full_integral(rng):
    # E F is the integral of f against mu_t^k
    spec = IntensitySpec(UNIT, t=10.0)
    k = make_geometric_indicator(0.1)
    target = k.full_integral(spec)
    reps = 10_000
    vals = np.empty(reps)
    for rep in range(reps):
        vals[rep] = evaluate(k, sample_point_process(spec, rng))
    se = float(vals.std(ddof=1)) / math.sqrt(reps)
    assert abs(vals.mean() - target) <= 4.0 * se


def test_stein_terms_require_positive_variance(rng):
    spec = IntensitySpec(UNIT, t=1.0)
    with pytest.raises(ValueError):
        estimate_stein_terms(make_count(), spec, reps=10, z_samples=8, rng=rng,
                                var_f=_mc(0.0))


def test_fourth_moment_remark(rng):
    # nonnegative kernels: M_ij / Var^2 <= E G^4 - 3, up to combined noise
    t = 8.0
    spec = IntensitySpec(UNIT, t=t)
    k = make_geometric_indicator(0.2)
    var = variance_from_kernels(k, spec, mc_samples=100_000, rng=rng)
    th = estimate_stein_terms(k, spec, reps=4000, z_samples=64, rng=rng,
                                 var_f=_mc(var.value, var.stderr))
    excess = th.g4.value - 3.0
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        m = compute_Mij(k, spec, i, j, samples=100_000, rng=rng)
        ratio = m.value / var.value**2
        assert ratio <= excess + 4.0 * (th.g4.stderr + m.stderr / var.value**2)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def test_two_dimensional_mc_fallback(monkeypatch, rng):
    # no analytic marginals in 2-D: variance and M flow through the nested
    # Monte Carlo with independent inner draws, and stay consistent with a
    # direct replication estimate
    spec = IntensitySpec([(0.0, 1.0), (0.0, 1.0)], t=30.0)
    k = make_geometric_indicator(0.15)
    monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=2000))
    res = variance_from_kernels(k, spec, mc_samples=20_000, rng=rng)

    reps = 3000
    vals = np.empty(reps)
    for rep in range(reps):
        vals[rep] = evaluate(k, sample_point_process(spec, rng))
    s2 = float(vals.var(ddof=1))
    centred = vals - vals.mean()
    m4 = float(np.mean(centred**4))
    se_s2 = math.sqrt(max(m4 - s2 * s2 * (reps - 3) / (reps - 1), 0.0) / reps)
    assert abs(s2 - res.value) <= 4.0 * (se_s2 + res.stderr)

    m11 = compute_Mij(k, spec, 1, 1, samples=4000, rng=rng)
    assert m11.value > 0.0
    assert m11.stderr < 0.5 * m11.value


def test_bound_report_schema_and_reproducibility():
    spec = IntensitySpec(UNIT, t=20.0)
    k = make_geometric_indicator(0.1)
    a = bound_report(k, spec, seed=11, mc_samples=5000,
                     with_rij=True, with_stein_terms=True, reps=100, z_samples=16)
    spec_b = IntensitySpec(UNIT, t=20.0)
    b = bound_report(k, spec_b, seed=11, mc_samples=5000,
                     with_rij=True, with_stein_terms=True, reps=100, z_samples=16)
    da, db = a.to_dict(), b.to_dict()
    assert json.dumps(da) == json.dumps(db)
    for key in ("var_f", "m", "r", "dk_bound", "dw_bound", "fourth_moment_bound",
                "t1", "t2", "c_f", "sup_term"):
        assert key in da
    assert da["m"][0][0]["stderr"] >= 0.0
    assert da["dk_bound"] > 0.0


def test_bound_report_count_closed_forms():
    spec = IntensitySpec(UNIT, t=400.0)
    rep = bound_report(make_count(), spec, seed=7, mc_samples=500)
    assert rep.dk.value == pytest.approx(0.95, abs=1e-13)
    assert rep.dw.value == pytest.approx(0.1, abs=1e-14)
    assert rep.fourth_moment.value == pytest.approx(400.0 + 3 * 400.0**2, rel=1e-14)
    assert rep.unreliable == ()
    assert not rep.var_f_unreliable


def test_class_without_nonzero_draws_is_flagged():
    # 500 draws in 2-D: some 3- and 4-block classes of M_22 see no linked
    # draw, so M_22 reads well under its true value (about 7,600) with a
    # stderr under half of it; the hit count still flags it
    spec = IntensitySpec([(0.0, 1.0), (0.0, 1.0)], t=100.0)
    rep = bound_report(make_geometric_indicator(0.05), spec, seed=1, mc_samples=500,
                       with_rij=True)
    m22 = rep.m[1][1]
    assert m22.fewest_hits == 0
    assert 0.0 < m22.stderr < UNRELIABLE_RATIO * m22.value
    assert (2, 2) in rep.unreliable
    # R sums classes of M from the same draws: M's flag covers it
    starved = [(i + 1, j + 1) for i in range(2) for j in range(i, 2)
               if rep.r[i][j].fewest_hits < MIN_HITS]
    assert starved and set(starved) <= set(rep.unreliable)


def test_certification_smoke(rng):
    # scaled-down version of the acceptance run: empirical distances stay
    # below the bound values (which exceed 1 at this t)
    from pustat.distance import empirical_dK, empirical_dW

    t = 50.0
    spec = IntensitySpec(UNIT, t=t)
    k = make_geometric_indicator(0.05)
    rep = bound_report(k, spec, seed=3, mc_samples=50_000)
    ef = k.full_integral(spec)
    sigma = math.sqrt(rep.var_f.value)
    vals = np.empty(2000)
    for i in range(2000):
        vals[i] = (evaluate(k, sample_point_process(spec, rng)) - ef) / sigma
    dk_emp = empirical_dK(vals)
    dw_emp = empirical_dW(vals)
    assert dk_emp <= rep.dk.value
    assert dw_emp <= rep.dw.value
    assert dk_emp <= 2.0 * math.sqrt(dw_emp) + 1e-12


# ---------------------------------------------------------------------------
# replication blocks
# ---------------------------------------------------------------------------


def _at_block_caps(monkeypatch, run):
    """run() with one replication per block, then with all in one block."""
    out = []
    for cap in (1, 1 << 40):
        monkeypatch.setattr(ustat, "_BLOCK_POINTS", cap)
        out.append(run())
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_blocking_changes_nothing(monkeypatch, dim):
    spec = IntensitySpec(UNIT * dim, t=40.0)
    if dim == 2:
        monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=500))
    var_f = MCValue(60.0, 1.0)
    for kernel in (make_geometric_indicator(0.15), make_constant(1.5, 2)):
        one, many = _at_block_caps(
            monkeypatch, lambda: _replicate_standardized(kernel, spec, 50, 3, var_f)[0]
        )
        assert np.array_equal(one, many)

        def stein():
            return estimate_stein_terms(
                kernel, spec, reps=30, z_samples=16,
                rng=np.random.default_rng(5), var_f=var_f,
            )

        one, many = _at_block_caps(monkeypatch, stein)
        assert one == many


def test_blocking_changes_nothing_at_order_three(monkeypatch):
    # the order-2 marginal term of -D_z L^{-1} F is taken per configuration
    spec = IntensitySpec(UNIT, t=4.0)
    kernel = make_constant(1.0, 3)

    def stein():
        return estimate_stein_terms(
            kernel, spec, reps=20, z_samples=4,
            rng=np.random.default_rng(7), var_f=MCValue(500.0, 1.0),
        )

    one, many = _at_block_caps(monkeypatch, stein)
    assert one == many
