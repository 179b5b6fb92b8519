import math
from dataclasses import replace

import numpy as np
import pytest

from pustat import kernels
from pustat.kernels import (
    MarginalIntegration,
    MarginalUnavailable,
    make_constant,
    make_count,
    make_geometric_indicator,
    make_kernel,
    make_product,
    kernel_descriptor,
    SymmetricKernel,
)
from pustat.bounds import compute_Mij
from pustat.chaos import variance_from_kernels
from pustat.measure import IntensitySpec, mc_integral, sample_points

from oracles import scale_kernel, symmetry_check

UNIT = [(0.0, 1.0)]


def _tuples(*rows):
    return np.asarray(rows, dtype=float)


def test_count_kernel():
    k = make_count()
    assert k.order == 1
    assert np.all(k(_tuples([[0.2]], [[0.9]])) == 1.0)


def test_geometric_indicator_values():
    k = make_geometric_indicator(0.1)
    vals = k(_tuples([[0.3], [0.35]], [[0.3], [0.5]]))
    assert vals.tolist() == [1.0, 0.0]


def test_constant_kernel():
    k = make_constant(2.0, 2)
    x = _tuples([[0.1], [0.4]])
    assert k(x).tolist() == [2.0]
    assert k.absolute is k
    neg = make_constant(-3.0, 2)
    assert neg(x).tolist() == [-3.0]
    assert neg.absolute(x).tolist() == [3.0]


def test_non_finite_c_is_refused():
    # an int beyond the float range included; |f| of a NaN kernel is undefined
    for c in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError, match="c must be finite"):
            make_constant(c, 2)
        with pytest.raises(ValueError, match="c must be finite"):
            scale_kernel(make_geometric_indicator(0.1), c)


def test_make_kernel_descriptor_round_trip():
    k = make_kernel({"name": "geometric_indicator", "r": 0.25})
    assert k.pair_radius == 0.25
    assert kernel_descriptor(k) == {"name": "geometric_indicator", "r": 0.25}
    assert make_kernel("count").order == 1


def test_make_kernel_rejects_bad_descriptors():
    with pytest.raises(ValueError):
        make_kernel({"name": "geometric_indicator", "r": -1.0})
    with pytest.raises(ValueError):
        make_kernel({"name": "constant", "k": 0})
    with pytest.raises(ValueError):
        make_kernel({"name": "no_such_kernel"})
    with pytest.raises(ValueError):
        make_kernel({"name": "geometric_indicator"})
    with pytest.raises(ValueError, match="'K'"):
        make_kernel({"name": "constant", "c": 2.0, "K": 3})


def test_order_below_one_names_the_order(capsys):
    # the kernel itself refuses k < 1; a signed kernel's |f| refuses it first
    from pustat.cli import main

    for build in (lambda: make_constant(1.0, 0), lambda: make_constant(-1.0, 0),
                  lambda: make_product(lambda pts: pts[:, 0], 0)):
        with pytest.raises(ValueError, match=r"^kernel order k must be >= 1$"):
            build()
    assert main(["bound", "--kernel", "constant", "--k", "0", "--t", "1", "--seed", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: kernel order k must be >= 1\n"


def test_symmetry_check(rng):
    assert symmetry_check(make_geometric_indicator(0.2), trials=64, rng=rng)
    assert symmetry_check(make_count(), trials=8, rng=rng)

    antisym = SymmetricKernel(
        name="diff",
        order=2,
        eval_fn=lambda x: x[:, 0, 0] - x[:, 1, 0],
        abs_kernel=SymmetricKernel(
            name="|diff|", order=2, eval_fn=lambda x: np.abs(x[:, 0, 0] - x[:, 1, 0]),
            nonnegative=True,
        ),
    )
    assert not symmetry_check(antisym, trials=64, rng=rng)


def test_geometric_marginal_matches_formula():
    # marginal (binomial factor excluded) is t * |[x-r, x+r] cap [0, 1]|
    spec = IntensitySpec(UNIT, t=10.0)
    k = make_geometric_indicator(0.1)
    xs = np.array([0.05, 0.5, 0.97])
    vals = k.marginal(spec, xs[:, None, None], 1)
    expected = 10.0 * (np.minimum(xs + 0.1, 1.0) - np.maximum(xs - 0.1, 0.0))
    assert np.allclose(vals, expected, rtol=1e-14)


def test_geometric_marginal_cross_checked_by_mc(rng):
    spec = IntensitySpec(UNIT, t=10.0)
    k = make_geometric_indicator(0.1)
    for x0 in (0.07, 0.33, 0.5):
        analytic = float(k.marginal(spec, np.array([[[x0]]]), 1)[0])
        est, se = mc_integral(
            lambda y: k(np.concatenate([np.full((len(y), 1, 1), x0), y], axis=1)),
            spec,
            n=1,
            samples=100_000,
            rng=rng,
        )
        assert abs(est - analytic) <= 4.0 * se


def test_geometric_full_integral():
    # integral of the indicator over [0,1]^2 is 2r - r^2, scaled by t^2
    spec = IntensitySpec(UNIT, t=3.0)
    k = make_geometric_indicator(0.1)
    assert k.full_integral(spec) == pytest.approx(9.0 * (0.2 - 0.01), rel=1e-14)


def _pair_integral_2d(t, r, a, b):
    return t * t * (math.pi * r * r * a * b - 4.0 / 3.0 * r**3 * (a + b) + r**4 / 2.0)


def test_geometric_full_integral_2d():
    # t^2 (pi r^2 ab - 4/3 r^3 (a + b) + r^4/2) on an a x b box, r <= min(a, b)
    for box, t, r in (([(0.0, 1.0), (0.0, 1.0)], 3.0, 0.1),
                      ([(0.0, 2.0), (0.0, 0.5)], 5.0, 0.2),
                      ([(0.0, 2.0), (0.0, 0.5)], 5.0, 0.5)):
        spec = IntensitySpec(box, t=t)
        k = make_geometric_indicator(r)
        (a0, a1), (b0, b1) = box
        assert k.full_integral(spec) == pytest.approx(
            _pair_integral_2d(t, r, a1 - a0, b1 - b0), rel=1e-14
        )


def test_geometric_full_integral_2d_matches_mc_fallback(monkeypatch):
    monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=400_000))
    for box, r in (([(0.0, 1.0), (0.0, 1.0)], 0.1), ([(0.0, 2.0), (0.0, 0.5)], 0.2)):
        spec = IntensitySpec(box, t=4.0)
        k = make_geometric_indicator(r)
        bare = replace(k, marginal_fn=None)
        x0 = np.empty((1, 0, 2))
        est, se = bare.marginal_with_stderr(spec, x0, 0)
        assert abs(est[0] - k.full_integral(spec)) <= 4.0 * se[0]


def test_geometric_2d_analytic_cases_are_narrow():
    # the full integral needs r <= both sides, the first marginal 2r <= both
    # sides and its probes in the closed box; no analytic case in 3-D
    k = make_geometric_indicator(0.6)
    x0 = np.empty((1, 0, 2))
    with pytest.raises(MarginalUnavailable):
        k.marginal_fn(IntensitySpec([(0.0, 2.0), (0.0, 0.5)], t=2.0), x0, 0)
    narrow = IntensitySpec([(0.0, 1.0), (0.0, 0.3)], t=2.0)
    with pytest.raises(MarginalUnavailable):
        make_geometric_indicator(0.2).marginal_fn(narrow, np.full((1, 1, 2), 0.15), 1)
    unit2 = IntensitySpec([(0.0, 1.0), (0.0, 1.0)], t=2.0)
    outside = np.array([[[0.5, 0.5]], [[0.5, np.nextafter(1.0, 2.0)]]])
    with pytest.raises(MarginalUnavailable):
        make_geometric_indicator(0.1).marginal_fn(unit2, outside, 1)
    with pytest.raises(MarginalUnavailable):
        make_geometric_indicator(0.1).marginal_fn(IntensitySpec([(0.0, 1.0)] * 3), np.empty((1, 0, 3)), 0)


def test_geometric_2d_first_marginal_matches_mc_fallback():
    # the disc area in the box against 2,000,000 shared fallback draws: the
    # interior, each edge, a corner, a probe exactly r from an edge and one
    # near a corner; then r at half the short side, where the centre line
    # lies exactly r from both long edges
    for box, r, probes in (
        ([(0.0, 1.0), (0.0, 1.0)], 0.05,
         [[0.5, 0.5], [0.0, 0.4], [1.0, 0.6], [0.3, 0.0], [0.7, 1.0], [1.0, 0.0],
          [0.05, 0.5], [0.02, 0.03]]),
        ([(0.0, 2.0), (0.0, 0.5)], 0.25, [[1.0, 0.25], [0.1, 0.25], [2.0, 0.5], [0.3, 0.1]]),
    ):
        spec = IntensitySpec(box, t=3.0)
        k = make_geometric_indicator(r)
        x = np.array(probes)[:, None, :]
        vals, ses = k.marginal_with_stderr(spec, x, 1)
        assert not ses.any()
        est, se = kernels._marginal_mc(k, spec, x, 1, mc=MarginalIntegration(samples=2_000_000))
        assert np.all(np.abs(est - vals) <= 4.0 * se)


@pytest.mark.parametrize("box, r", [
    ([(0.0, 1.0), (0.0, 1.0)], 0.05),
    ([(0.0, 1.0), (0.0, 1.0)], 0.5),
    ([(-0.3, 0.4), (2.0, 2.13)], 0.05),
    ([(-0.3, 0.4), (2.0, 2.13)], (2.13 - 2.0) / 2.0),
])
def test_geometric_2d_first_marginal_integrates_to_the_full_integral(box, r):
    # tensor Gauss-Legendre, each side split where the disc leaves its edges
    nodes, weights = np.polynomial.legendre.leggauss(256)
    axes = []
    for lo, hi in box:
        cuts = [lo, lo + r, hi - r, hi]
        axes.append((
            np.concatenate([a + 0.5 * (b - a) * (nodes + 1.0) for a, b in zip(cuts, cuts[1:])]),
            np.concatenate([0.5 * (b - a) * weights for a, b in zip(cuts, cuts[1:])]),
        ))
    (xa, wa), (xb, wb) = axes
    grid = np.stack(np.meshgrid(xa, xb, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    spec = IntensitySpec(box, t=3.0)
    k = make_geometric_indicator(r)
    vals = k.marginal(spec, grid, 1).reshape(len(xa), len(xb))
    # the marginal is t |B(x, r) & box|; the full integral t^2 times its integral
    assert wa @ vals @ wb == pytest.approx(k.full_integral(spec) / spec.t, rel=1e-10)


@pytest.mark.parametrize("box, r", [
    ([(0.0, 1.0), (0.0, 1.0)], 5e-324),
    ([(0.0, 1.0), (0.0, 1.0)], 1e-200),
    ([(0.0, 1.0), (0.0, 1.0)], 0.5),
    ([(-1e150, 1e150), (0.0, 1e150)], 5e149),
])
def test_geometric_2d_first_marginal_raises_no_warning(box, r):
    # subnormal and huge radii, probes on the edges, at the corners, exactly
    # r and an ulp from an edge: numpy's errors raise, and a RuntimeWarning
    # is an error under pytest
    (lo_a, hi_a), (lo_b, hi_b) = box
    xs = [lo_a, np.nextafter(lo_a, hi_a), lo_a + r, 0.5 * (lo_a + hi_a), hi_a - r, hi_a]
    ys = [lo_b, np.nextafter(lo_b, hi_b), lo_b + r, 0.5 * (lo_b + hi_b), hi_b - r, hi_b]
    x = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    spec = IntensitySpec(box, t=2.0)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        vals = make_geometric_indicator(r).marginal(spec, x, 1)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)


def test_abs_values_match_abs_of_eval(rng):
    x = rng.random((50, 2, 1))
    indicator = make_geometric_indicator(0.3)
    assert indicator.absolute is indicator
    sign_changing = make_product(lambda p: 2.0 * p[:, 0] - 1.0, 2, base_integral=0.0)
    for k in (indicator, make_constant(-2.0, 2), sign_changing, scale_kernel(indicator, -2.0)):
        assert k.absolute.nonnegative and k.absolute.absolute is k.absolute
        assert np.allclose(k.absolute(x), np.abs(k(x)), rtol=1e-15)
    assert np.any(sign_changing(x) < 0.0)


def test_product_abs_marginal_matches_mc_fallback(monkeypatch):
    # g = 2x - 1 changes sign on [0, 1]; |g| integrates to 1/2
    spec = IntensitySpec(UNIT, t=4.0)
    k = make_product(lambda p: 2.0 * p[:, 0] - 1.0, 2, base_integral=0.0, abs_base_integral=0.5)
    absolute = k.absolute
    bare = replace(absolute, marginal_fn=None)
    monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=40_000))
    for x in (np.array([[[0.1]], [[0.45]], [[0.8]]]), np.empty((1, 0, 1))):
        i = x.shape[1]
        analytic = absolute.marginal(spec, x, i)
        est, se = bare.marginal_with_stderr(spec, x, i)
        assert np.all(se > 0.0)
        assert np.all(np.abs(est - analytic) <= 4.0 * se)
    assert absolute.full_integral(spec) == pytest.approx(4.0, rel=1e-14)  # (t / 2)^2
    assert k.full_integral(spec) == 0.0


def test_kernel_must_say_what_its_abs_is():
    def ev(x):
        return x[:, 0, 0]

    with pytest.raises(ValueError, match="nonnegative"):
        SymmetricKernel(name="f", order=1, eval_fn=ev)
    nonneg = SymmetricKernel(name="|f|", order=1, eval_fn=ev, nonnegative=True)
    with pytest.raises(ValueError, match="nonnegative"):
        SymmetricKernel(name="f", order=1, eval_fn=ev, nonnegative=True, abs_kernel=nonneg)
    signed = SymmetricKernel(name="f", order=1, eval_fn=ev, abs_kernel=nonneg)
    assert signed.absolute is nonneg
    with pytest.raises(ValueError, match="abs_kernel"):
        SymmetricKernel(name="g", order=1, eval_fn=ev, abs_kernel=signed)


def test_pair_radius_marks_the_order_2_indicator():
    # the neighbour-counted route trusts pair_radius, so only an order-2
    # kernel that is its own |f| may set it
    def ev(x):
        return np.ones(len(x))

    for order in (1, 3):
        with pytest.raises(ValueError, match="pair_radius"):
            SymmetricKernel(name="f", order=order, eval_fn=ev, pair_radius=0.1, nonnegative=True)
    nonneg = SymmetricKernel(name="|f|", order=2, eval_fn=ev, nonnegative=True)
    with pytest.raises(ValueError, match="pair_radius"):
        SymmetricKernel(name="f", order=2, eval_fn=ev, pair_radius=0.1, abs_kernel=nonneg)
    # the indicator without its marginals, and scaled ones, which clear it
    assert replace(make_geometric_indicator(0.1), marginal_fn=None).pair_radius == 0.1
    for c in (3.0, -3.0):
        assert scale_kernel(make_geometric_indicator(0.1), c).pair_radius is None


def test_marginal_mc_fallback_agrees_with_analytic(monkeypatch):
    # strip the analytic marginal and compare the Monte Carlo fallback
    spec = IntensitySpec(UNIT, t=5.0)
    k = make_geometric_indicator(0.1)
    bare = replace(k, marginal_fn=None)
    x = np.array([[[0.2]], [[0.55]], [[0.9]]])
    analytic = k.marginal(spec, x, 1)
    monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=40_000))
    est, se = bare.marginal_with_stderr(spec, x, 1)
    assert np.all(np.abs(est - analytic) <= 4.0 * se + 1e-12)


def test_marginal_integration_needs_two_samples():
    # the standard errors divide by samples - 1
    with pytest.raises(ValueError, match="samples"):
        MarginalIntegration(samples=1)
    with pytest.raises(ValueError, match="samples"):
        MarginalIntegration(samples=0)
    assert MarginalIntegration(samples=2).samples == 2


_PAIR_CASES = {
    "1d": (IntensitySpec(UNIT, t=7.0), 0.1),
    "2d": (IntensitySpec([(0.0, 1.0), (0.0, 1.0)], t=30.0), 0.05),
    "3d": (IntensitySpec([(0.0, 1.0)] * 3, t=5.0), 0.2),
    "2d_box": (IntensitySpec([(0.0, 2.0), (-1.0, 0.5)], t=4.0), 0.3),
}


def _counted_and_dense(r):
    """The distance indicator without analytic marginals, with and without
    its pair radius: the first counts neighbours, the second evaluates f."""
    counted = replace(make_geometric_indicator(r), marginal_fn=None)
    return counted, replace(counted, pair_radius=None)


# "-f": the marginal of f, which for the indicator is also that of |f|
@pytest.mark.parametrize("case", list(_PAIR_CASES), ids=lambda case: f"{case}-f")
def test_pair_marginal_counts_match_dense(monkeypatch, case):
    spec, r = _PAIR_CASES[case]
    counted, dense = _counted_and_dense(r)
    mc = MarginalIntegration(samples=3000, seed=11)
    monkeypatch.setattr(kernels, "_FALLBACK", mc)
    # the draws the fallback makes for i = 1; probes at y_j +- r e_1 put
    # pairs at, or within an ulp of, distance r
    y = sample_points(spec, mc.samples, np.random.default_rng(np.random.SeedSequence(mc.seed, spawn_key=(1,))))
    step = np.zeros(spec.dim)
    step[0] = r
    rng = np.random.default_rng(5)
    lo, hi = np.array(spec.box).T
    probes = np.concatenate([y[:40] + step, y[:40] - step, lo + (hi - lo) * rng.random((200, spec.dim))])
    x = probes[:, None, :]
    vals, ses = counted.marginal_with_stderr(spec, x, 1)
    dense_vals, dense_ses = dense.marginal_with_stderr(spec, x, 1)
    assert np.array_equal(vals, dense_vals)
    assert np.allclose(ses, dense_ses, rtol=1e-12, atol=0.0)
    assert np.count_nonzero(vals) > 0


def test_pair_marginal_routes_give_identical_integrals(monkeypatch):
    spec, r = _PAIR_CASES["2d"]
    counted, dense = _counted_and_dense(r)
    monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=2000))

    def _stream():
        return np.random.default_rng(17)

    assert variance_from_kernels(counted, spec, mc_samples=500, rng=_stream()) == (
        variance_from_kernels(dense, spec, mc_samples=500, rng=_stream())
    )
    for i, j in ((1, 1), (1, 2)):
        assert compute_Mij(counted, spec, i, j, samples=300, rng=_stream()) == (
            compute_Mij(dense, spec, i, j, samples=300, rng=_stream())
        )


def test_variance_2d_evaluates_only_the_top_order(monkeypatch):
    # the i = 1 marginals are neighbour counts, so only the two factors of the
    # i = 2 term evaluate f: 2m rows in place of 2 m samples + 2m
    rows = [0]
    k = make_geometric_indicator(0.1)

    def _counting_eval(x):
        rows[0] += len(x)
        return k.eval_fn(x)

    counted = replace(k, eval_fn=_counting_eval)
    spec = IntensitySpec([(0.0, 1.0), (0.0, 1.0)], t=30.0)
    m = 500
    monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=2000))
    res = variance_from_kernels(counted, spec, mc_samples=m, rng=np.random.default_rng(3))
    assert res.value > 0.0
    assert rows[0] <= 2 * m


def test_product_kernel_marginals():
    # f(x, y) = (2x)(2y): marginal at x is 2x * t, full integral t^2
    spec = IntensitySpec(UNIT, t=3.0)
    k = make_product(lambda p: 2.0 * p[:, 0], 2, base_integral=1.0)
    x = np.array([[[0.25]]])
    assert k.marginal(spec, x, 1) == pytest.approx([0.5 * 3.0])
    assert k.full_integral(spec) == pytest.approx(9.0)
    vals = k(_tuples([[0.5], [0.25]]))
    assert vals == pytest.approx([0.5])


def test_full_integral_cache_survives_reused_ids():
    # kernels built after others were dropped may reuse their id(); the cached
    # integral must still be that of the new kernel
    spec = IntensitySpec(UNIT, t=100.0)
    small = [make_geometric_indicator(0.05) for _ in range(500)]
    assert [k.full_integral(spec) for k in small] == [pytest.approx(975.0)] * 500
    del small
    large = [make_geometric_indicator(0.5) for _ in range(500)]
    assert [k.full_integral(spec) for k in large] == [pytest.approx(7500.0)] * 500


def test_cross_values_do_not_depend_on_the_chunk(rng, monkeypatch):
    # the dense Monte Carlo marginal and the sums with a point evaluate the
    # same tuples whatever the block size, so they agree bit for bit
    from pustat import ustat

    spec = IntensitySpec(UNIT * 2, t=3.0)
    kernel = make_product(lambda p: 1.0 + p[:, 0] * p[:, 1], 3)  # no base integral: MC
    monkeypatch.setattr(kernels, "_FALLBACK", MarginalIntegration(samples=300))
    probes = {i: rng.random((25, i, 2)) for i in (0, 1, 2)}
    points, heads = rng.random((9, 2)), {a: rng.random((13, a, 2)) for a in (1, 2, 3)}
    runs = []
    for chunk in (1, 1 << 40, kernels._EVAL_CHUNK):
        monkeypatch.setattr(kernels, "_EVAL_CHUNK", chunk)
        marginals = [kernel.marginal_with_stderr(spec, x, i) for i, x in probes.items()]
        sums = [ustat._subset_sums(kernel, h[None], points, np.array([len(points)]), 3 - a)[0]
                for a, h in heads.items()]
        runs.append((marginals, sums))
    for marginals, sums in runs[1:]:
        for (vals, ses), (vals0, ses0) in zip(marginals, runs[0][0]):
            assert np.array_equal(vals, vals0) and np.array_equal(ses, ses0)
        assert all(np.array_equal(s, s0) for s, s0 in zip(sums, runs[0][1]))
