"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Statistical checks use pinned seeds and the stated stderr multiples;
exact checks use the stated absolute or relative tolerances.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from pustat.bounds import bound_report, compute_Mij, dk_bound, estimate_Rij, estimate_stein_terms
from pustat.chaos import MCValue, variance_from_kernels
from pustat.distance import empirical_dK, empirical_dW, poisson_exact_dK
from pustat.kernels import make_constant, make_count, make_geometric_indicator
from pustat.measure import IntensitySpec, sample_point_process
from pustat.stein import G_MAX, check_stein_properties, g
from pustat.ustat import evaluate

from oracles import (
    brute_force_partitions_multi,
    poisson_central_moment4,
    replication_rng,
    stein_g_quadrature,
)

UNIT = [(0.0, 1.0)]
TINY = 1e-12


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def _standardized_samples(kernel, intensity, reps, seed, var_value):
    ef = kernel.full_integral(intensity)
    sigma = math.sqrt(var_value)
    vals = np.empty(reps)
    for rep in range(reps):
        cfg = sample_point_process(intensity, replication_rng(seed, rep))
        vals[rep] = (evaluate(kernel, cfg).value - ef) / sigma
    return vals


def test_01_berry_esseen_rate():
    # exact Poisson Kolmogorov distances against 8/sqrt(t), zero tolerance
    with criterion("1 Berry-Esseen d_K <= 8/sqrt(t) for dyadic t <= 1024"):
        t = 1.0
        while t <= 1024.0:
            assert poisson_exact_dK(t) <= 8.0 / math.sqrt(t)
            t *= 2.0


def test_02_partition_oracle():
    from pustat.partitions import count_partitions, enumerate_partitions

    cases = [(i, j) for i in range(1, 5) for j in range(1, 5) if 2 * i + 2 * j <= 12]
    with criterion("2 partition enumeration matches brute force (2i+2j <= 12)"):
        expected = brute_force_partitions_multi(cases)
        for i, j in cases:
            got = tuple(enumerate_partitions(i, j))
            canon = {frozenset(frozenset(block) for block in p) for p in got}
            assert len(canon) == len(got)  # no duplicates
            assert canon == expected[(i, j)]
        assert count_partitions(1, 1) == 1


def test_03_counting_kernel_closed_forms():
    t = 9.0
    spec = IntensitySpec(UNIT, t=t)
    kernel = make_count()
    with criterion("3 counting-kernel closed forms (M11, bounds, fourth moment)"):
        m11 = compute_Mij(kernel, spec, 1, 1, samples=1000)
        assert abs(m11.value - t) <= 4.0 * m11.stderr + TINY

        rep = bound_report(kernel, spec, seed=101, mc_samples=1000)
        assert abs(rep.dk.value - 19.0 / math.sqrt(t)) <= 1e-12 * rep.dk.value
        assert abs(rep.dw.value - 2.0 / math.sqrt(t)) <= 1e-12 * rep.dw.value

        target = poisson_central_moment4(t)
        assert abs(rep.fourth_moment.value - target) <= 1e-12 * target

        reps = 100_000
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = evaluate(kernel, sample_point_process(spec, replication_rng(11, i))).value
        centred = vals - vals.mean()
        fourth = centred**4
        m4 = float(fourth.mean())
        se = float(fourth.std(ddof=1)) / math.sqrt(reps)
        assert abs(m4 - target) <= 4.0 * se


def test_04_variance_identity():
    spec = IntensitySpec(UNIT, t=1.0)
    kernel = make_constant(1.0, 2)
    with criterion("4 variance identity for the order-2 constant kernel at t=1"):
        res = variance_from_kernels(kernel, spec, mc_samples=10_000)
        assert abs(res.value - 6.0) <= res.stderr + TINY
        assert res.value == pytest.approx(4.0 * 1.0**3 + 2.0 * 1.0**2, rel=1e-12)

        reps = 10_000
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = evaluate(kernel, sample_point_process(spec, replication_rng(21, i))).value
        s2 = float(vals.var(ddof=1))
        centred = vals - vals.mean()
        m4 = float(np.mean(centred**4))
        se_s2 = math.sqrt(max(m4 - s2 * s2 * (reps - 3) / (reps - 1), 0.0) / reps)
        assert abs(s2 - res.value) <= 4.0 * (se_s2 + res.stderr)


def _bootstrap_se(vals, stat, seed, draws=50):
    rng = np.random.default_rng(seed)
    n = len(vals)
    out = np.empty(draws)
    for b in range(draws):
        out[b] = stat(vals[rng.integers(0, n, n)])
    return float(out.std(ddof=1))


def test_05_bound_certification():
    kernel = make_geometric_indicator(0.05)
    with criterion("5 bound certification for the radius-0.05 indicator"):
        for t in (50.0, 100.0, 200.0):
            spec = IntensitySpec(UNIT, t=t)
            rep = bound_report(kernel, spec, seed=31, mc_samples=200_000)
            vals = _standardized_samples(kernel, spec, 10_000, 41, rep.var_f.value)
            dk_emp = empirical_dK(vals)
            dw_emp = empirical_dW(vals)
            dk_se = _bootstrap_se(vals, empirical_dK, 51)
            dw_se = _bootstrap_se(vals, empirical_dW, 61)
            assert dk_emp <= rep.dk.value + 4.0 * (dk_se + rep.dk.stderr)
            assert dw_emp <= rep.dw.value + 4.0 * (dw_se + rep.dw.stderr)
            assert dk_emp <= 2.0 * math.sqrt(dw_emp) + TINY


def test_06_poisson_stein_terms():
    t = 25.0
    spec = IntensitySpec(UNIT, t=t)
    with criterion("6 inner-product terms for the standardized Poisson count"):
        th = estimate_stein_terms(
            make_count(), spec, reps=10_000, z_samples=128,
            rng=np.random.default_rng(71), var_f=MCValue(t, 0.0),
        )
        assert abs(th.t1.value) <= 3.0 * th.t1.stderr + TINY
        assert abs(th.t2.value - 1.0 / t) <= 4.0 * th.t2.stderr + TINY
        assert abs(th.g4.value - (3.0 + 1.0 / t)) <= 4.0 * th.g4.stderr


def test_07_r_versus_m():
    with criterion("7 R_ij dominated by M_ij; counting-kernel R_11 is zero"):
        spec = IntensitySpec(UNIT, t=8.0)
        kernel = make_geometric_indicator(0.2)
        for idx, (i, j) in enumerate(((1, 1), (1, 2), (2, 2))):
            r = estimate_Rij(kernel, spec, i, j, samples=200_000,
                             rng=np.random.default_rng(81 + idx))
            m = compute_Mij(kernel, spec, i, j, samples=200_000,
                            rng=np.random.default_rng(91 + idx))
            assert r.value <= m.value + 4.0 * (r.stderr + m.stderr)

        r11 = estimate_Rij(make_count(), IntensitySpec(UNIT, t=9.0), 1, 1,
                           samples=2000, rng=np.random.default_rng(99))
        assert abs(r11.value) <= 1e-10


def test_08_stein_properties():
    with criterion("8 Stein solution: quadrature match, grid bounds, kink jump"):
        rng = np.random.default_rng(111)
        for _ in range(100):
            s = float(rng.uniform(-3.0, 3.0))
            w = float(rng.uniform(-3.0, 3.0))
            assert abs(g(s, w) - stein_g_quadrature(s, w)) <= 1e-8
        report = check_stein_properties()
        assert report["passed"]
        assert report["g_min"] > 0.0
        assert report["g_max"] <= G_MAX + TINY
        assert report["gprime_abs_max"] <= 1.0 + TINY
        assert report["wg_abs_max"] <= 1.0 + TINY
        assert report["gsecond_margin_min"] >= -TINY
        assert all(err <= 1e-5 for err in report["jump_errors"].values())


def test_09_rate_check():
    with criterion("9 t^(-1/2) rate: exact for counting, <10% spread for geometric"):
        for t in (4.0, 100.0, 1024.0):
            out = dk_bound([[MCValue(t, 0.0)]], MCValue(t, 0.0), 1)
            assert abs(math.sqrt(t) * out.value - 19.0) <= 1e-12 * 19.0

        kernel = make_geometric_indicator(0.05)
        scaled = {}
        for t in (100.0, 200.0, 400.0):
            spec = IntensitySpec(UNIT, t=t)
            # common random numbers across t isolate the t-dependence
            m = [
                [
                    compute_Mij(kernel, spec, i, j, samples=400_000,
                                rng=np.random.default_rng(
                                    np.random.SeedSequence(121, spawn_key=(i, j))))
                    for j in (1, 2)
                ]
                for i in (1, 2)
            ]
            var = variance_from_kernels(
                kernel, spec, mc_samples=400_000,
                rng=np.random.default_rng(np.random.SeedSequence(121, spawn_key=(9,))))
            scaled[t] = dk_bound(m, MCValue(var.value, var.stderr), 2).value * math.sqrt(t)
        spread = (max(scaled.values()) - min(scaled.values())) / min(scaled.values())
        assert spread <= 0.10
