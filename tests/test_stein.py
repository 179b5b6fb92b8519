import math

import numpy as np
import pytest

from pustat import stein
from pustat.stein import G_MAX, check_stein_properties, g, g_prime, g_second, normal_cdf

from oracles import stein_g_quadrature


def test_normal_cdf_values():
    assert normal_cdf(0.0) == 0.5
    # high-precision quadrature oracle: 0.97500210485177956586
    assert abs(normal_cdf(1.96) - 0.9750021048517796) < 1e-13


def test_normal_cdf_matches_ndtr():
    from scipy.special import ndtr

    rng = np.random.default_rng(8)
    for x in (rng.normal(size=100_000), rng.uniform(-37.5, 8.5, size=100_000)):
        phi, ref = normal_cdf(x), ndtr(x)
        assert np.all(np.abs(phi - ref) <= 2.3e-16)
        assert np.all(np.abs(phi - ref) <= 1e-13 * ref)
    assert normal_cdf(np.array([[-1.0, 0.5]])).shape == (1, 2)
    assert np.isnan(normal_cdf(math.nan))


def _cdf_one_value(x):
    """normal_cdf's split for one Python float: erf inside |x| < 1, the
    reflected erfc tail beyond."""
    u = x * math.sqrt(0.5)
    if abs(u) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(u)
    tail = 0.5 * math.erfc(abs(u))
    return 1.0 - tail if u > 0 else tail


def test_normal_cdf_chunks_are_bit_identical():
    # more than two chunks, with values on both sides of |x| = 1 in each
    rng = np.random.default_rng(12)
    x = rng.uniform(-3.0, 3.0, size=2 * stein._CDF_CHUNK + 1001)
    x[stein._CDF_CHUNK - 2 : stein._CDF_CHUNK + 2] = [-1.0, 1.0, np.nextafter(1.0, 0.0), -1.5]
    phi = normal_cdf(x)
    assert phi.tobytes() == np.array([_cdf_one_value(v) for v in x.tolist()]).tobytes()
    for v in (0.3, -1.0, 2.5):
        out = normal_cdf(np.array(v))
        assert type(out) is float and out == _cdf_one_value(v)


def test_normal_cdf_symmetry():
    xs = np.linspace(-6.0, 6.0, 241)
    assert np.all(np.abs(normal_cdf(-xs) - (1.0 - normal_cdf(xs))) <= 1e-13)


def test_g_at_origin():
    # sqrt(2 pi) * Phi(0) * (1 - Phi(0)) = sqrt(2 pi) / 4
    assert g(0.0, 0.0) == pytest.approx(0.6266570686577501, abs=1e-15)


def test_g_decays_in_both_tails():
    # g vanishes like 1/|w| far out, staying strictly positive
    for s in (-2.0, 0.0, 1.5):
        for w in (-1e8, 1e8):
            assert 0.0 < g(s, w) < 1e-7
        assert g(s, -50.0) < g(s, -10.0) < g(s, s - 1.0)


def test_g_matches_quadrature(rng):
    # the mandated cross-check of the closed form against the defining integral
    for _ in range(100):
        s = float(rng.uniform(-3.0, 3.0))
        w = float(rng.uniform(-3.0, 3.0))
        assert abs(g(s, w) - stein_g_quadrature(s, w)) <= 1e-8


def test_g_bounds_on_grid():
    w = np.arange(-8.0, 8.0 + 0.005, 0.01)
    for s in (-2.0, 0.0, 1.0):
        gw = g(s, w)
        assert np.all(gw > 0.0)
        assert np.all(gw <= G_MAX + 1e-12)
        assert np.all(np.abs(w * gw) <= 1.0 + 1e-12)


def test_g_prime_satisfies_equation_and_bound():
    w = np.arange(-8.0, 8.0 + 0.005, 0.01)
    for s in (-2.0, 0.0, 1.0):
        gp = g_prime(s, w)
        residual = gp - w * g(s, w) - ((w <= s) - normal_cdf(s))
        assert np.max(np.abs(residual)) <= 1e-15  # identity up to one rounding
        assert np.all(np.abs(gp) <= 1.0 + 1e-12)


def test_g_prime_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(50):
        s = float(rng.uniform(-2.0, 2.0))
        w = float(rng.uniform(-4.0, 4.0))
        if abs(w - s) <= 1e-3:
            continue
        numeric = (g(s, w + h) - g(s, w - h)) / (2.0 * h)
        assert abs(numeric - g_prime(s, w)) <= 1e-6


def test_derivative_jump_at_kink():
    h = 1e-6
    for s in (-2.0, -0.3, 0.0, 1.0, 2.5):
        right = (g(s, s + h) - g(s, s)) / h
        left = (g(s, s) - g(s, s - h)) / h
        assert abs((right - left) - (-1.0)) <= 1e-5


def test_left_limit_convention_at_kink():
    # g'(s) continues the w <= s branch
    for s in (-1.0, 0.0, 2.0):
        h = 1e-9
        assert abs(g_prime(s, s) - g_prime(s, s - h)) < 1e-6


def test_g_second_bound():
    w = np.arange(-8.0, 8.0 + 0.005, 0.01)
    for s in (-2.0, 0.0, 1.0):
        margin = G_MAX + np.abs(w) - np.abs(g_second(s, w))
        assert margin.min() >= -1e-12


def test_g_second_equality_edge():
    # at w=0, s=0 the left-limit second derivative attains the bound exactly
    assert abs(g_second(0.0, 0.0)) == pytest.approx(G_MAX, abs=1e-15)


def test_check_stein_properties_report():
    d = check_stein_properties()
    assert d["passed"] is True
    assert d["g_min"] > 0.0
    assert d["g_max"] <= G_MAX + 1e-12
    assert d["gprime_abs_max"] <= 1.0 + 1e-12
    assert d["wg_abs_max"] <= 1.0 + 1e-12
    assert d["gsecond_margin_min"] >= -1e-12
    assert all(err <= 1e-5 for err in d["jump_errors"].values())
    assert set(d["jump_errors"]) == {"-2.0", "0.0", "1.0"}
