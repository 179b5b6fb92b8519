import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pustat import distance
from pustat.distance import (
    SortedSample,
    _cdf_antideriv,
    _normal_quantiles,
    _poisson_pmf,
    _stirlerr,
    empirical_dK,
    empirical_dW,
    poisson_exact_dK,
)
from pustat.stein import normal_cdf

from oracles import (
    distance_sample_kinds,
    empirical_dk_direct,
    empirical_dw_all_levels,
    empirical_dw_direct,
    poisson_dk_mpmath,
    poisson_dk_scipy,
    wasserstein_riemann,
)

finite_floats = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)


def test_dk_point_mass_at_zero():
    assert empirical_dK([0.0]) == 0.5


def test_dk_at_normal_quantiles():
    # samples at Phi-quantiles of (i - 0.5)/n leave a gap of exactly 0.5/n
    from scipy.special import ndtri

    n = 40
    samples = ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert empirical_dK(samples) == pytest.approx(0.5 / n, rel=1e-9)


def test_dk_permutation_invariant(rng):
    x = rng.normal(size=200)
    assert empirical_dK(x) == empirical_dK(x[rng.permutation(200)])


def test_dk_range_and_empty():
    with pytest.raises(ValueError):
        empirical_dK([])
    assert 0.0 <= empirical_dK([3.0, -1.0]) <= 1.0


def test_dk_smoke_against_normal_samples():
    # seed-pinned: for 10^4 genuinely normal draws dK < 1.95/sqrt(n)
    x = np.random.default_rng(2024).normal(size=10_000)
    assert empirical_dK(x) < 1.95 / math.sqrt(10_000)


def test_dw_point_mass_at_zero():
    # W1(delta_0, N) = E|N| = sqrt(2/pi)
    assert empirical_dW([0.0]) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)


def test_dw_translation_lipschitz(rng):
    x = rng.normal(size=300)
    base = empirical_dW(x)
    for c in (-0.7, 0.3, 2.0):
        assert abs(empirical_dW(x + c) - base) <= abs(c) + 1e-9


def test_dw_matches_riemann_oracle(rng):
    for n in (1, 2, 17, 400):
        x = rng.normal(size=n) * 1.3 + 0.2
        assert abs(empirical_dW(x) - wasserstein_riemann(x)) <= 1e-6


def test_dw_with_ties():
    x = np.array([0.5, 0.5, -0.5, -0.5])
    assert abs(empirical_dW(x) - wasserstein_riemann(x)) <= 1e-6


def test_dw_tied_discrete_samples(rng):
    # heavy ties, as in the standardized statistic of a lattice-valued count:
    # most gaps have zero width, and many levels cross Phi outside their gap
    for x in (np.round(rng.normal(size=500), 1),
              rng.poisson(4.0, size=300) / 2.0 - 2.0,
              np.repeat([-1.0, 0.0, 3.0], [5, 1, 2])):
        assert abs(empirical_dW(x) - wasserstein_riemann(x)) <= 1e-6


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=60))
def test_dk_le_two_sqrt_dw(samples):
    # the Gaussian-comparison inequality between the two distances
    dk = empirical_dK(samples)
    dw = empirical_dW(samples)
    assert dk <= 2.0 * math.sqrt(dw) + 1e-12


def test_poisson_dk_rejects_nonpositive():
    with pytest.raises(ValueError):
        poisson_exact_dK(0.0)


def test_poisson_dk_against_high_precision_oracle():
    for t in (1.0, 4.0, 25.0):
        assert abs(poisson_exact_dK(t) - poisson_dk_mpmath(t)) <= 1e-12


@pytest.mark.parametrize("t", [1.0, 7.5, 512.0, 4096.0])
def test_poisson_dk_to_a_few_ulps(t):
    # Loader's saddle-point pmf never forms -t + m log t - log m!, whose
    # cancelling terms cost about t log t ulps (3.4e-10 relative at 4096)
    exact = poisson_dk_mpmath(t)
    assert poisson_exact_dK(t) == pytest.approx(exact, rel=1e-13)


def test_stirlerr_and_pmf_against_high_precision():
    # stirlerr from the table (m <= 15) and from the series above it, and
    # the pmf on both sides of bd0's series region |m - t| < 0.1 (m + t),
    # each within a few ulps of its largest value: what a cumsum reads
    import mpmath as mp

    m = np.arange(1, 60)
    with mp.workdps(40):
        ref = [mp.loggamma(k + 1) - (k + 0.5) * mp.log(k) + k - mp.log(mp.sqrt(2 * mp.pi))
               for k in m.tolist()]
        assert np.abs(_stirlerr(m) - np.array(ref, dtype=float)).max() <= 2e-16
        for t in (0.5, 7.5, 30.0, 300.5):
            m_hi = int(t + 12 * math.sqrt(t)) + 2
            ref = np.array([mp.e ** (-mp.mpf(t) + k * mp.log(t) - mp.loggamma(k + 1))
                            for k in range(m_hi + 1)], dtype=float)
            assert np.abs(_poisson_pmf(t, m_hi) - ref).max() <= 4e-15 * ref.max()


def test_poisson_dk_t1_brute_force_window():
    # at t=1 the sup is certainly inside m = 0..40
    assert poisson_exact_dK(1.0) == pytest.approx(poisson_dk_mpmath(1.0, m_max=40), abs=1e-12)


def test_poisson_dk_positive_and_bounded():
    for t in (0.5, 1.0, 4.0, 25.0, 100.0):
        dk = poisson_exact_dK(t)
        assert 0.0 < dk < 1.0
        if t >= 1.0:
            assert dk <= 8.0 / math.sqrt(t)


def test_poisson_dk_rate_stabilizes():
    # sqrt(t) * dK along dyadic t: successive ratios settle in [0.8, 1.25]
    values = [math.sqrt(t) * poisson_exact_dK(float(t)) for t in (64, 128, 256, 512, 1024)]
    for a, b in zip(values, values[1:]):
        assert 0.8 <= b / a <= 1.25
    assert all(0.0 < v <= 8.0 for v in values)


@pytest.mark.parametrize("kind", list(distance_sample_kinds()))
def test_table_equals_direct_formulas(kind):
    # the sample and its resamples read the table; sorting and evaluating
    # each one anew gives the same bits
    x = distance_sample_kinds()[kind]
    table = SortedSample(x)
    assert table.dk(table.identity) == empirical_dk_direct(x, normal_cdf)
    assert table.dw(table.identity) == empirical_dw_direct(x, normal_cdf, _normal_quantiles)
    rng = np.random.default_rng(3)
    for _ in range(20):
        draws = rng.integers(0, len(x), len(x))
        pos = table.positions(draws)
        assert table.dk(pos) == empirical_dk_direct(x[draws], normal_cdf)
        assert table.dw(pos) == empirical_dw_direct(x[draws], normal_cdf, _normal_quantiles)


def _resamples(table, count, seed):
    """The identity and ``count`` bootstrap resamples, as sorted positions."""
    n = len(table.x)
    rng = np.random.default_rng(seed)
    return [table.identity] + [table.positions(rng.integers(0, n, n)) for _ in range(count)]


@pytest.mark.parametrize("kind", list(distance_sample_kinds()))
def test_dw_equals_all_levels_formula(kind):
    # Phi^{-1} at the crossed levels only gives the bits of Phi^{-1} at all n - 1
    table = SortedSample(distance_sample_kinds()[kind])
    for pos in _resamples(table, 100, seed=25):
        assert table.dw(pos) == empirical_dw_all_levels(
            table, pos, _normal_quantiles, _cdf_antideriv)


def test_dw_takes_quantiles_of_crossed_levels_only(monkeypatch):
    calls = []

    def spy(p):
        calls.append(p.copy())
        return _normal_quantiles(p)

    monkeypatch.setattr(distance, "_normal_quantiles", spy)
    for kind, x in distance_sample_kinds().items():
        table = SortedSample(x)
        n = len(x)
        level = np.arange(1, n) / n
        for pos in _resamples(table, 20, seed=26):
            calls.clear()
            table.dw(pos)
            cdf = table.cdf[pos]
            crossed = level[(cdf[:-1] < level) & (level < cdf[1:])]
            assert len(calls) == 1 and np.array_equal(calls[0], crossed), kind
            assert len(crossed) < n
            if kind == "random":  # an empirical law crosses Phi at few levels
                assert len(crossed) < n // 10


@pytest.mark.parametrize("kind", list(distance_sample_kinds()))
def test_table_against_scipy_formulas(kind):
    from scipy.special import ndtr, ndtri

    x = distance_sample_kinds()[kind]
    assert empirical_dK(x) == pytest.approx(empirical_dk_direct(x, ndtr), rel=1e-13, abs=1e-16)
    assert empirical_dW(x) == pytest.approx(empirical_dw_direct(x, ndtr, ndtri), rel=1e-13)


def test_normal_quantiles_match_ndtri():
    from scipy.special import ndtri

    p = np.arange(1, 10_000) / 10_000
    q, ref = _normal_quantiles(p), ndtri(p)
    assert q[4999] == ref[4999] == 0.0
    nonzero = ref != 0.0
    assert np.all(np.abs(q - ref)[nonzero] <= 2e-15 * np.abs(ref[nonzero]))


def test_poisson_dk_rows_against_scipy():
    # log pmf = -t + m log t - log m! cancels terms of size t log t, so a
    # last-bit change in log m! moves a row by about t log t ulps
    t = 1.0
    while t <= 1024.0:
        assert poisson_exact_dK(t) == pytest.approx(poisson_dk_scipy(t), rel=1e-11)
        t *= 2.0
