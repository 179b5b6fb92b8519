"""Distances to the standard normal law.

Three exact computations: the one-sample sup-gap of an empirical
distribution function against Phi (the sup is attained at the jump points,
where both one-sided gaps are evaluated), the first-order Wasserstein
distance of an empirical measure to the normal as the exact integral of
|Fhat - Phi| (piecewise, using the antiderivative s Phi(s) + phi(s) and
splitting segments where Phi crosses the empirical level), and the
Kolmogorov distance of a standardized Poisson(t) variable evaluated over
all of its jump points with a certified negligible tail.

The empirical distances read a ``SortedSample``: the sample sorted once,
with Phi and its antiderivative at the sorted values.  A bootstrap
resample holds only values of the sample, so its distances gather from the
same table; the sample itself is the identity resample.

Nothing here imports scipy: Phi comes from math.erf/erfc and its inverse
from statistics.NormalDist (imported by the first dW).  The Poisson
probabilities take Loader's saddle-point form, which never forms the
cancelling terms -t + m log t - log m!.
"""

from __future__ import annotations

import math

import numpy as np

from .stein import SQRT_2PI, normal_cdf

__all__ = ["SortedSample", "empirical_dK", "empirical_dW", "poisson_exact_dK"]

_TAIL_EPS = 1e-12


def _phi(s):
    return np.exp(-0.5 * s * s) / SQRT_2PI


def _cdf_antideriv(s):
    # d/ds [s Phi(s) + phi(s)] = Phi(s); vanishes at -inf
    return s * normal_cdf(s) + _phi(s)


def _normal_quantiles(p: np.ndarray) -> np.ndarray:
    """Phi^{-1} at each level (Wichura's AS 241, in statistics.NormalDist)."""
    from statistics import NormalDist  # a few ms; only dW needs it

    return np.fromiter(map(NormalDist().inv_cdf, p.tolist()), dtype=float, count=len(p))


class SortedSample:
    """A sample sorted once: the table its empirical distances read.

    ``x`` is the sorted sample, ``cdf`` and ``anti`` are Phi and
    s Phi(s) + phi(s) at x, and ``rank[i]`` is the position of
    ``samples[i]`` in x.  A resample ``samples[draws]`` is the sorted
    positions ``positions(draws)``; ``identity`` is the sample itself.
    """

    def __init__(self, samples):
        x = np.asarray(samples, dtype=float).ravel()
        n = len(x)
        if n == 0:
            raise ValueError("empty sample")
        order = np.argsort(x, kind="stable")
        self.rank = np.empty(n, dtype=np.intp)
        self.rank[order] = np.arange(n)
        self.x = x[order]
        self.cdf = normal_cdf(self.x)
        self.anti = self.x * self.cdf + _phi(self.x)  # _cdf_antideriv(x), Phi reused
        self.identity = np.arange(n)
        self._levels = np.arange(n + 1) / n  # Fhat takes the level k/n after k points

    def positions(self, draws: np.ndarray) -> np.ndarray:
        """Sorted table positions of the resample ``samples[draws]``."""
        return np.sort(self.rank[draws])

    def dk(self, pos: np.ndarray) -> float:
        """sup_s |Fhat(s) - Phi(s)| for the resample at sorted positions ``pos``."""
        c = self.cdf[pos]
        upper = self._levels[1:] - c
        lower = c - self._levels[:-1]
        return float(max(upper.max(), lower.max()))

    def dw(self, pos: np.ndarray) -> float:
        """Wasserstein-1 distance to N(0, 1) of the resample at sorted
        positions ``pos``.

        Exact: integral of |Fhat - Phi| over the real line, with analytic
        tails beyond the extreme order statistics.  Between consecutive
        order statistics a <= b the level Fhat is constant.  A gap that
        Phi does not cross contributes the absolute integral of
        level - Phi; a gap it crosses, Phi(a) < level < Phi(b), splits at
        the crossing, so only those levels take Phi^{-1}.  Ties give
        zero-width gaps.
        """
        x, cdf, anti = self.x[pos], self.cdf[pos], self.anti[pos]
        a, b = x[:-1], x[1:]
        level = self._levels[1:-1]
        piece = np.abs(level * (b - a) - (anti[1:] - anti[:-1]))
        split = np.flatnonzero((cdf[:-1] < level) & (level < cdf[1:]))
        lv = level[split]
        q = _normal_quantiles(lv)
        anti_q = _cdf_antideriv(q)
        left = lv * (q - a[split]) - (anti_q - anti[split])
        right = lv * (b[split] - q) - (anti[split + 1] - anti_q)
        piece[split] = np.abs(left) + np.abs(right)
        tails = anti[0] + anti[-1] - x[-1]  # integral of Phi below x[0], of 1 - Phi above x[-1]
        return float(tails + np.sum(piece))


def empirical_dK(samples) -> float:
    """sup_s |Fhat(s) - Phi(s)| for the empirical law of the samples."""
    table = SortedSample(samples)
    return table.dk(table.identity)


def empirical_dW(samples) -> float:
    """Wasserstein-1 distance of the empirical law to the standard normal
    (see ``SortedSample.dw``)."""
    table = SortedSample(samples)
    return table.dw(table.identity)


# log m! - log(sqrt(2 pi m) (m/e)^m) at m = 1..15 (index 0 unused), then the
# coefficients 1/12, 1/360, 1/1260, 1/1680, 1/1188 of its series in 1/m
_STIRLERR_TABLE = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_S0, _S1, _S2, _S3, _S4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188


def _stirlerr(m: np.ndarray) -> np.ndarray:
    """log m! - log(sqrt(2 pi m) (m/e)^m) for whole numbers m >= 1."""
    nn = m * m
    out = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / m
    small = m <= 15
    out[small] = _STIRLERR_TABLE[m[small].astype(int)]
    return out


def _bd0(x: np.ndarray, t: float) -> np.ndarray:
    """x log(x/t) + t - x, by its series in v = (x - t)/(x + t) where
    |v| < 0.1, so that the terms of size x log x do not cancel."""
    out = x * np.log(x / t) + t - x
    near = np.abs(x - t) < 0.1 * (x + t)
    xn = x[near]
    v = (xn - t) / (xn + t)
    s = (xn - t) * v
    term = 2.0 * xn * v
    v *= v
    j = 1
    while True:
        term *= v
        nxt = s + term / (2 * j + 1)
        if np.array_equal(nxt, s):
            break
        s, j = nxt, j + 1
    out[near] = s
    return out


def _poisson_pmf(t: float, m_hi: int) -> np.ndarray:
    """P(Y = m), Y ~ Poisson(t), for m = 0..m_hi, each within a few ulps of
    the largest: exp(-stirlerr(m) - bd0(m, t)) / sqrt(2 pi m) above 0
    (Loader, "Fast and accurate computation of binomial probabilities",
    2000; the method of R's dpois)."""
    m = np.arange(1.0, m_hi + 1)
    pmf = np.empty(m_hi + 1)
    pmf[0] = math.exp(-t)
    pmf[1:] = np.exp(-_stirlerr(m) - _bd0(m, t)) / np.sqrt(2.0 * math.pi * m)
    return pmf


def _poisson_tail_log(t: float, a: int) -> float:
    """log of the Chernoff bound for P(Y >= a), Y ~ Poisson(t), a > t."""
    return -t + a + a * math.log(t / a)


def poisson_exact_dK(t: float) -> float:
    """Kolmogorov distance between (Y - t)/sqrt(t), Y ~ Poisson(t), and N(0,1).

    The supremum is over the jump points m = 0, 1, ... of the Poisson law;
    at each jump both one-sided gaps are taken.  Jumps above t + 12 sqrt(t)
    are certified negligible (< 1e-12) via a Chernoff bound and the normal
    tail, extending the range if the certificate fails.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    sd = math.sqrt(t)
    m_hi = int(math.ceil(t + 12.0 * sd)) + 1
    while (
        _poisson_tail_log(t, m_hi + 1) > math.log(_TAIL_EPS)
        or normal_cdf(-(m_hi - t) / sd) > _TAIL_EPS
    ):
        m_hi += int(10 * sd) + 10
    m = np.arange(0, m_hi + 1)
    cdf = np.cumsum(_poisson_pmf(t, m_hi))
    phi_at = normal_cdf((m - t) / sd)
    cdf_left = np.concatenate([[0.0], cdf[:-1]])
    gaps = np.maximum(np.abs(cdf - phi_at), np.abs(cdf_left - phi_at))
    return float(gaps.max())
