"""Distances to the standard normal law.

Three exact computations: the one-sample sup-gap of an empirical
distribution function against Phi (the sup is attained at the jump points,
where both one-sided gaps are evaluated), the first-order Wasserstein
distance of an empirical measure to the normal as the exact integral of
|Fhat - Phi| (piecewise, using the antiderivative s Phi(s) + phi(s) and
splitting segments where Phi crosses the empirical level), and the
Kolmogorov distance of a standardized Poisson(t) variable evaluated over
all of its jump points with a certified negligible tail.

scipy is imported inside the functions that use it, so importing pustat
(and running ``pustat bound``) does not load it.
"""

from __future__ import annotations

import math

import numpy as np

from .stein import SQRT_2PI, normal_cdf

__all__ = ["empirical_dK", "empirical_dW", "poisson_exact_dK"]

_TAIL_EPS = 1e-12


def empirical_dK(samples) -> float:
    """sup_s |Fhat(s) - Phi(s)| for the empirical law of the samples."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    c = normal_cdf(x)
    upper = np.arange(1, n + 1) / n - c
    lower = c - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def _phi(s):
    return np.exp(-0.5 * s * s) / SQRT_2PI


def _cdf_antideriv(s):
    # d/ds [s Phi(s) + phi(s)] = Phi(s); vanishes at -inf
    return s * normal_cdf(s) + _phi(s)


def empirical_dW(samples) -> float:
    """Wasserstein-1 distance of the empirical law to the standard normal.

    Exact: integral of |Fhat - Phi| over the real line, with analytic tails
    beyond the extreme order statistics.  Between consecutive order
    statistics a <= b the level Fhat is constant; each gap splits at the
    point where Phi crosses that level, clipped into [a, b], so ties and
    gaps without a crossing give zero-width pieces.
    """
    from scipy.special import ndtri

    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    anti = _cdf_antideriv(x)
    a, b = x[:-1], x[1:]
    level = np.arange(1, n) / n
    q = np.clip(ndtri(level), a, b)
    anti_q = _cdf_antideriv(q)
    left = level * (q - a) - (anti_q - anti[:-1])
    right = level * (b - q) - (anti[1:] - anti_q)
    tails = anti[0] + anti[-1] - x[-1]  # integral of Phi below x[0], of 1 - Phi above x[-1]
    return float(tails + np.sum(np.abs(left) + np.abs(right)))


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
    from scipy.special import gammaln

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
    logpmf = -t + m * math.log(t) - gammaln(m + 1)
    cdf = np.cumsum(np.exp(logpmf))
    phi_at = normal_cdf((m - t) / sd)
    cdf_left = np.concatenate([[0.0], cdf[:-1]])
    gaps = np.maximum(np.abs(cdf - phi_at), np.abs(cdf_left - phi_at))
    return float(gaps.max())
