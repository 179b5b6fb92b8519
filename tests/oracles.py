"""Independent oracle implementations used to pin expected test values.

Everything here deliberately avoids the code paths under test: neighbour
counts come from the full matrix of squared distances, partitions from
filtering a plain restricted-growth enumeration of ALL set partitions, the
Stein solution from direct numerical quadrature of its defining integral,
the Wasserstein distance from a Riemann sum, the Poisson Kolmogorov
distance from high-precision arithmetic, and M_ij from its class integrals
run at the actual t instead of at unit scale.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm


# ---------------------------------------------------------------------------
# neighbour counts: every pair, no band, no blocks
# ---------------------------------------------------------------------------


def within_r_matrix(points, queries, r):
    """(m, n) booleans: query q within distance r of point j, by sum(dx**2) <= r*r."""
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    return d2 <= r * r


def brute_force_pairs(points, r):
    """Unordered pairs of distinct indices at distance <= r."""
    within = within_r_matrix(points, points, r)
    return int(np.triu(within, k=1).sum())


def brute_force_neighbors(points, queries, r):
    """For each query, the number of points at distance <= r."""
    return within_r_matrix(points, queries, r).sum(axis=1)


# ---------------------------------------------------------------------------
# set partitions: plain enumeration + direct filtering of the three rules
# ---------------------------------------------------------------------------


def all_rgs(n):
    """Every restricted-growth string of length n (all set partitions)."""
    a = [0] * n
    b = [1] * n  # b[v] = 1 + max(a[:v])
    while True:
        yield a
        v = n - 1
        while v > 0 and a[v] == b[v]:
            v -= 1
        if v == 0:
            return
        a[v] += 1
        nb = b[v] + (1 if a[v] == b[v] else 0)
        for w in range(v + 1, n):
            a[w] = 0
            b[w] = nb


def _admissible(rgs, groups):
    """Direct check of the three rules on one assignment string."""
    nb = max(rgs) + 1
    masks = [0] * nb
    sizes = [0] * nb
    for v, blk in enumerate(rgs):
        bit = 1 << groups[v]
        if masks[blk] & bit:
            return False  # repeated group inside a block
        masks[blk] |= bit
        sizes[blk] += 1
    if min(sizes) < 2:
        return False
    # disconnected iff some proper group bipartition contains every block
    for side in (1, 3, 5, 7, 9, 11, 13):  # subsets of {0..3} containing group 0
        if all((m & side) == m or (m & side) == 0 for m in masks):
            return False
    return True


def brute_force_partitions(i, j):
    """All admissible partitions for group sizes (i, i, j, j).

    Returns the set of canonicalized partitions, each a frozenset of
    frozensets of (group, slot) pairs with groups in 1..4.
    """
    return brute_force_partitions_multi([(i, j)])[(i, j)]


def brute_force_partitions_multi(cases):
    """One enumeration sweep per distinct variable count, filtered per case."""
    by_n = {}
    for i, j in cases:
        by_n.setdefault(2 * i + 2 * j, []).append((i, j))
    out = {}
    for n, case_list in by_n.items():
        prepped = []
        for i, j in case_list:
            groups = [0] * i + [1] * i + [2] * j + [3] * j
            labels = (
                [(1, s) for s in range(1, i + 1)]
                + [(2, s) for s in range(1, i + 1)]
                + [(3, s) for s in range(1, j + 1)]
                + [(4, s) for s in range(1, j + 1)]
            )
            prepped.append(((i, j), groups, labels, set()))
        for rgs in all_rgs(n):
            for case, groups, labels, found in prepped:
                if _admissible(rgs, groups):
                    nb = max(rgs) + 1
                    blocks = [[] for _ in range(nb)]
                    for v, blk in enumerate(rgs):
                        blocks[blk].append(labels[v])
                    found.add(frozenset(frozenset(b) for b in blocks))
        for case, _, _, found in prepped:
            out[case] = found
    return out


# ---------------------------------------------------------------------------
# Stein solution by direct quadrature of its defining integral
# ---------------------------------------------------------------------------


def stein_g_quadrature(s, w):
    """g_s(w) = e^{w^2/2} * integral_{-inf}^{w} (1(u <= s) - Phi(s)) e^{-u^2/2} du."""
    phi_s = norm.cdf(s)

    def integrand(u):
        return ((u <= s) - phi_s) * math.exp(-0.5 * u * u)

    if w <= s:
        val, _ = quad(integrand, -np.inf, w, limit=200)
    else:
        # split at the kink for the quadrature's sake
        a, _ = quad(integrand, -np.inf, s, limit=200)
        b, _ = quad(integrand, s, w, limit=200)
        val = a + b
    return math.exp(0.5 * w * w) * val


# ---------------------------------------------------------------------------
# Wasserstein distance of an empirical law to N(0,1) by Riemann sum
# ---------------------------------------------------------------------------


def wasserstein_riemann(samples, step=1e-4, span=10.0):
    """integral of |Fhat - Phi| on [-span, span] by the midpoint rule.

    Cells are aligned with the sample points (the jumps of Fhat), so the
    empirical level is exact within every cell; no antiderivatives and no
    crossing analysis, to stay independent of the implementation.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    cuts = np.concatenate([[-span], x[(x > -span) & (x < span)], [span]])
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        m = max(int(math.ceil((b - a) / step)), 1)
        mids = a + (b - a) * (np.arange(m) + 0.5) / m
        fhat = np.searchsorted(x, mids, side="right") / len(x)
        total += float(np.sum(np.abs(fhat - norm.cdf(mids)))) * (b - a) / m
    return total


# ---------------------------------------------------------------------------
# Poisson Kolmogorov distance in high-precision arithmetic
# ---------------------------------------------------------------------------


def poisson_dk_mpmath(t, m_max=None):
    """Brute-force sup gap over the Poisson jumps at 50 significant digits."""
    import mpmath as mp

    with mp.workdps(50):
        t_mp = mp.mpf(t)
        if m_max is None:
            m_max = int(t + 12 * math.sqrt(t)) + 1
        sd = mp.sqrt(t_mp)
        best = mp.mpf(0)
        cdf = mp.mpf(0)
        log_t = mp.log(t_mp)
        for m in range(m_max + 1):
            left = cdf
            cdf += mp.e ** (-t_mp + m * log_t - mp.loggamma(m + 1))
            ph = mp.ncdf((m - t_mp) / sd)
            best = max(best, abs(cdf - ph), abs(left - ph))
        return float(best)


# ---------------------------------------------------------------------------
# M_ij with every contraction class integrated against mu_t itself
# ---------------------------------------------------------------------------


def mij_at_t(kernel, intensity, i, j, samples, rng, mc):
    """M_ij as the weighted sum of its class integrals against mu_t.

    Draws from ``rng`` class by class in the order of
    ``contraction_classes(min(i, j), max(i, j))``, with the per-factor
    marginal seeds of ``compute_Mij``; no rescaling in t and no cache.
    """
    from dataclasses import replace

    from pustat.chaos import chaos_kernel_values
    from pustat.measure import mc_integral
    from pustat.partitions import contraction_classes

    i, j = min(i, j), max(i, j)
    sizes = (i, i, j, j)
    factor_mc = [replace(mc, seed=mc.seed + 7919 * (a + 1)) for a in range(4)]
    total = 0.0
    var_acc = 0.0
    for masks, weight in contraction_classes(i, j):
        columns = [[b for b, m in enumerate(masks) if m >> a & 1] for a in range(4)]

        def integrand(w, columns=columns):
            vals = np.ones(len(w))
            for size, idx, mc_a in zip(sizes, columns, factor_mc):
                fv, _ = chaos_kernel_values(
                    kernel, intensity, size, w[:, idx, :], absolute=True, mc=mc_a
                )
                vals = vals * fv
            return vals

        est, se = mc_integral(integrand, intensity, len(masks), samples, rng)
        total += weight * est
        var_acc += (weight * se) ** 2
    return total, math.sqrt(var_acc)


# ---------------------------------------------------------------------------
# misc probability facts
# ---------------------------------------------------------------------------


def poisson_central_moment4(t):
    """E (Y - t)^4 for Y ~ Poisson(t): fourth cumulant t plus 3 Var^2."""
    return t + 3.0 * t * t
