"""Independent oracle implementations used to pin expected test values.

Everything here deliberately avoids the code paths under test: neighbour
counts come from the full matrix of squared distances, partitions from
filtering a plain restricted-growth enumeration of ALL set partitions (an
int8 array filtered column by column, checked against a string-by-string
Python walk for small n), the
Stein solution from direct numerical quadrature of its defining integral,
the Wasserstein distance from a Riemann sum, the Stein terms' sup term by
evaluating its sample function at every breakpoint and just below each
one, the empirical distances by
sorting and evaluating each sample anew (and dW from Phi^{-1} at every
level k/n), the Poisson Kolmogorov distance
from high-precision arithmetic and from scipy's gammaln and ndtr, a Monte
Carlo integral from one draw of all its samples, and M_ij and Var F from
their integrals run at the actual t instead of at unit scale.  The one
exception is the exact class integral of the 1-D distance indicator at
r = 1/n, which runs the package's own cell algorithm at whole cells; the
tests that pin the package's exact route also check it against code it
does not share (closed forms, and plain Monte Carlo at a non-whole L/r).

The Malliavin operators that the certificates do not call live here too,
written from their definitions: D^n F by inclusion-exclusion over augmented
configurations, empirical chaos kernels as mean iterated differences, and
pathwise I_1 and -L^{-1}F.  So do the helpers only tests use: a scaled
kernel, a symmetry check, a configuration with added atoms, the
per-replication streams of the acceptance suite, and a child process's
peak memory measured from a bare launcher.
"""

import functools
import itertools
import math
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, ndtr
from scipy.stats import norm

from pustat.chaos import MCValue, _distance_cells, chaos_kernel_values
from pustat.measure import PointConfiguration, mc_integral, sample_points
from pustat.partitions import contraction_classes
from pustat.ustat import evaluate_many, replication_blocks


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
# set partitions: every restricted-growth string, filtered by the three rules
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


def all_rgs_array(n):
    """Every restricted-growth string of length n as the rows of an int8
    array, built level by level: a row whose largest label is b extends
    by each of 0..b+1."""
    rows = np.zeros((1, 1), dtype=np.int8)
    top = np.zeros(1, dtype=np.int8)
    for _ in range(1, n):
        width = top.astype(np.int32) + 2  # Bell(n) rows index in int32 for n <= 15
        parent = np.repeat(np.arange(len(rows), dtype=np.int32), width)
        first = np.repeat(np.cumsum(width, dtype=np.int32) - width, width)
        label = (np.arange(len(parent), dtype=np.int32) - first).astype(np.int8)
        rows = np.concatenate([rows[parent], label[:, None]], axis=1)
        top = np.maximum(top[parent], label)
    return rows


_SEPARATORS = (1, 3, 5, 7, 9, 11, 13)  # subsets of {0..3} containing group 0


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
    for side in _SEPARATORS:
        if all((m & side) == m or (m & side) == 0 for m in masks):
            return False
    return True


def _admissible_members(rows, groups):
    """The three rules applied to whole columns.  Returns, for each row
    that obeys them, the bit mask of the variables under each label (0 for
    an unused label), an (m, n) uint16 array."""
    n = len(groups)
    keep = np.ones(len(rows), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if groups[u] == groups[v]:
                keep &= rows[:, u] != rows[:, v]  # repeated group inside a block
    rows = rows[keep]
    m = len(rows)
    at = np.arange(m)
    sizes = np.zeros((m, n), dtype=np.int8)
    masks = np.zeros((m, n), dtype=np.uint8)  # group mask of each label
    members = np.zeros((m, n), dtype=np.uint16)
    for v in range(n):
        sizes[at, rows[:, v]] += 1
        masks[at, rows[:, v]] |= 1 << groups[v]
        members[at, rows[:, v]] |= 1 << v
    keep = (sizes != 1).all(axis=1)  # a used label has at least 2 members
    # disconnected iff some proper group bipartition contains every block;
    # an unused label has mask 0, which every side contains
    for side in _SEPARATORS:
        cut = masks & side
        keep &= ((cut != 0) & (cut != masks)).any(axis=1)
    return members[keep]


def _case_labels(i, j):
    """Group (0..3) and (group, slot) label of each variable of case (i, j)."""
    groups = [0] * i + [1] * i + [2] * j + [3] * j
    labels = (
        [(1, s) for s in range(1, i + 1)]
        + [(2, s) for s in range(1, i + 1)]
        + [(3, s) for s in range(1, j + 1)]
        + [(4, s) for s in range(1, j + 1)]
    )
    return groups, labels


def _blocks_by_mask(labels):
    """The block of each bit mask of variables, as a frozenset of labels."""
    n = len(labels)
    return [frozenset(labels[v] for v in range(n) if mask >> v & 1) for mask in range(1 << n)]


def _as_partition(rgs, labels):
    """The partition of the labels that one assignment string makes."""
    blocks = {}
    for v, blk in enumerate(rgs):
        blocks.setdefault(blk, []).append(labels[v])
    return frozenset(frozenset(b) for b in blocks.values())


def brute_force_partitions(i, j):
    """All admissible partitions for group sizes (i, i, j, j).

    Returns the set of canonicalized partitions, each a frozenset of
    frozensets of (group, slot) pairs with groups in 1..4.
    """
    return brute_force_partitions_multi([(i, j)])[(i, j)]


def brute_force_partitions_multi(cases):
    """One enumeration array per distinct variable count, filtered per case."""
    by_n = {}
    for i, j in cases:
        by_n.setdefault(2 * i + 2 * j, []).append((i, j))
    out = {}
    for n, case_list in by_n.items():
        rows = all_rgs_array(n)
        for i, j in case_list:
            groups, labels = _case_labels(i, j)
            blocks = _blocks_by_mask(labels)
            out[(i, j)] = {
                frozenset(blocks[mask] for mask in row if mask)
                for row in _admissible_members(rows, groups).tolist()
            }
    return out


def walk_partitions(i, j):
    """The admissible partitions by a plain Python walk over ``all_rgs``,
    string by string: the check of the array oracle for small n."""
    groups, labels = _case_labels(i, j)
    return {
        _as_partition(rgs, labels)
        for rgs in all_rgs(2 * i + 2 * j)
        if _admissible(rgs, groups)
    }


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
# the Stein terms' sup term: its sample function at every breakpoint
# ---------------------------------------------------------------------------


def stein_sup_sample(g, top, c, s):
    """The sup term's sample function at each level of ``s``:

        h(s) = mean over b of sum over z of c[b, z] (1(top[b, z] > s) - 1(g[b] > s)),

    for each replication's G in ``g`` (reps,), its G + D_z G in ``top`` and
    its weights mass * D_z G |D_z L^{-1} G| / z_samples in ``c`` (reps, z)."""
    s = np.asarray(s, dtype=float)[:, None, None]
    jumps = (top[None] > s).astype(float) - (g[None, :, None] > s)
    return (jumps * c[None]).sum(axis=2).mean(axis=1)


def stein_sup_brute_force(g, top, c):
    """max of ``stein_sup_sample`` over every breakpoint and just below each."""
    points = np.unique(np.concatenate([g, top.ravel()]))
    levels = np.concatenate([points, np.nextafter(points, -np.inf)])
    return float(stein_sup_sample(g, top, c, levels).max())


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
# empirical distances: every sample sorted and evaluated anew
# ---------------------------------------------------------------------------


def distance_sample_kinds():
    """Random, tied (rounded to 1/8), one-point and two-point samples."""
    rng = np.random.default_rng(12)
    return {
        "random": rng.normal(size=500) * 1.2 + 0.1,
        "tied_eighths": np.round(rng.normal(size=500) * 8.0) / 8.0,
        "one_point": np.array([0.3]),
        "two_points": np.array([1.5, -0.25]),
    }


def empirical_dk_direct(samples, cdf):
    """sup |Fhat - Phi| of the sorted sample, with Phi = ``cdf``."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    c = cdf(x)
    return float(max((np.arange(1, n + 1) / n - c).max(), (c - np.arange(0, n) / n).max()))


def empirical_dw_direct(samples, cdf, quantile):
    """Integral of |Fhat - Phi|: each gap split where Phi (``cdf``) crosses
    its level (at ``quantile`` of the level, clipped into the gap)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)

    def antideriv(s):
        return s * cdf(s) + np.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)

    anti = antideriv(x)
    a, b = x[:-1], x[1:]
    level = np.arange(1, n) / n
    q = np.clip(quantile(level), a, b)
    anti_q = antideriv(q)
    left = level * (q - a) - (anti_q - anti[:-1])
    right = level * (b - q) - (anti[1:] - anti_q)
    return float(anti[0] + anti[-1] - x[-1] + np.sum(np.abs(left) + np.abs(right)))


def empirical_dw_all_levels(table, pos, quantile, antideriv):
    """``SortedSample.dw`` of the resample at sorted positions ``pos`` from
    Phi^{-1} at every level k/n, 0 < k < n: a gap splits where its level's
    quantile lies strictly inside it.  With the program's ``quantile`` and
    ``antideriv`` (s Phi(s) + phi(s)) it is a bit-for-bit reference."""
    x, anti = table.x[pos], table.anti[pos]
    n = len(x)
    a, b = x[:-1], x[1:]
    level = np.arange(1, n) / n
    crossing = quantile(level)
    anti_crossing = antideriv(crossing)
    piece = np.abs(level * (b - a) - (anti[1:] - anti[:-1]))
    split = np.flatnonzero((crossing > a) & (crossing < b))
    q, anti_q, lv = crossing[split], anti_crossing[split], level[split]
    left = lv * (q - a[split]) - (anti_q - anti[split])
    right = lv * (b[split] - q) - (anti[split + 1] - anti_q)
    piece[split] = np.abs(left) + np.abs(right)
    return float(anti[0] + anti[-1] - x[-1] + np.sum(piece))


# ---------------------------------------------------------------------------
# Poisson Kolmogorov distance from scipy and in high-precision arithmetic
# ---------------------------------------------------------------------------


def poisson_dk_scipy(t):
    """The Poisson sup gap over m <= m_hi with scipy's gammaln and ndtr."""
    sd = math.sqrt(t)
    m_hi = int(math.ceil(t + 12.0 * sd)) + 1
    while (-t + (m_hi + 1) + (m_hi + 1) * math.log(t / (m_hi + 1)) > math.log(1e-12)
           or ndtr(-(m_hi - t) / sd) > 1e-12):
        m_hi += int(10 * sd) + 10
    m = np.arange(0, m_hi + 1)
    cdf = np.cumsum(np.exp(-t + m * math.log(t) - gammaln(m + 1)))
    phi_at = ndtr((m - t) / sd)
    cdf_left = np.concatenate([[0.0], cdf[:-1]])
    return float(np.maximum(np.abs(cdf - phi_at), np.abs(cdf_left - phi_at)).max())


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
# Monte Carlo integrals in one draw; M_ij and Var F against mu_t itself
# ---------------------------------------------------------------------------


def mc_integral_single_shot(g, intensity, n, samples, rng):
    """``mc_integral`` with every sample drawn at once and one call of g."""
    x = sample_points(intensity, samples * n, rng).reshape(samples, n, intensity.dim)
    vals = np.asarray(g(x), dtype=float).reshape(samples)
    scale = intensity.total_mass**n
    return float(vals.mean()) * scale, float(vals.std(ddof=1)) / math.sqrt(samples) * scale


def mij_at_t(kernel, intensity, i, j, samples, rng):
    """M_ij as the weighted sum of its class integrals against mu_t.

    Draws from ``rng`` class by class in the order of
    ``contraction_classes((i, i, j, j))``, (i, j) taken as (min, max), with
    the per-factor fallback streams of ``compute_Mij`` (factor a on stream
    a + 1); no rescaling in t and no cache.
    """
    i, j = min(i, j), max(i, j)
    absolute = kernel.absolute
    sizes = (i, i, j, j)
    total = 0.0
    var_acc = 0.0
    for masks, weight in contraction_classes(sizes):
        columns = [[b for b, m in enumerate(masks) if m >> a & 1] for a in range(4)]

        def integrand(w, columns=columns):
            vals = np.ones(len(w))
            for a, (size, idx) in enumerate(zip(sizes, columns)):
                fv, _ = chaos_kernel_values(absolute, intensity, size, w[:, idx, :], stream=a + 1)
                vals = vals * fv
            return vals

        est, se = mc_integral(integrand, intensity, len(masks), samples, rng)
        total += weight * est
        var_acc += (weight * se) ** 2
    return total, math.sqrt(var_acc)


def variance_at_t(kernel, intensity, samples, rng):
    """Var F = sum_i i! ||f_i||^2, each norm the integral against mu_t of a
    product of two chaos kernels.

    Draws from ``rng`` order by order, with the factor fallback streams of
    ``contraction_sum`` (factor a on stream a + 1); no rescaling in t and
    no cache.
    """
    total = 0.0
    var_acc = 0.0
    for i in range(1, kernel.order + 1):

        def integrand(x, i=i):
            a, _ = chaos_kernel_values(kernel, intensity, i, x, stream=1)
            b, _ = chaos_kernel_values(kernel, intensity, i, x, stream=2)
            return a * b

        est, se = mc_integral(integrand, intensity, i, samples, rng)
        total += math.factorial(i) * est
        var_acc += (math.factorial(i) * se) ** 2
    return total, math.sqrt(var_acc)


# ---------------------------------------------------------------------------
# exact class integrals of the 1-D distance indicator at r = 1/n
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def distance_class_exact(sizes, masks, n):
    """The exact integral against mu_1 of one contraction class of the chaos
    kernels of the distance indicator (order 2) on [0, 1] and r = 1/n,
    n >= 2, as a Fraction.

    ``sizes`` holds 1 or 2 per factor, and factor a reads the blocks whose
    mask holds bit a, in block order, as in ``chaos.contraction_sum``.  The
    cell algorithm is the program's own (``chaos._distance_cells``, the
    integral over r^{B+s1}, s1 the number of size-1 factors), run at whole
    cells with no affine form, so it covers neither boxes of dimension 2 or
    more nor an r that does not divide the box length into whole cells.
    """
    return _distance_cells(sizes, masks, n) * Fraction(1, n) ** (len(masks) + sizes.count(1))


def distance_contraction_exact(groups, n, t):
    """The exact ``contraction_sum`` of the distance indicator with r = 1/n
    on [0, 1] at intensity t (an int or Fraction): over each tuple of group
    sizes in ``groups`` and each class of ``contraction_classes(sizes)``,
    weight * t^p * ``distance_class_exact``, p = B + sum_a (2 - sizes[a]).
    Var F is groups ((1, 1), (2, 2)) and M_ij is ((i, i, j, j),).
    """
    total = Fraction(0)
    for sizes in groups:
        for masks, weight in contraction_classes(sizes):
            p = len(masks) + sum(2 - s for s in sizes)
            total += weight * Fraction(t) ** p * distance_class_exact(sizes, masks, n)
    return total


# ---------------------------------------------------------------------------
# misc probability facts
# ---------------------------------------------------------------------------


def poisson_central_moment4(t):
    """E (Y - t)^4 for Y ~ Poisson(t): fourth cumulant t plus 3 Var^2."""
    return t + 3.0 * t * t


# ---------------------------------------------------------------------------
# Malliavin operators from their definitions
# ---------------------------------------------------------------------------

_MAX_ITERATED = 20  # inclusion-exclusion guard: 2^n terms


def iterated_difference(kernel, config, zs):
    """The n-fold difference D^n F at points zs, by inclusion-exclusion.

    Exact sum of (-1)^(n-|I|) F(eta + sum_{i in I} delta_{z_i}) over all
    2^n subsets I; refuses n > 20.  The block of one configuration (see
    iterated_differences).
    """
    sizes = np.array([len(config)])
    return float(iterated_differences(kernel, config.points, sizes, zs)[0])


def iterated_differences(kernel, points, sizes, zs):
    """iterated_difference of each configuration of a block (stacked as in
    ``evaluate_many``) at the same points zs: for each subset of zs, one
    evaluate_many call on the block with the subset after every
    configuration."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    n = len(zs)
    if n < 1:
        raise ValueError("need at least one difference point")
    if n > _MAX_ITERATED:
        raise ValueError(f"iterated difference limited to {_MAX_ITERATED} points")
    b = len(sizes)
    ends = np.cumsum(sizes)
    total = np.zeros(b)
    for mask in range(1 << n):
        chosen = zs[[i for i in range(n) if (mask >> i) & 1]]
        c = len(chosen)
        aug = np.insert(points, np.repeat(ends, c), np.tile(chosen, (b, 1)), axis=0)
        sign = -1.0 if (n - c) % 2 else 1.0
        total += sign * evaluate_many(kernel, aug, sizes + c)
    return total


def kernel_empirical(kernel, intensity, n, points, reps, rng):
    """Empirical chaos kernel: mean iterated difference over fresh
    configurations drawn in blocks, divided by n!; a standard error needs
    ``reps`` >= 2."""
    if reps < 2:
        raise ValueError("reps must be >= 2")
    zs = np.asarray(points, dtype=float).reshape(n, intensity.dim)
    vals = np.empty(reps)
    for rows, block, sizes in replication_blocks(intensity, reps, rng, queries=n):
        vals[rows] = iterated_differences(kernel, block, sizes, zs)
    nfact = math.factorial(n)
    est = float(vals.mean()) / nfact
    se = float(vals.std(ddof=1)) / math.sqrt(reps) / nfact
    return MCValue(est, se)


def wiener_ito_I1(g, config, intensity, *, g_integral):
    """Pathwise I_1(g) = sum over configuration points of g minus
    ``g_integral``, its integral against ``intensity``; ``g`` maps (m, d)
    points to (m,) values."""
    s = float(np.asarray(g(config.points), dtype=float).sum()) if len(config) else 0.0
    return s - float(g_integral)


def inverse_ou_pathwise(kernel, config, intensity):
    """-L^{-1}(F - EF) = sum_{m=1..k} (U_m - integral of f dmu_t^k) / m at
    the configuration, where U_m sums the m-th marginal of f over ordered
    m-tuples of distinct points: each unordered m-subset, times m!."""
    full = kernel.full_integral(intensity)
    n = len(config)
    out = 0.0
    for m in range(1, kernel.order + 1):
        idx = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp).reshape(-1, m)
        marg = kernel.marginal(intensity, config.points[idx], m)
        out += (math.factorial(m) * float(marg.sum()) - full) / m
    return out


# ---------------------------------------------------------------------------
# helpers only tests use
# ---------------------------------------------------------------------------


def with_points(config, zs):
    """The configuration with extra atoms at zs, one point or rows of points."""
    zs = np.asarray(zs, dtype=float).reshape(-1, config.dim)
    return PointConfiguration(np.vstack([config.points, zs]))


def replication_rng(seed: int, index: int) -> np.random.Generator:
    """Independent child stream for replication ``index`` of master ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(index),)))


def scale_kernel(kernel, c):
    """The kernel c*f, with marginals scaled accordingly; its |f| is
    |c| times the |f| of ``kernel``."""
    if not abs(c) <= sys.float_info.max:
        raise ValueError("c must be finite")
    c = float(c)

    def _wrap(fn):
        if fn is None:
            return None
        return lambda *args: c * fn(*args)

    nonnegative = kernel.nonnegative and c >= 0
    return replace(
        kernel,
        name=f"{kernel.name}*{c:g}",
        eval_fn=_wrap(kernel.eval_fn),
        marginal_fn=_wrap(kernel.marginal_fn),
        pair_radius=None,
        nonnegative=nonnegative,
        abs_kernel=None if nonnegative else scale_kernel(kernel.absolute, abs(c)),
        params={**kernel.params, "scale": c},
    )


def symmetry_check(kernel, trials=64, rng=None, dim=1, rtol=1e-12):
    """True iff f agrees under random argument permutations on random probes."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    k = kernel.order
    if k == 1:
        return True
    x = rng.random((trials, k, dim))
    base = kernel(x)
    for _ in range(3):
        perm = rng.permutation(k)
        diff = np.abs(kernel(x[:, perm, :]) - base)
        if np.any(diff > rtol * np.maximum(1.0, np.abs(base))):
            return False
    return True


# ---------------------------------------------------------------------------
# a child's peak memory, from a launcher that imported nothing
# ---------------------------------------------------------------------------

# Linux carries a process's peak RSS across fork and exec into the child's
# ru_maxrss, so a child started from the test process would read at least
# the test process's own peak; one started by ``python -S`` reads its own.
_BARE_LAUNCHER = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode\n"
    "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def child_peak_rss_mb(argv, env=None, cwd=None):
    """(exit code, peak RSS in MiB) of ``argv`` run from a bare launcher."""
    run = subprocess.run([sys.executable, "-S", "-c", _BARE_LAUNCHER, *argv], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True)
    code, kib = run.stdout.split()
    return int(code), int(kib) / 1024.0
