"""Chaos-expansion kernels, and Var F and M_ij as sums of their contractions.

For a U-statistic of order k with kernel f the i-th expansion kernel is

    f_i(x_1..x_i) = C(k, i) * integral of f(x_1..x_i, y) dmu_t^{k-i},

for i = 1..k (and 0 above k).  The variance identity reads

    Var F = sum_{i=1..k} i! * ||f_i||^2,     ||f_i||^2 = integral of f_i^2 dmu_t^i.

i! ||f_i||^2 is the one contraction class of the groups (i, i), the i!
pairings of two groups of i variables, so Var F, the bound terms M_ij
(groups (i, i, j, j)) and R_ij (other weights) are sums of the same kind:
``contraction_sum`` takes the group sizes and integrates their classes of
chaos kernels once per seed at unit scale, rescaled to mu_t.  For the 1-D
distance indicator on a box long enough for the class, it can take the
class integral exactly instead (``_exact_unit_integral``), from the cell
algorithm at the end of this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from . import kernels
from .kernels import SymmetricKernel
from .measure import IntensitySpec, NumericalError, mc_integral
from .partitions import check_order, contraction_classes

__all__ = [
    "MCValue",
    "ClassSum",
    "chaos_kernel_values",
    "contraction_sum",
    "variance_from_kernels",
]

_VARIANCE_SEED = 0xC4A05


class MCValue(NamedTuple):
    """A Monte Carlo estimate with its standard error (0 when exact)."""

    value: float
    stderr: float


class ClassSum(MCValue):
    """The MCValue of a ``contraction_sum``, which also records in
    ``fewest_hits`` the fewest nonzero integrand draws of any class it
    sums: a class that few draws reached has a stderr that is itself
    unreliable, however small it reads."""

    def __new__(cls, value: float, stderr: float, fewest_hits: int):
        out = super().__new__(cls, value, stderr)
        out.fewest_hits = fewest_hits
        return out


def chaos_kernel_values(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    i: int,
    x: np.ndarray,
    *,
    stream: int = 0,
):
    """Batched values of f_i at (m, i, d) probes; pass ``kernel.absolute``
    for the chaos kernels of |f|.  A fallback marginal draws from its
    ``stream`` (``SymmetricKernel.marginal_with_stderr``).

    Returns (values, stderrs); stderrs vanish when the marginal is analytic.
    """
    k = kernel.order
    check_order(k)
    if not 1 <= i <= k:
        raise ValueError(f"chaos kernel index {i} outside 1..{k}")
    vals, ses = kernel.marginal_with_stderr(intensity, x, i, stream=stream)
    binom = math.comb(k, i)
    return binom * vals, binom * ses


def contraction_sum(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    groups: Tuple[Tuple[int, ...], ...],
    *,
    samples: int,
    rng: Union[np.random.Generator, np.random.SeedSequence],
    name: str,
    weights: Optional[dict] = None,
    exact: bool = False,
) -> ClassSum:
    """Sum over the classes (block_masks, weight) of ``contraction_classes``
    of each group-size tuple ``sizes`` in ``groups`` of weight times the
    integral of prod_a f_{sizes[a]}, one variable per block, where
    factor a reads the blocks whose mask holds bit a and draws its fallback
    marginals from fallback stream a + 1, independent of the others.
    A factor that reads the same size and blocks as an earlier one reuses
    its values when their stderrs are all 0 (an analytic marginal, or f;
    also a fallback whose draws all agreed on every probe of the chunk).

    As mu_t = t mu_1 and f_s scales as t^{k - s}, a class with B blocks is
    t^p times its integral against mu_1, p = B + sum_a (k - sizes[a]); so
    each class is integrated at unit scale with ``samples`` draws and
    scaled, and the stderrs combine in quadrature.  A Generator ``rng`` is
    consumed as given; a SeedSequence is a value, so the unit-scale
    integrals it gives are cached on ``kernel`` and another t only rescales
    them.  ``name`` labels the NumericalError of a non-finite sum.  The
    result's ``fewest_hits`` counts the nonzero integrand draws of the summed
    class that fewest draws reached (``samples`` when it sums none).
    ``weights`` maps block masks to the weights that replace the partition
    counts, and leaves out the classes it does not name; they are still
    integrated, so one cache entry serves every choice of weights.
    With ``exact`` a class whose integral ``_exact_unit_integral`` knows
    takes that value, with stderr 0 and ``samples`` hits, and only the
    other classes draw from ``rng``, in class order; the route is part of
    the cache key.
    """
    cache, key = {}, None  # a Generator's integrals are used once
    if isinstance(rng, np.random.SeedSequence):
        cache = kernel._integral_cache
        entropy = tuple(np.atleast_1d(rng.entropy).tolist())  # int, numpy int or array
        key = (groups, intensity.box, samples, kernels._FALLBACK, entropy, rng.spawn_key,
               rng.pool_size, exact)
        rng = np.random.default_rng(rng)
    classes = [(s, masks, w) for s in groups for masks, w in contraction_classes(s)]
    if key not in cache:
        known = [_exact_unit_integral(kernel, intensity, s, masks) if exact else None
                 for s, masks, _ in classes]
        drawn = iter(_unit_integrals(
            kernel, intensity, [c for c, v in zip(classes, known) if v is None], samples, rng))
        cache[key] = [next(drawn) if v is None else (v, 0.0, samples) for v in known]
    k, t = kernel.order, intensity.t
    total = var_acc = 0.0
    fewest_hits = samples
    for (sizes, masks, weight), (est, se, hits) in zip(classes, cache[key]):
        weight = weight if weights is None else weights.get(masks)
        if weight is None:
            continue
        fewest_hits = min(fewest_hits, hits)
        try:
            scale = weight * t ** (len(masks) + sum(k - s for s in sizes))
        except OverflowError:
            scale = math.inf
        total += scale * est
        var_acc += (scale * se) * (scale * se)
    if not (math.isfinite(total) and math.isfinite(var_acc)):
        raise NumericalError(f"non-finite {name} at t={t:g}")
    return ClassSum(total, math.sqrt(var_acc), fewest_hits)


def _unit_integrals(kernel, intensity, classes, samples, rng):
    """(estimate, stderr, nonzero draws) of each class against mu_1 on the
    box of ``intensity``, drawn from ``rng`` class by class."""
    unit = IntensitySpec(intensity.box, 1.0)
    out = []
    for sizes, masks, _ in classes:
        factors = [
            (size, [b for b, m in enumerate(masks) if m >> a & 1], a + 1)
            for a, size in enumerate(sizes)
        ]

        hits = [0]

        def integrand(w, factors=factors, hits=hits):
            vals, exact = np.ones(len(w)), {}
            for size, blocks, stream in factors:
                fv = exact.get((size, *blocks))
                if fv is None:
                    fv, se = chaos_kernel_values(kernel, unit, size, w[:, blocks, :],
                                                 stream=stream)
                    if not se.any():  # exact, so another stream gives the same values
                        exact[(size, *blocks)] = fv
                # an overflow gives inf or nan, which mc_integral refuses
                with np.errstate(over="ignore", invalid="ignore"):
                    vals *= fv
            hits[0] += int(np.count_nonzero(vals))
            return vals

        out.append((*mc_integral(integrand, unit, len(masks), samples, rng), hits[0]))
    return out


def variance_from_kernels(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    *,
    mc_samples: int = 200_000,
    rng: Union[np.random.Generator, np.random.SeedSequence, None] = None,
) -> ClassSum:
    """Var F = sum_i i! ||f_i||^2 by ``contraction_sum`` over the groups
    (i, i) for i = 1..k: i! ||f_i||^2 is their one class.  The default
    ``rng`` is SeedSequence(0xC4A05).
    """
    k = kernel.order
    check_order(k)
    groups = tuple((i, i) for i in range(1, k + 1))
    rng = rng if rng is not None else np.random.SeedSequence(_VARIANCE_SEED)
    # Monte Carlo even where the exact route applies: perfbench's Var F
    # reference is a float closed form one ulp off the correctly rounded
    # value, and its zero-tolerance gate would refuse the exact one
    # (ROADMAP item 6)
    return contraction_sum(kernel, intensity, groups, samples=mc_samples, rng=rng, name="Var F")


# ---------------------------------------------------------------------------
# exact class integrals of the 1-D distance indicator
# ---------------------------------------------------------------------------


def _exact_unit_integral(kernel, intensity, sizes, masks):
    """The integral against mu_1 of one class where it is known exactly,
    correctly rounded; None where it is not.

    That is the distance indicator (a kernel with ``pair_radius``, order
    2) on a 1-D box of length L >= (B + 1) r, B the class's block count:
    there the integral is r^{B+s1} (alpha L / r + beta), s1 the number of
    size-1 factors, with the rationals of ``_distance_affine``.  L, r and
    the test are taken in exact rationals of the floats, so the one
    rounding is the last.  ``fractions`` is imported here, at the first
    class that may take the route, not with the package.
    """
    if kernel.pair_radius is None or kernel.order != 2 or intensity.dim != 1:
        return None
    from fractions import Fraction

    ((lo, hi),) = intensity.box
    r = Fraction(kernel.pair_radius)
    length = Fraction(hi) - Fraction(lo)
    if length < (len(masks) + 1) * r:
        return None
    alpha, beta, power = _distance_affine(sizes, masks)
    return float(r**power * (alpha * length / r + beta))


@functools.lru_cache(maxsize=None)
def _distance_affine(sizes, masks):
    """(alpha, beta, B + s1) of a class of the distance indicator.

    Take the blocks of a connected class: they lie within (B - 1) r of the
    leftmost one, and the integrand feels the box only within r of an end.
    So once L >= (B + 1) r, the integral over r^{B+s1} is an affine
    function g(L / r) = alpha L / r + beta of rationals that depend on the
    class alone, and its values at L / r = B + 1 and B + 2 whole cells
    (``_distance_cells``) fix them.
    """
    n = len(masks) + 1
    low = _distance_cells(sizes, masks, n)
    alpha = _distance_cells(sizes, masks, n + 1) - low
    return alpha, low - alpha * n, len(masks) + sizes.count(1)


def _distance_cells(sizes, masks, n):
    """The integral against mu_1 of one class of the chaos kernels of the
    distance indicator on [0, 1] with r = 1/n, n >= 2, over r^{B+s1}, as a
    Fraction.

    ``sizes`` holds 1 or 2 per factor, and factor a reads the blocks whose
    mask holds bit a, in block order, as in ``contraction_sum``.  At unit
    scale f_2(x, y) = 1(|x - y| <= r) and f_1(x) = 2 a(x), a(x) the length
    of [x - r, x + r] within [0, 1].  The box is cut into n cells of width
    r and each block written as x = (c + y) r, so a(x) is 2r in the inner
    cells, r(1 + y) in cell 0 and r(2 - y) in cell n - 1, and f_2 is a
    function of the order of the y's.  The sum runs over the cell tuples
    whose linked blocks lie at most one cell apart; tuples with the same
    cell differences and f_1 kinds share one y-integral.  dx = r^B dy and
    each f_1 factor carries one r, which is the r^{B+s1} left out.
    """
    from fractions import Fraction

    if not (n >= 2 and set(sizes) <= {1, 2}):
        raise ValueError("the cell sum covers order-2 chaos kernels with r = 1/n, n >= 2")
    reads = [[b for b, m in enumerate(masks) if m >> a & 1] for a in range(len(sizes))]
    links = tuple(tuple(blocks) for size, blocks in zip(sizes, reads) if size == 2)
    single_blocks = [blocks[0] for size, blocks in zip(sizes, reads) if size == 1]
    counts = {}
    for cells in _linked_cells(len(masks), links, n):
        diffs = tuple(cells[u] - cells[v] for u, v in links)
        singles = tuple((u, 0 if cells[u] == 0 else 2 if cells[u] == n - 1 else 1)
                        for u in single_blocks)
        counts[diffs, singles] = counts.get((diffs, singles), 0) + 1
    return sum((count * _cells_integral(len(masks), links, *key)
                for key, count in counts.items()), Fraction(0))


def _linked_cells(n_blocks, links, n):
    """Every tuple of cells, one per block, whose linked blocks lie at most
    one cell apart: block u's cell ranges over the cells next to those of
    the earlier blocks linked to it."""
    tuples = [()]
    for u in range(n_blocks):
        earlier = [min(a, b) for a, b in links if max(a, b) == u]
        grown = []
        for cells in tuples:
            lo = max([cells[a] - 1 for a in earlier] + [0])
            hi = min([cells[a] + 1 for a in earlier] + [n - 1])
            grown += [cells + (c,) for c in range(lo, hi + 1)]
        tuples = grown
    return tuples


# 2 a(x) / r on cell 0, an inner cell and cell n - 1, as {power of y: coefficient}
_TWICE_REACH = ({0: 2, 1: 2}, {0: 4}, {0: 4, 1: -2})


def _simplex_denominator(exponents):
    """One over the integral of prod_m z_m^{e_m} over 0 < z_1 < ... < z_B
    < 1, which is prod_m (m + e_1 + ... + e_m)."""
    den, power = 1, 0
    for m, e in enumerate(exponents, start=1):
        power += e
        den *= m + power
    return den


@functools.lru_cache(maxsize=None)
def _cells_integral(n_blocks, links, diffs, singles):
    """The y-integral over [0, 1]^B of the class on one tuple of cells.

    ``links`` are the (u, v) block pairs of the f_2 factors with cell
    differences ``diffs`` = c_u - c_v, and ``singles`` the (block, kind) of
    the f_1 factors.  The f_2 factor is 1 for equal cells, 1(y_u <= y_v)
    for c_u - c_v = 1 and 1(y_v <= y_u) for -1; the f_1 factor is a
    polynomial in y (``_TWICE_REACH``).  Each of the B! orders of the y's
    keeps or drops the whole integrand, and each monomial is integrated
    over its simplex; the terms are summed over one common denominator.
    """
    from fractions import Fraction

    poly = {(0,) * n_blocks: 1}
    for u, kind in singles:
        out = {}
        for exps, coef in poly.items():
            for e, c in _TWICE_REACH[kind].items():
                key = exps[:u] + (exps[u] + e,) + exps[u + 1:]
                out[key] = out.get(key, 0) + coef * c
        poly = out
    terms = []
    for order in itertools.permutations(range(n_blocks)):
        pos = {u: m for m, u in enumerate(order)}
        if all(d == 0 or (pos[u] < pos[v]) == (d == 1) for (u, v), d in zip(links, diffs)):
            terms += [(coef, _simplex_denominator([exps[u] for u in order]))
                      for exps, coef in poly.items()]
    den = math.lcm(*(d for _, d in terms))
    return Fraction(sum(coef * (den // d) for coef, d in terms), den)
