"""Chaos-expansion kernels, and Var F and M_ij as sums of their contractions.

For a U-statistic of order k with kernel f the i-th expansion kernel is

    f_i(x_1..x_i) = C(k, i) * integral of f(x_1..x_i, y) dmu_t^{k-i},

for i = 1..k (and 0 above k).  The variance identity reads

    Var F = sum_{i=1..k} i! * ||f_i||^2,     ||f_i||^2 = integral of f_i^2 dmu_t^i.

i! ||f_i||^2 is the one contraction class of the groups (i, i), the i!
pairings of two groups of i variables, so Var F, the bound terms M_ij
(groups (i, i, j, j)) and R_ij (other weights) are sums of the same kind:
``contraction_sum`` takes the group sizes and integrates their classes of
chaos kernels once per seed at unit scale, rescaled to mu_t.
"""

from __future__ import annotations

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
    """
    cache, key = {}, None  # a Generator's integrals are used once
    if isinstance(rng, np.random.SeedSequence):
        cache = kernel._integral_cache
        entropy = tuple(np.atleast_1d(rng.entropy).tolist())  # int, numpy int or array
        key = (groups, intensity.box, intensity.density, intensity.density_sup,
               intensity.base_integral, samples, kernels._FALLBACK, entropy, rng.spawn_key,
               rng.pool_size)
        rng = np.random.default_rng(rng)
    classes = [(s, masks, w) for s in groups for masks, w in contraction_classes(s)]
    if key not in cache:
        cache[key] = _unit_integrals(kernel, intensity, classes, samples, rng)
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
    box and density of ``intensity``, drawn from ``rng`` class by class."""
    unit = IntensitySpec(intensity.box, 1.0, intensity.density, intensity.density_sup,
                         intensity.base_integral)
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
    return contraction_sum(kernel, intensity, groups, samples=mc_samples, rng=rng, name="Var F")

