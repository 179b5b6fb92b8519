"""Chaos-expansion kernels, and Var F and M_ij as sums of their contractions.

For a U-statistic of order k with kernel f the i-th expansion kernel is

    f_i(x_1..x_i) = C(k, i) * integral of f(x_1..x_i, y) dmu_t^{k-i},

for i = 1..k (and 0 above k).  The variance identity reads

    Var F = sum_{i=1..k} i! * ||f_i||^2,     ||f_i||^2 = integral of f_i^2 dmu_t^i.

i! ||f_i||^2 is the one contraction class of the groups (i, i), the i!
pairings of two groups of i variables, so Var F and the bound terms M_ij
(groups (i, i, j, j)) are sums of the same kind: ``contraction_sum`` takes
the group sizes and integrates their classes of chaos kernels once per seed
at unit scale, rescaled to mu_t.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .kernels import MarginalIntegration, SymmetricKernel
from .measure import IntensitySpec, NumericalError, mc_integral
from .partitions import check_order, contraction_classes

__all__ = [
    "MCValue",
    "chaos_kernel_values",
    "contraction_sum",
    "variance_from_kernels",
]

_VARIANCE_SEED = 0xC4A05


class MCValue(NamedTuple):
    """A Monte Carlo estimate with its standard error (0 when exact)."""

    value: float
    stderr: float


def chaos_kernel_values(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    i: int,
    x: np.ndarray,
    *,
    mc: Optional[MarginalIntegration] = None,
):
    """Batched values of f_i at (m, i, d) probes; pass ``kernel.absolute``
    for the chaos kernels of |f|.

    Returns (values, stderrs); stderrs vanish when the marginal is analytic.
    """
    k = kernel.order
    check_order(k)
    if not 1 <= i <= k:
        raise ValueError(f"chaos kernel index {i} outside 1..{k}")
    vals, ses = kernel.marginal_with_stderr(intensity, x, i, mc=mc)
    binom = math.comb(k, i)
    return binom * vals, binom * ses


def contraction_sum(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    groups: Tuple[Tuple[int, ...], ...],
    *,
    samples: int,
    rng: Union[np.random.Generator, np.random.SeedSequence],
    mc: MarginalIntegration,
    name: str,
) -> MCValue:
    """Sum over the classes (block_masks, weight) of ``contraction_classes``
    of each group-size tuple ``sizes`` in ``groups`` of weight times the
    integral of prod_a f_{sizes[a]}, one variable per block, where
    factor a reads the blocks whose mask holds bit a and draws its fallback
    marginals from seed ``mc.seed + 7919 (a + 1)``, independent of the others.
    A factor that reads the same size and blocks as an earlier one reuses
    its values when their stderrs are all 0 (an analytic marginal, or f;
    also a fallback whose draws all agreed on every probe of the chunk).

    As mu_t = t mu_1 and f_s scales as t^{k - s}, a class with B blocks is
    t^p times its integral against mu_1, p = B + sum_a (k - sizes[a]); so
    each class is integrated at unit scale with ``samples`` draws and
    scaled, and the stderrs combine in quadrature.  A Generator ``rng`` is
    consumed as given; a SeedSequence is a value, so the unit-scale
    integrals it gives are cached on ``kernel`` and another t only rescales
    them.  ``name`` labels the NumericalError of a non-finite sum.
    """
    cache, key = {}, None  # a Generator's integrals are used once
    if isinstance(rng, np.random.SeedSequence):
        cache = kernel._integral_cache
        entropy = tuple(np.atleast_1d(rng.entropy).tolist())  # int, numpy int or array
        key = (groups, intensity.box, intensity.density, intensity.density_sup,
               intensity.base_integral, samples, mc, entropy, rng.spawn_key, rng.pool_size)
        rng = np.random.default_rng(rng)
    classes = [(s, masks, w) for s in groups for masks, w in contraction_classes(s)]
    if key not in cache:
        cache[key] = _unit_integrals(kernel, intensity, classes, samples, rng, mc)
    k, t = kernel.order, intensity.t
    total = var_acc = 0.0
    for (sizes, masks, weight), (est, se) in zip(classes, cache[key]):
        try:
            scale = weight * t ** (len(masks) + sum(k - s for s in sizes))
        except OverflowError:
            scale = math.inf
        total += scale * est
        var_acc += (scale * se) * (scale * se)
    if not (math.isfinite(total) and math.isfinite(var_acc)):
        raise NumericalError(f"non-finite {name} at t={t:g}")
    return MCValue(total, math.sqrt(var_acc))


def _unit_integrals(kernel, intensity, classes, samples, rng, mc):
    """(estimate, stderr) of each class against mu_1 on the box and density
    of ``intensity``, drawn from ``rng`` class by class."""
    unit = IntensitySpec(intensity.box, 1.0, intensity.density, intensity.density_sup,
                         intensity.base_integral)
    out = []
    for sizes, masks, _ in classes:
        factors = [
            (size, [b for b, m in enumerate(masks) if m >> a & 1],
             replace(mc, seed=mc.seed + 7919 * (a + 1)))
            for a, size in enumerate(sizes)
        ]

        def integrand(w, factors=factors):
            vals, exact = np.ones(len(w)), {}
            for size, blocks, mc_a in factors:
                fv = exact.get((size, *blocks))
                if fv is None:
                    fv, se = chaos_kernel_values(kernel, unit, size, w[:, blocks, :], mc=mc_a)
                    if not se.any():  # exact, so another seed gives the same values
                        exact[(size, *blocks)] = fv
                vals *= fv
            return vals

        out.append(mc_integral(integrand, unit, len(masks), samples, rng))
    return out


def variance_from_kernels(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    *,
    mc_samples: int = 200_000,
    rng: Union[np.random.Generator, np.random.SeedSequence, None] = None,
    mc: Optional[MarginalIntegration] = None,
) -> MCValue:
    """Var F = sum_i i! ||f_i||^2 by ``contraction_sum`` over the groups
    (i, i) for i = 1..k: i! ||f_i||^2 is their one class.  The default
    ``rng`` is SeedSequence(0xC4A05).
    """
    k = kernel.order
    check_order(k)
    groups = tuple((i, i) for i in range(1, k + 1))
    rng = rng if rng is not None else np.random.SeedSequence(_VARIANCE_SEED)
    return contraction_sum(kernel, intensity, groups, samples=mc_samples, rng=rng,
                           mc=mc or MarginalIntegration(), name="Var F")

