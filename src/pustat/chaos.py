"""Chaos-expansion kernels, variance from kernels, and first-order integrals.

For a U-statistic of order k with kernel f the i-th expansion kernel is

    f_i(x_1..x_i) = C(k, i) * integral of f(x_1..x_i, y) dmu_t^{k-i},

for i = 1..k (and 0 above k).  The variance identity reads

    Var F = sum_{i=1..k} i! * ||f_i||^2,     ||f_i||^2 = integral of f_i^2 dmu_t^i,

and the first-order stochastic integral has the pathwise form

    I_1(g) = sum_{x in eta} g(x) - integral of g dmu_t.

Expansion kernels can also be estimated empirically as the mean iterated
difference over blocks of replications divided by n!, which must agree
with the analytic formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .kernels import MarginalIntegration, SymmetricKernel
from .measure import IntensitySpec, NumericalError, mc_integral
from .partitions import check_order
from .ustat import _iterated_differences, replication_blocks

__all__ = [
    "MCValue",
    "chaos_kernel_values",
    "kernel_f_i",
    "kernel_empirical",
    "variance_from_kernels",
    "VarianceResult",
    "wiener_ito_I1",
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


def kernel_f_i(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    i: int,
    points,
    *,
    mc: Optional[MarginalIntegration] = None,
) -> MCValue:
    """f_i at a single i-tuple of points."""
    x = np.asarray(points, dtype=float).reshape(1, i, intensity.dim)
    vals, ses = chaos_kernel_values(kernel, intensity, i, x, mc=mc)
    return MCValue(float(vals[0]), float(ses[0]))


def kernel_empirical(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    n: int,
    points,
    reps: int,
    rng: np.random.Generator,
) -> MCValue:
    """Empirical chaos kernel: mean iterated difference over fresh
    configurations drawn in blocks, divided by n!; a standard error needs
    ``reps`` >= 2."""
    if reps < 2:
        raise ValueError("reps must be >= 2")
    zs = np.asarray(points, dtype=float).reshape(n, intensity.dim)
    vals = np.empty(reps)
    for rows, block, sizes in replication_blocks(intensity, reps, rng, queries=n):
        vals[rows] = _iterated_differences(kernel, block, sizes, zs)
    nfact = math.factorial(n)
    est = float(vals.mean()) / nfact
    se = float(vals.std(ddof=1)) / math.sqrt(reps) / nfact
    return MCValue(est, se)


@dataclass
class VarianceResult:
    """Var F with its per-order terms i! * ||f_i||^2."""

    variance: float
    stderr: float
    terms: list  # MCValue per order 1..k


def variance_from_kernels(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    *,
    mc_samples: int = 200_000,
    rng: Optional[np.random.Generator] = None,
    mc: Optional[MarginalIntegration] = None,
) -> VarianceResult:
    """Var F = sum_i i! ||f_i||^2 with each norm integrated by Monte Carlo.

    When f_i itself comes from the Monte Carlo marginal fallback, the square
    is formed as a product of two estimates with independent draws, which
    keeps the norm estimate unbiased.
    """
    k = kernel.order
    check_order(k)
    rng = rng if rng is not None else np.random.default_rng(np.random.SeedSequence(_VARIANCE_SEED))
    mc = mc or MarginalIntegration()
    terms = []
    total = 0.0
    var_total = 0.0
    for i in range(1, k + 1):

        def _sq(x, _i=i):
            a, _ = chaos_kernel_values(kernel, intensity, _i, x, mc=mc)
            b, _ = chaos_kernel_values(
                kernel, intensity, _i, x, mc=replace(mc, seed=mc.seed + 0x517),
            )
            return a * b

        est, se = mc_integral(_sq, intensity, i, mc_samples, rng)
        fact = math.factorial(i)
        terms.append(MCValue(fact * est, fact * se))
        total += fact * est
        var_total += (fact * se) * (fact * se)
    if not (math.isfinite(total) and math.isfinite(var_total)):
        raise NumericalError(f"non-finite Var F at t={intensity.t:g}")
    return VarianceResult(total, math.sqrt(var_total), terms)


def wiener_ito_I1(
    g: Callable[[np.ndarray], np.ndarray],
    config,
    intensity: IntensitySpec,
    *,
    g_integral: Optional[float] = None,
    mc_samples: int = 100_000,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Pathwise I_1(g) = sum over configuration points of g minus its mu_t-integral.

    ``g`` maps (m, d) points to (m,) values; pass the analytic g_integral
    when available (callers should cache a Monte Carlo value otherwise).
    """
    if g_integral is None:
        rng = rng if rng is not None else np.random.default_rng(np.random.SeedSequence(_VARIANCE_SEED + 1))
        g_integral, _ = mc_integral(lambda x: np.asarray(g(x[:, 0, :])), intensity, 1, mc_samples, rng)
    s = float(np.asarray(g(config.points), dtype=float).sum()) if len(config) else 0.0
    return s - float(g_integral)
