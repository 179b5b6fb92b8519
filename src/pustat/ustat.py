"""Pathwise U-statistics and their Malliavin-type operators.

For a configuration eta and a symmetric kernel f of order k,

    F(eta) = sum of f over all ordered k-tuples of distinct points,

computed as k! times the sum over unordered index combinations.  The
difference (add-one-cost) operator D_z F = F(eta + delta_z) - F(eta) has an
incremental O(n^{k-1}) form: k! times the sum of f(z, subset) over unordered
(k-1)-subsets of existing points.  -L^{-1}(F - EF) -- the inverse
Ornstein-Uhlenbeck generator applied to the centred statistic -- is

    sum_{m=1..k} (1/m) * [ U_m(eta) - integral of f dmu_t^k ],

where U_m is the order-m U-statistic whose kernel is the m-th marginal
integral of f (binomial factor excluded).  Its add-one cost drops the
constants; the order-k marginal is f itself, so U_k = F and the top term
of -D_z L^{-1}F is exactly D_z F / k.

Each operation has one implementation, on a block: configurations stacked
in order with their sizes, as ``replication_blocks`` draws them.  A single
configuration is a block of one.  The distance indicator counts a block in
one call of the grouped counter.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterator, Tuple

import numpy as np

from . import _accel
from .kernels import _EVAL_CHUNK, SymmetricKernel, _cross_values
from .measure import IntensitySpec, PointConfiguration, sample_points

__all__ = [
    "evaluate",
    "evaluate_many",
    "add_one_costs",
    "add_one_costs_many",
    "replication_blocks",
    "inverse_ou_add_one_costs",
    "inverse_ou_add_one_costs_many",
]

_BLOCK_POINTS = 1 << 14  # points (and queries) per block of replications


def _combo_chunks(n: int, k: int, chunk: int = _EVAL_CHUNK) -> Iterator[np.ndarray]:
    """Unordered index k-combinations from range(n) as (m, k) arrays, in
    lexicographic order: each chunk of (k-1)-combinations extended by every
    larger index, in blocks of about ``chunk`` rows."""
    if k == 0:
        yield np.empty((1, 0), dtype=np.intp)
        return
    if n < k:
        return
    if k == 1:
        idx = np.arange(n, dtype=np.intp)[:, None]
        for s in range(0, n, chunk):
            yield idx[s : s + chunk]
        return
    for head in _combo_chunks(n, k - 1, chunk):
        for a, b, w, col in _accel._blocks(head[:, -1] + 1, n, chunk):
            if len(col):
                yield np.concatenate([np.repeat(head[a:b], w, axis=0), col[:, None]], axis=1)


def _subset_sums(values_fn, heads, points: np.ndarray, sizes: np.ndarray, size: int) -> np.ndarray:
    """For configuration b of a block (stacked as in evaluate_many) and each
    (a, d) head of heads[b], the sum of values_fn(head, subset) over the
    unordered ``size``-subsets of its points, as a (b, q) array for
    (b, q, a, d) heads."""
    out = np.zeros(heads.shape[:2])
    # zip stops at the last configuration: np.split gives an empty block one piece
    for acc, head, p in zip(out, heads, np.split(points, np.cumsum(sizes)[:-1])):
        for idx in _combo_chunks(len(p), size):
            for rows, vals in _cross_values(values_fn, head, p[idx]):
                acc[rows] += vals.sum(axis=1)
    return out


def _counted(kernel: SymmetricKernel) -> bool:
    """Whether F and D_z F of the kernel are neighbour counts."""
    return kernel.pair_radius is not None and kernel.order == 2


def evaluate(kernel: SymmetricKernel, config: PointConfiguration) -> float:
    """Sum of f over all ordered k-tuples of distinct configuration points:
    the block of one configuration (see evaluate_many)."""
    return float(evaluate_many(kernel, config.points, np.array([len(config)]))[0])


def replication_blocks(
    intensity: IntensitySpec, reps: int, rng: np.random.Generator, queries: int = 0
) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
    """Draw ``reps`` Poisson configurations from ``rng``, in blocks.

    All counts come from one ``rng.poisson`` call, then each block's points
    from one ``sample_points`` call.  Yields (rows, points, sizes): the
    slice of replications, their points stacked in order, and their counts.
    A block holds at most _BLOCK_POINTS points plus ``queries`` per
    replication, or a single replication.  The points do not depend on the
    cap: consecutive ``rng.random`` calls give the doubles of one call.
    """
    sizes = rng.poisson(intensity.total_mass, reps)
    ends = np.cumsum(sizes + queries)
    start = 0
    while start < reps:
        before = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, before + _BLOCK_POINTS, side="right")), start + 1)
        block = sizes[start:stop]
        yield slice(start, stop), sample_points(intensity, int(block.sum()), rng), block
        start = stop


def _labels(sizes: np.ndarray) -> np.ndarray:
    """Each stacked point's configuration index."""
    return np.repeat(np.arange(len(sizes)), sizes)


def evaluate_many(kernel: SymmetricKernel, points: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """F of each configuration of a block, where configuration b is the next
    sizes[b] rows of ``points``; the distance indicator counts them all in
    one call."""
    if _counted(kernel):
        pairs = _accel.count_group_pairs(points, _labels(sizes), kernel.pair_radius, len(sizes))
        return 2.0 * pairs.astype(float)
    # every k-subset joined to one empty head
    k, heads = kernel.order, np.empty((len(sizes), 1, 0, points.shape[1]))
    return math.factorial(k) * _subset_sums(kernel, heads, points, sizes, k)[:, 0]


def add_one_costs(
    kernel: SymmetricKernel, config: PointConfiguration, zs: np.ndarray
) -> np.ndarray:
    """D_z F = F(eta + delta_z) - F(eta) for each row z of zs: the block of
    one configuration (see add_one_costs_many).

    Incremental form: only tuples containing z are new, so the cost is
    k! * sum over unordered (k-1)-subsets of f(z, subset), an O(n^{k-1})
    computation instead of the O(n^k) difference of two full evaluations.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    return add_one_costs_many(kernel, config.points, np.array([len(config)]), zs[None])[0]


def add_one_costs_many(
    kernel: SymmetricKernel, points: np.ndarray, sizes: np.ndarray, zs: np.ndarray
) -> np.ndarray:
    """add_one_costs of configuration b of a block (stacked as in
    evaluate_many) at its query rows zs[b], as a (b, q) array for (b, q, d)
    query points zs; the distance indicator counts them all in one call."""
    zs = np.asarray(zs, dtype=float)
    if _counted(kernel):
        b, q, d = zs.shape
        query_labels = np.repeat(np.arange(b), q)
        counts = _accel.count_neighbors(
            points, zs.reshape(b * q, d), kernel.pair_radius, _labels(sizes), query_labels
        )
        return 2.0 * counts.astype(float).reshape(b, q)
    k = kernel.order
    return math.factorial(k) * _subset_sums(kernel, zs[:, :, None], points, sizes, k - 1)


def inverse_ou_add_one_costs(
    kernel: SymmetricKernel, config: PointConfiguration, intensity: IntensitySpec, zs: np.ndarray
) -> np.ndarray:
    """-D_z L^{-1}(F - EF) for each row z of zs: the block of one
    configuration (see inverse_ou_add_one_costs_many)."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))[None]
    sizes = np.array([len(config)])
    d = add_one_costs_many(kernel, config.points, sizes, zs)
    return inverse_ou_add_one_costs_many(kernel, config.points, sizes, intensity, zs, d)[0]


def inverse_ou_add_one_costs_many(
    kernel: SymmetricKernel, points: np.ndarray, sizes: np.ndarray, intensity: IntensitySpec,
    zs: np.ndarray, d: np.ndarray,
) -> np.ndarray:
    """-D_z L^{-1}(F - EF) of configuration b of a block (stacked as in
    evaluate_many) at its query rows zs[b], as a (b, q) array, given the
    block's add-one costs d = add_one_costs_many(kernel, points, sizes, zs).

    Add-one cost of the marginal U-statistics: the constant terms cancel,
    leaving sum_{m=1..k} (m-1)! * sum over (m-1)-subsets of
    marginal_m(z, subset).  The order-k marginal is f itself, so the top
    term is D_z F / k; it is added last.  The order-1 term does not depend
    on the configuration: one marginal call gives it for all rows.
    """
    (b, q, dim), heads = zs.shape, zs[:, :, None]
    lower = np.zeros((b, q))
    if kernel.order > 1:
        lower += kernel.marginal(intensity, zs.reshape(b * q, 1, dim), 1).reshape(b, q)
    for m in range(2, kernel.order):
        marginal = partial(kernel.marginal, intensity, i=m)
        lower += math.factorial(m - 1) * _subset_sums(marginal, heads, points, sizes, m - 1)
    return d / kernel.order + lower
