"""Bound certificates for the Gaussian approximation of Poisson U-statistics.

The computable core is the family of partition-indexed integrals

    M_ij = sum over valid partitions p of the contracted product
           integral of (fbar_i x fbar_i x fbar_j x fbar_j)_p dmu_t^{|p|},

where fbar_i are the chaos kernels of |f| (``kernel.absolute``) and the
contraction replaces all variables sharing a block of p by one integration
variable.  The integral of p depends only on the multiset of its blocks'
group masks, so ``compute_Mij`` passes the group sizes (i, i, j, j) to
``chaos.contraction_sum``, the integrator that Var F uses too, which
integrates their contraction classes weighted by their numbers of
partitions.  M_ij = M_ji; ``bound_report`` integrates i <= j only and mirrors
the result.  From these and Var F:

    dK <= 19 k^5     * sum_{i,j}    sqrt(M_ij) / Var F,
    dW <=  2 k^{7/2} * sum_{i<=j}   sqrt(M_ij) / Var F,
    E (F - EF)^4 <= k^2 sum_{i,j} M_ij + 3 k^2 (Var F)^2.

The variance-type quantities R_ij (order <= 2) that M_ij dominates weigh
some of the same classes otherwise, of f (``estimate_Rij``).  The module
also estimates, by replication, the Malliavin--Stein inner-product terms of
the general Kolmogorov bound for the standardized statistic
G = (F - EF)/sqrt(Var F):

    T1 = E|1 - <DG, -DL^{-1}G>|,   T2 = E<(DG)^2, (DL^{-1}G)^2>,

the companion moments entering c(F), and sup_s E<D 1(G > s), DG |DL^{-1}G|>
as the supremum of its sample mean over s, taken exactly from one sort of
the sample function's breakpoints (biased upward, never down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .chaos import ClassSum, MCValue, contraction_sum, variance_from_kernels
from .kernels import SymmetricKernel, kernel_descriptor
from .measure import IntensitySpec, sample_points
from .partitions import check_order
from .ustat import (
    add_one_costs_many,
    evaluate_many,
    inverse_ou_add_one_costs_many,
    replication_blocks,
)

__all__ = [
    "compute_Mij",
    "dk_bound",
    "dw_bound",
    "fourth_moment_bound",
    "estimate_Rij",
    "estimate_stein_terms",
    "SteinTerms",
    "BoundReport",
    "bound_report",
    "UNRELIABLE_RATIO",
    "MIN_HITS",
]

_M_SEED = 0xB0D5
UNRELIABLE_RATIO = 0.5  # stderr/estimate above this flags a divergent integral
# a class integral with fewer nonzero draws flags its sum: the stderr of a
# mean of h nonzero values is itself uncertain by about 1/sqrt(2h)
MIN_HITS = 30
_SUP_NOTE = "exact supremum over s of the sample mean; biased upward"


def _pair_args(k: int, i: int, j: int, rng):
    """(i, j) as (min, max) and the default stream."""
    check_order(k)
    if not (1 <= i <= k and 1 <= j <= k):
        raise ValueError(f"indices ({i}, {j}) outside 1..{k}")
    i, j = min(i, j), max(i, j)
    if rng is None:
        rng = np.random.SeedSequence(_M_SEED, spawn_key=(i, j))
    return i, j, rng


def compute_Mij(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    i: int,
    j: int,
    *,
    samples: int = 200_000,
    rng: Union[np.random.Generator, np.random.SeedSequence, None] = None,
) -> ClassSum:
    """M_ij: one integral per contraction class, exact or plain Monte Carlo.

    M_ij = M_ji, so (i, j) is taken as (min, max), also for the default
    stream.  ``contraction_sum`` joins the groups (i, i, j, j) of chaos
    kernels of |f|, integrates each of their contraction classes once at
    unit scale and rescales it by its power of t.  A class of the 1-D
    distance indicator on a box of at least (B + 1) r takes its exact value
    (``exact=True``); every other class takes ``samples`` draws.
    A chaos kernel without an analytic marginal takes the fixed draws of
    ``kernels._FALLBACK``, on stream a + 1 for factor a.

    ``rng`` is a Generator, consumed as given, or a SeedSequence (the
    default is (0xB0D5, spawn key (i, j))), whose class integrals are
    cached on the kernel of |f|: a call at another t on the same stream
    only rescales them.
    """
    i, j, rng = _pair_args(kernel.order, i, j, rng)
    return contraction_sum(kernel.absolute, intensity, ((i, i, j, j),), samples=samples,
                           rng=rng, name=f"M_{i}{j}", exact=True)


# R_ij, the variance over eta of the integral of I_{i-1}(f_i(z, .))
# I_{j-1}(f_j(z, .)) dmu_t(z), is a sum of classes of the groups (i, i, j, j)
# over two copies z, z' (bit a of a block mask marks factor a):
#   R_11 = 0, as I_0(f_1(z)) = f_1(z) does not depend on eta;
#   R_12 = ||g||^2, g(x) = int f_1(z) f_2(z, x) dmu_t(z): the factors f_1(z),
#     f_1(z'), f_2(z, x), f_2(z', x) give z = 0b0101, z' = 0b1010, x = 0b1100;
#   R_22 = 2 ||G_2||^2 + ||G_1||^2 by I_1(h)^2 = I_2(h x h) + I_1(h^2) + ||h||^2,
#     h = f_2(z, .), G_2(x, y) = int f_2(z, x) f_2(z, y) dmu_t(z) and G_1(x) =
#     int f_2(z, x)^2 dmu_t(z): the factors f_2(z, .) twice, then f_2(z', .)
#     twice give z = 0b0011, z' = 0b1100, and x = 0b0101 and y = 0b1010 in
#     ||G_2||^2 or one x = 0b1111 in ||G_1||^2.
# M_12 and M_22 weigh these classes 4 and 16, their partition counts.
_R_WEIGHTS = {
    (1, 1): {},
    (1, 2): {(0b0101, 0b1010, 0b1100): 1},
    (2, 2): {(0b0011, 0b0101, 0b1010, 0b1100): 2, (0b0011, 0b1100, 0b1111): 1},
}


def _check_r_order(k: int):
    if k > 2:
        raise ValueError("R_ij estimation is supported for kernel order <= 2 only")


def estimate_Rij(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    i: int,
    j: int,
    *,
    samples: int = 200_000,
    rng: Union[np.random.Generator, np.random.SeedSequence, None] = None,
) -> ClassSum:
    """R_ij (kernel order <= 2): the classes of ``_R_WEIGHTS`` of the
    chaos kernels of f, taken as ``compute_Mij`` takes its classes of |f|,
    default stream included; for f >= 0 on M_ij's stream they are cached."""
    _check_r_order(kernel.order)
    i, j, rng = _pair_args(kernel.order, i, j, rng)
    return contraction_sum(kernel, intensity, ((i, i, j, j),), samples=samples, rng=rng,
                           name=f"R_{i}{j}", weights=_R_WEIGHTS[i, j], exact=True)


def _upper_triangle(m_matrix: List[List[MCValue]], k: int, off_diagonal: float):
    """(weight, M_ij) for i <= j, with ``off_diagonal`` as the weight of i < j.

    M_ji is the same estimate as M_ij, so a sum over all (i, j) reads each
    off-diagonal entry once with weight 2; two reads would count it as two
    independent estimates and understate the stderr.
    """
    return [
        (1.0 if i == j else off_diagonal, m_matrix[i][j]) for i in range(k) for j in range(i, k)
    ]


def _root_sum(entries: List[Tuple[float, MCValue]]) -> Tuple[float, float]:
    """weighted sum of sqrt(M) with delta-method variance of the sum."""
    total = 0.0
    var_acc = 0.0
    for weight, mv in entries:
        total += weight * math.sqrt(max(mv.value, 0.0))
        if mv.stderr > 0.0:
            denom = 2.0 * math.sqrt(max(mv.value, mv.stderr))
            var_acc += (weight * mv.stderr / denom) ** 2
    return total, var_acc


def _check_var_f(var_f: MCValue):
    """Refuse a Var F that cannot scale a bound."""
    if var_f.value <= 0.0:
        raise ValueError("Var F must be positive")


def _scaled_bound(const: float, entries: List[Tuple[float, MCValue]], var_f: MCValue) -> MCValue:
    _check_var_f(var_f)
    root_total, root_var = _root_sum(entries)
    value = const * root_total / var_f.value
    se = math.sqrt(
        (const / var_f.value) ** 2 * root_var + (value * var_f.stderr / var_f.value) ** 2
    )
    return MCValue(value, se)


def dk_bound(m_matrix: List[List[MCValue]], var_f: MCValue, k: int) -> MCValue:
    """Kolmogorov bound 19 k^5 sum_{i,j} sqrt(M_ij) / Var F (full double sum,
    read from the upper triangle)."""
    return _scaled_bound(19.0 * k**5, _upper_triangle(m_matrix, k, 2.0), var_f)


def dw_bound(m_matrix: List[List[MCValue]], var_f: MCValue, k: int) -> MCValue:
    """Wasserstein bound 2 k^{7/2} sum_{i<=j} sqrt(M_ij) / Var F (triangular sum)."""
    return _scaled_bound(2.0 * k**3.5, _upper_triangle(m_matrix, k, 1.0), var_f)


def fourth_moment_bound(m_matrix: List[List[MCValue]], var_f: MCValue, k: int) -> MCValue:
    """k^2 sum_{i,j} M_ij + 3 k^2 (Var F)^2 bounds the centred fourth moment
    (the double sum read from the upper triangle)."""
    value = 0.0
    var_acc = 0.0
    for weight, mv in _upper_triangle(m_matrix, k, 2.0):
        value += k * k * weight * mv.value
        var_acc += (k * k * weight * mv.stderr) ** 2
    value += 3.0 * k * k * var_f.value**2
    var_acc += (6.0 * k * k * var_f.value * var_f.stderr) ** 2
    return MCValue(value, math.sqrt(var_acc))


def _mean_with_stderr(a: np.ndarray) -> MCValue:
    return MCValue(float(a.mean()), float(a.std(ddof=1)) / math.sqrt(len(a)))


def _check_replication_args(reps: int, z_samples: int):
    """Refuse replication settings that no estimate can use."""
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if z_samples < 1:
        raise ValueError("z_samples must be >= 1")


@dataclass
class SteinTerms:
    """Replication estimates of the Malliavin--Stein inner-product terms for
    the standardized statistic."""

    t1: MCValue  # E|1 - <DG, -DL^{-1}G>|
    t2: MCValue  # E<(DG)^2, (DL^{-1}G)^2>
    dg2_dg2: MCValue  # E<(DG)^2, (DG)^2>
    dgdg_sq: MCValue  # E<DG, DG>^2
    g4: MCValue  # E G^4
    c_f: MCValue
    sup_term: MCValue  # sup over s of the sample mean: biased upward
    # integration by parts gives E<DG, -DL^{-1}G> = E G^2 = 1; a drift away
    # from 1 signals bias in the operator estimates
    inner_mean: MCValue


def estimate_stein_terms(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    *,
    reps: int = 2000,
    z_samples: int = 128,
    rng: np.random.Generator,
    var_f: MCValue,
) -> SteinTerms:
    """Estimate the Kolmogorov-bound terms for G = (F - EF)/sqrt(Var F).

    Per replication, D_z G comes from the add-one cost and -D_z L^{-1} G
    from the add-one cost of the inverse-generator representation, whose
    top term D_z F / k reuses the add-one cost; inner
    products in L^2(mu_t) are Monte Carlo averages over z drawn from
    mu_t/mass, scaled by the mass.  The sup term is the exact supremum over
    s of its sample mean (``_rows_at_step_sup``), whose stderr comes from the
    replications at the maximizing s; E sup >= sup E, so any bias is
    upward.  ``var_f`` is the Var F that standardizes G.  The configurations
    come from ``rng`` (``replication_blocks``) and the z from the second of
    two generators spawned from it, so that neither depends on the block
    size.
    """
    _check_replication_args(reps, z_samples)
    _, z_rng = rng.spawn(2)
    if var_f.value <= 0.0:
        raise ValueError("Var F estimate must be positive")
    sigma = math.sqrt(var_f.value)
    ef = kernel.full_integral(intensity)
    mass = intensity.total_mass

    ip1, q2, dg4, ipdg, g4 = np.empty((5, reps))
    # the sup term's breakpoints: each replication's G, then its G + D_z G
    # row by row, with the weights of ``_rows_at_step_sup``
    pos = np.empty(reps * (z_samples + 1))
    wt = np.empty_like(pos)
    tops = pos[reps:].reshape(reps, z_samples)
    drops = wt[reps:].reshape(reps, z_samples)

    for rows, points, sizes in replication_blocks(intensity, reps, rng, z_samples):
        b = len(sizes)
        zs = sample_points(intensity, b * z_samples, z_rng).reshape(b, z_samples, intensity.dim)
        d = add_one_costs_many(kernel, points, sizes, zs)
        dg = d / sigma
        mdl = inverse_ou_add_one_costs_many(kernel, points, sizes, intensity, zs, d) / sigma
        gv = (evaluate_many(kernel, points, sizes) - ef) / sigma
        ip1[rows] = mass * np.mean(dg * mdl, axis=1)
        q2[rows] = mass * np.mean(dg * dg * mdl * mdl, axis=1)
        dg4[rows] = mass * np.mean(dg**4, axis=1)
        ipdg[rows] = np.square(mass * np.mean(dg * dg, axis=1))
        g4[rows] = np.square(gv * gv)
        # 1(G + D_z G > s) - 1(G > s) steps up by w at G, down at G + D_z G
        w = dg * np.abs(mdl)
        pos[rows] = gv
        wt[rows] = w.sum(axis=1)
        tops[rows] = gv[:, None] + dg
        drops[rows] = -w

    t1 = _mean_with_stderr(np.abs(1.0 - ip1))
    t2 = _mean_with_stderr(q2)
    a = _mean_with_stderr(dg4)
    b = _mean_with_stderr(ipdg)
    c = _mean_with_stderr(g4)
    c_f = _cf_value(a, b, c)
    sup = _mean_with_stderr(mass / z_samples * _rows_at_step_sup(pos, wt, reps))
    return SteinTerms(
        t1=t1,
        t2=t2,
        dg2_dg2=a,
        dgdg_sq=b,
        g4=c,
        c_f=c_f,
        sup_term=sup,
        inner_mean=_mean_with_stderr(ip1),
    )


def _rows_at_step_sup(pos: np.ndarray, wt: np.ndarray, reps: int) -> np.ndarray:
    """Each replication's step function at the s where their sum peaks.

    Replication b's function is the sum of wt[i] 1(s >= pos[i]) over its
    breakpoints: pos[b] and row b of pos[reps:] reshaped to (reps, z).  The
    sum over b is right-continuous, so its supremum is 0 (s below every
    breakpoint) or its value at a breakpoint.  One sort and one running sum
    visit them all.  The running sum at the last index of a group of tied
    breakpoints is the function's value there, so the maximum is taken over
    those indices alone, and the order inside a tie group does not matter.
    """
    order = np.argsort(pos)
    ranked = pos[order]
    inside = np.empty(len(ranked), dtype=bool)  # not the last of its tie group
    np.equal(ranked[1:], ranked[:-1], out=inside[:-1])
    inside[-1] = False
    del ranked  # before the weights are gathered: it keeps the peak down
    run = wt[order]
    np.cumsum(run, out=run)
    run[inside] = -np.inf
    best = int(np.argmax(run))
    s = pos[order[best]] if run[best] > 0.0 else -np.inf
    del order, run, inside
    z = len(pos) // reps - 1
    rows = wt[:reps] * (pos[:reps] <= s)
    rows += np.sum(wt[reps:].reshape(reps, z), axis=1, where=pos[reps:].reshape(reps, z) <= s)
    return rows


def _cf_value(a: MCValue, b: MCValue, c: MCValue) -> MCValue:
    """c(F) = sqrt(A) + B^{1/4} (C^{1/4} + 1) with delta-method stderr."""
    av = max(a.value, 0.0)
    bv = max(b.value, 0.0)
    cv = max(c.value, 0.0)
    value = math.sqrt(av) + bv**0.25 * (cv**0.25 + 1.0)
    var_acc = 0.0
    if a.stderr > 0.0:
        var_acc += (a.stderr / (2.0 * math.sqrt(max(av, a.stderr)))) ** 2
    if b.stderr > 0.0:
        db = 0.25 * max(bv, b.stderr) ** -0.75 * (cv**0.25 + 1.0)
        var_acc += (db * b.stderr) ** 2
    if c.stderr > 0.0:
        dc = bv**0.25 * 0.25 * max(cv, c.stderr) ** -0.75
        var_acc += (dc * c.stderr) ** 2
    return MCValue(value, math.sqrt(var_acc))


@dataclass
class BoundReport:
    """Everything the bound certificate needs, with standard errors."""

    kernel: dict
    k: int
    t: float
    seed: Optional[int]
    var_f: MCValue
    m: List[List[MCValue]]
    dk: MCValue
    dw: MCValue
    fourth_moment: MCValue
    r: Optional[List[List[MCValue]]] = None
    stein_terms: Optional[SteinTerms] = None
    unreliable: Tuple[Tuple[int, int], ...] = ()
    var_f_unreliable: bool = False

    def to_dict(self) -> dict:
        def _mcv(v):
            return None if v is None else {"value": v.value, "stderr": v.stderr}

        th = self.stein_terms
        return {
            "kernel": self.kernel,
            "k": self.k,
            "t": self.t,
            "seed": self.seed,
            "var_f": _mcv(self.var_f),
            "m": [[_mcv(v) for v in row] for row in self.m],
            "r": None if self.r is None else [[_mcv(v) for v in row] for row in self.r],
            "dk_bound": self.dk.value,
            "dk_bound_stderr": self.dk.stderr,
            # a distance between laws never exceeds one
            "dk_bound_effective": min(self.dk.value, 1.0),
            "dw_bound": self.dw.value,
            "dw_bound_stderr": self.dw.stderr,
            "fourth_moment_bound": self.fourth_moment.value,
            "fourth_moment_bound_stderr": self.fourth_moment.stderr,
            "t1": _mcv(th.t1) if th else None,
            "inner_mean": _mcv(th.inner_mean) if th else None,
            "t2": _mcv(th.t2) if th else None,
            "c_f": _mcv(th.c_f) if th else None,
            "sup_term": _mcv(th.sup_term) if th else None,
            "sup_term_note": _SUP_NOTE if th else None,
            "unreliable": [list(ij) for ij in self.unreliable],
            "var_f_unreliable": self.var_f_unreliable,
        }


def bound_report(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    *,
    seed: int,
    mc_samples: int = 200_000,
    with_rij: bool = False,
    with_stein_terms: bool = False,
    reps: int = 2000,
    z_samples: int = 128,
) -> BoundReport:
    """Assemble the full certificate with a deterministic stream tree.

    Every Monte Carlo stage draws from its own child stream of ``seed``:
    Var F from (0,), each M_ij and R_ij with i <= j from (1, i, j) and the
    Stein terms from (3,).  So the report is reproducible and individual
    stages are independent.
    ``mc_samples`` is the number of draws of each Var F integral and of
    each contraction-class integral of M_ij and R_ij that takes Monte
    Carlo (``compute_Mij``).  The Stein terms take ``reps``
    replications of ``z_samples`` z each.
    The Var F, M_ij and R_ij streams are passed as SeedSequences, so reports
    at several t for one kernel, box and seed integrate each class once and
    rescale it by its power of t.  ``unreliable`` lists the (i, j), i <= j,
    whose stderr exceeds ``UNRELIABLE_RATIO`` times the estimate or one of
    whose class integrals (R_ij's among them) had fewer than ``MIN_HITS``
    nonzero draws; ``var_f_unreliable`` applies the same test to Var F.
    The stage settings are checked before the first integral, and a Var F
    that is not positive is refused before any M_ij.
    """
    k = kernel.order
    check_order(k)
    if with_rij:
        _check_r_order(k)
    if with_stein_terms:
        _check_replication_args(reps, z_samples)

    def _seq(*key):
        return np.random.SeedSequence(int(seed), spawn_key=key)

    var_f = variance_from_kernels(kernel, intensity, mc_samples=mc_samples, rng=_seq(0))
    _check_var_f(var_f)

    # M_ji = M_ij and R_ji = R_ij: integrate i <= j and mirror
    m: List[List[MCValue]] = [[None] * k for _ in range(k)]
    r = [[None] * k for _ in range(k)] if with_rij else None
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            m[i - 1][j - 1] = m[j - 1][i - 1] = compute_Mij(
                kernel, intensity, i, j, samples=mc_samples, rng=_seq(1, i, j))
            if with_rij:
                r[i - 1][j - 1] = r[j - 1][i - 1] = estimate_Rij(
                    kernel, intensity, i, j, samples=mc_samples, rng=_seq(1, i, j))
    unreliable = tuple(
        (i + 1, j + 1) for i in range(k) for j in range(i, k) if _unreliable(m[i][j])
    )

    stein_terms = None
    if with_stein_terms:
        stein_terms = estimate_stein_terms(kernel, intensity, reps=reps, z_samples=z_samples,
                                           rng=np.random.default_rng(_seq(3)), var_f=var_f)

    return BoundReport(
        kernel=kernel_descriptor(kernel),
        k=k,
        t=intensity.t,
        seed=int(seed),
        var_f=var_f,
        m=m,
        dk=dk_bound(m, var_f, k),
        dw=dw_bound(m, var_f, k),
        fourth_moment=fourth_moment_bound(m, var_f, k),
        r=r,
        stein_terms=stein_terms,
        unreliable=unreliable,
        var_f_unreliable=_unreliable(var_f),
    )


def _unreliable(v: ClassSum) -> bool:
    """A class sum that few draws reached, or whose stderr is large."""
    return v.fewest_hits < MIN_HITS or (v.value > 0.0 and v.stderr > UNRELIABLE_RATIO * v.value)
