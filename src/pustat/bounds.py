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

The module also estimates, by replication, the variance-type quantities
R_ij (order <= 2) that the partition integrals dominate (R_ij = R_ji, so
``estimate_Rij`` returns the whole matrix from one replication pass, on
stream (2,) in ``bound_report``), and the Malliavin--Stein inner-product
terms of the general Kolmogorov bound for the standardized statistic
G = (F - EF)/sqrt(Var F):

    T1 = E|1 - <DG, -DL^{-1}G>|,   T2 = E<(DG)^2, (DL^{-1}G)^2>,

the companion moments entering c(F), and a grid maximum (a lower estimate)
of sup_s E<D 1(G > s), DG |DL^{-1}G|>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .chaos import MCValue, chaos_kernel_values, contraction_sum, variance_from_kernels
from .kernels import MarginalIntegration, SymmetricKernel, kernel_descriptor
from .measure import IntensitySpec, sample_points
from .partitions import check_order
from .ustat import (
    _inverse_ou_lower_costs,
    add_one_costs_many,
    evaluate_many,
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
    "BoundValue",
    "BoundReport",
    "bound_report",
    "UNRELIABLE_RATIO",
]

_M_SEED = 0xB0D5
UNRELIABLE_RATIO = 0.5  # stderr/estimate above this flags a divergent integral
_SUP_NOTE = "grid maximum over s; a lower estimate of the supremum"
SUP_GRID_POINTS = 41  # the sup term's grid of s on [-4, 4]


def compute_Mij(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    i: int,
    j: int,
    *,
    samples: int = 200_000,
    rng: Union[np.random.Generator, np.random.SeedSequence, None] = None,
    mc: Optional[MarginalIntegration] = None,
) -> MCValue:
    """Monte Carlo value of M_ij: one plain-MC integral per contraction class.

    M_ij = M_ji, so (i, j) is taken as (min, max), also for the default
    stream.  ``contraction_sum`` joins the groups (i, i, j, j) of chaos
    kernels of |f|, integrates each of their contraction classes once at
    unit scale with ``samples`` draws and rescales it by its power of t.

    ``rng`` is a Generator, consumed as given, or a SeedSequence (the
    default is (0xB0D5, spawn key (i, j))), whose class integrals are
    cached on the kernel of |f|: a call at another t on the same stream
    only rescales them.
    """
    k = kernel.order
    check_order(k)
    if not (1 <= i <= k and 1 <= j <= k):
        raise ValueError(f"indices ({i}, {j}) outside 1..{k}")
    i, j = min(i, j), max(i, j)
    if rng is None:
        rng = np.random.SeedSequence(_M_SEED, spawn_key=(i, j))
    return contraction_sum(kernel.absolute, intensity, ((i, i, j, j),), samples=samples,
                           rng=rng, mc=mc or MarginalIntegration(), name=f"M_{i}{j}")


class BoundValue(NamedTuple):
    """A bound with propagated stderr; effective clips at 1 (a distance
    between laws never exceeds one)."""

    value: float
    stderr: float
    effective: float


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


def _scaled_bound(
    const: float, entries: List[Tuple[float, MCValue]], var_f: MCValue
) -> BoundValue:
    if var_f.value <= 0.0:
        raise ValueError("Var F must be positive")
    root_total, root_var = _root_sum(entries)
    value = const * root_total / var_f.value
    se = math.sqrt(
        (const / var_f.value) ** 2 * root_var + (value * var_f.stderr / var_f.value) ** 2
    )
    return BoundValue(value, se, min(value, 1.0))


def dk_bound(m_matrix: List[List[MCValue]], var_f: MCValue, k: int) -> BoundValue:
    """Kolmogorov bound 19 k^5 sum_{i,j} sqrt(M_ij) / Var F (full double sum,
    read from the upper triangle)."""
    return _scaled_bound(19.0 * k**5, _upper_triangle(m_matrix, k, 2.0), var_f)


def dw_bound(m_matrix: List[List[MCValue]], var_f: MCValue, k: int) -> BoundValue:
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


def _variance_with_stderr(a: np.ndarray) -> MCValue:
    """Sample variance with its moment-based standard error."""
    n = len(a)
    s2 = float(a.var(ddof=1))
    centred = a - a.mean()
    m4 = float(np.mean(centred**4))
    var_of_s2 = (m4 - s2 * s2 * (n - 3) / (n - 1)) / n
    return MCValue(s2, math.sqrt(max(var_of_s2, 0.0)))


def _mean_with_stderr(a: np.ndarray) -> MCValue:
    return MCValue(float(a.mean()), float(a.std(ddof=1)) / math.sqrt(len(a)))


def _check_replication_args(reps: int, z_samples: int, *, rij_order: Optional[int] = None):
    """Refuse replication settings that no estimate can use; ``rij_order``
    is the kernel order when the R matrix is asked for."""
    if rij_order is not None and rij_order > 2:
        raise ValueError("R_ij estimation is supported for kernel order <= 2 only")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if z_samples < 1:
        raise ValueError("z_samples must be >= 1")


def estimate_Rij(
    kernel: SymmetricKernel,
    intensity: IntensitySpec,
    *,
    reps: int = 2000,
    z_samples: int = 256,
    rng: np.random.Generator,
) -> List[List[MCValue]]:
    """Replication estimates of the k x k matrix R, where R_ij is the
    variance across realizations of

        integral over z of I_{i-1}(f_i(z, .)) I_{j-1}(f_j(z, .)) dmu_t.

    Supported for kernel order <= 2, where the inner factors are the
    deterministic f_1(z) and the pathwise first-order integral of the
    z-section of f_2.  One pass records every i <= j; R_ji is the same
    estimate as R_ij.  The z-integral shares its draws across replications,
    so a deterministic integrand (R_11) yields exactly zero.  ``rng`` gives
    the z draws first, then the configurations (``replication_blocks``).
    """
    k = kernel.order
    _check_replication_args(reps, z_samples, rij_order=k)
    mass = intensity.total_mass
    z = sample_points(intensity, z_samples, rng)
    f1, _ = chaos_kernel_values(kernel, intensity, 1, z[:, None, :])
    if k == 2:
        # z-section of f_2 = f integrates to the plain first marginal
        section_integral = kernel.marginal(intensity, z[:, None, :], 1)
    a_vals = {(i, j): np.empty(reps) for i in range(k) for j in range(i, k)}
    if k == 1:
        a_vals[0, 0][:] = mass * float(np.mean(f1 * f1))
    else:
        for rows, points, sizes in replication_blocks(intensity, reps, rng, z_samples):
            # sum_x f(z, x) is half the order-2 add-one cost
            zs = np.broadcast_to(z, (len(sizes), *z.shape))
            section = add_one_costs_many(kernel, points, sizes, zs) / 2.0 - section_integral
            factors = [np.broadcast_to(f1, section.shape), section]
            for (i, j), column in a_vals.items():
                column[rows] = mass * np.mean(factors[i] * factors[j], axis=1)
    r = {ij: _variance_with_stderr(column) for ij, column in a_vals.items()}
    return [[r[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]


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
    sup_term: MCValue  # a grid maximum over s: a lower estimate of the sup
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
    var_f: Optional[MCValue] = None,
    mc: Optional[MarginalIntegration] = None,
) -> SteinTerms:
    """Estimate the Kolmogorov-bound terms for G = (F - EF)/sqrt(Var F).

    Per replication, D_z G comes from the add-one cost and -D_z L^{-1} G
    from the add-one cost of the inverse-generator representation, whose
    top term D_z F / k reuses the add-one cost; inner
    products in L^2(mu_t) are Monte Carlo averages over z drawn from
    mu_t/mass, scaled by the mass.  The sup term is reported as a grid
    maximum and labeled a lower estimate.  The configurations come from
    ``rng`` (``replication_blocks``) and the z from a generator spawned from
    it, so that on a constant density neither depends on the block size.
    """
    _check_replication_args(reps, z_samples)
    var_rng, z_rng = rng.spawn(2)
    if var_f is None:
        var_f = variance_from_kernels(kernel, intensity, rng=var_rng, mc=mc)
    if var_f.value <= 0.0:
        raise ValueError("Var F estimate must be positive")
    sigma = math.sqrt(var_f.value)
    ef = kernel.full_integral(intensity, mc=mc)
    mass = intensity.total_mass
    grid = np.linspace(-4.0, 4.0, SUP_GRID_POINTS)

    ip1, q2, dg4, ipdg, g4 = np.empty((5, reps))
    sup_mat = np.empty((reps, len(grid)))

    for rows, points, sizes in replication_blocks(intensity, reps, rng, z_samples):
        b = len(sizes)
        zs = sample_points(intensity, b * z_samples, z_rng).reshape(b, z_samples, intensity.dim)
        d = add_one_costs_many(kernel, points, sizes, zs)
        dg = d / sigma
        lower = _inverse_ou_lower_costs(kernel, points, sizes, intensity, zs, mc)
        mdl = (d / kernel.order + lower) / sigma
        gv = (evaluate_many(kernel, points, sizes) - ef) / sigma
        ip1[rows] = mass * np.mean(dg * mdl, axis=1)
        q2[rows] = mass * np.mean(dg * dg * mdl * mdl, axis=1)
        dg4[rows] = mass * np.mean(dg**4, axis=1)
        ipdg[rows] = np.square(mass * np.mean(dg * dg, axis=1))
        g4[rows] = np.square(gv * gv)
        # jump[b, z, s] = 1(G + D_z G > s) - 1(G > s) on the grid of s
        jump = ((gv[:, None] + dg)[:, :, None] > grid).astype(float)
        jump -= (gv[:, None] > grid)[:, None, :]
        sup_mat[rows] = mass * (jump * (dg * np.abs(mdl))[:, :, None]).mean(axis=1)

    t1 = _mean_with_stderr(np.abs(1.0 - ip1))
    t2 = _mean_with_stderr(q2)
    a = _mean_with_stderr(dg4)
    b = _mean_with_stderr(ipdg)
    c = _mean_with_stderr(g4)
    c_f = _cf_value(a, b, c)
    sup = _mean_with_stderr(sup_mat[:, int(np.argmax(sup_mat.mean(axis=0)))])
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
    dk: BoundValue
    dw: BoundValue
    fourth_moment: MCValue
    r: Optional[List[List[MCValue]]] = None
    stein_terms: Optional[SteinTerms] = None
    unreliable: Tuple[Tuple[int, int], ...] = ()

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
            "dk_bound_effective": self.dk.effective,
            "dw_bound": self.dw.value,
            "dw_bound_stderr": self.dw.stderr,
            "fourth_moment_bound": self.fourth_moment.value,
            "fourth_moment_bound_stderr": self.fourth_moment.stderr,
            "t1": _mcv(th.t1) if th else None,
            "t2": _mcv(th.t2) if th else None,
            "c_f": _mcv(th.c_f) if th else None,
            "sup_term": _mcv(th.sup_term) if th else None,
            "sup_term_note": _SUP_NOTE if th else None,
            "unreliable": [list(ij) for ij in self.unreliable],
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
    mc: Optional[MarginalIntegration] = None,
) -> BoundReport:
    """Assemble the full certificate with a deterministic stream tree.

    Every Monte Carlo stage draws from its own child stream of ``seed``:
    Var F from (0,), each M_ij with i <= j from (1, i, j), the R matrix
    from (2,) and the Stein terms from (3,).  So the report is reproducible
    and individual stages are independent.
    ``mc_samples`` is the number of draws of each Var F integral and of
    each contraction-class integral.  The R matrix and the Stein terms each
    take ``reps`` replications; the Stein terms draw ``z_samples`` z per
    replication, and R the 256 of ``estimate_Rij``.
    The Var F and M_ij streams are passed as SeedSequences, so reports at
    several t for one kernel, box and seed integrate each class once and
    rescale it by its power of t.  ``unreliable`` lists the (i, j), i <= j,
    whose stderr exceeds ``UNRELIABLE_RATIO`` times the estimate.
    The replication settings of the requested stages are checked before
    the first integral.
    """
    k = kernel.order
    check_order(k)
    if with_rij or with_stein_terms:
        # only the Stein terms read z_samples
        _check_replication_args(
            reps, z_samples if with_stein_terms else 1, rij_order=k if with_rij else None
        )

    def _seq(*key):
        return np.random.SeedSequence(int(seed), spawn_key=key)

    var_f = variance_from_kernels(kernel, intensity, mc_samples=mc_samples, rng=_seq(0), mc=mc)

    # M_ji = M_ij: integrate i <= j and mirror
    m: List[List[MCValue]] = [[None] * k for _ in range(k)]
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            m[i - 1][j - 1] = m[j - 1][i - 1] = compute_Mij(
                kernel, intensity, i, j, samples=mc_samples, rng=_seq(1, i, j), mc=mc
            )
    unreliable = tuple(
        (i + 1, j + 1)
        for i in range(k)
        for j in range(i, k)
        if m[i][j].value > 0.0 and m[i][j].stderr > UNRELIABLE_RATIO * m[i][j].value
    )

    r = None
    if with_rij:
        r = estimate_Rij(kernel, intensity, reps=reps, rng=np.random.default_rng(_seq(2)))

    stein_terms = None
    if with_stein_terms:
        stein_terms = estimate_stein_terms(
            kernel,
            intensity,
            reps=reps,
            z_samples=z_samples,
            rng=np.random.default_rng(_seq(3)),
            var_f=var_f,
            mc=mc,
        )

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
    )
