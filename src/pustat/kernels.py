"""Symmetric U-statistic kernels with optional analytic marginal integrals.

A kernel of order k is a symmetric function f on box^k, evaluated in
batches: an (m, k, d) array of argument tuples maps to an (m,) array.
|f| is a kernel too (``SymmetricKernel.absolute``), and every kernel has,
where available, the partial integrals

    marginal_i(x_1..x_i) = integral of f(x_1..x_i, y_1..y_{k-i}) dmu_t^{k-i}

supplied WITHOUT the binomial factor C(k, i); the chaos layer applies it.
Kernels lacking an analytic marginal fall back to Monte Carlo with common
random numbers across probe points: the fixed draws of ``_FALLBACK``, one
stream per integer ``stream`` (see MarginalIntegration).  For the
distance indicator's first marginal the fallback counts: f(x, Y) is 0 or 1,
so the average over the draws Y is the number of draws within r of x, which
one call of the neighbour counter gives for every probe at once.

Built-ins:
    count                  k=1, f == 1
    constant(c, k)         f == c
    geometric_indicator(r) k=2, f(x, y) = 1(|x - y| <= r), analytic
                           marginals on 1-D boxes; on 2-D boxes an
                           analytic full integral with r at most either
                           side, and first marginal with 2r at most either
                           side
    product(g, k)          f = prod_j g(x_j)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import _accel
from .measure import IntensitySpec, sample_points

__all__ = [
    "SymmetricKernel",
    "MarginalIntegration",
    "MarginalUnavailable",
    "make_kernel",
    "make_count",
    "make_constant",
    "make_geometric_indicator",
    "make_product",
    "kernel_descriptor",
]


class MarginalUnavailable(Exception):
    """Raised by an analytic marginal that does not cover the given intensity."""


@dataclass(frozen=True)
class MarginalIntegration:
    """The draws of the Monte Carlo marginal fallback: ``samples`` shared
    y-draws (common random numbers across probe points) from ``seed``, so
    fallback marginals are pure functions of their inputs.  The package
    uses one record, ``_FALLBACK``; stream s draws from seed
    ``seed + 7919 s``.  At least 2 samples are needed for a standard error.
    """

    samples: int = 20_000
    seed: int = 0x9A7C

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("marginal integration samples must be >= 2")


_FALLBACK = MarginalIntegration()  # the draws of every fallback marginal


@dataclass(frozen=True, eq=False)
class SymmetricKernel:
    """Order-k symmetric kernel with batched evaluation.

    ``pair_radius`` r promises f(x, y) = 1(|x - y| <= r): order 2 and its
    own |f| (``nonnegative=True``), or the kernel is refused.  Every other
    kernel, a scaled indicator too, leaves it unset.  It routes F, D_z F,
    the exact 1-D class integrals and the Monte Carlo first marginal
    through the neighbour counter in ``pustat._accel``.  That fallback
    serves boxes of three or more dimensions and 2-D boxes with a side
    under 2r; other 2-D boxes take the closed-form disc area.

    The ``M_ij`` integrals need |f|, so a kernel declares exactly one of
    ``nonnegative=True`` (it is its own |f|) and ``abs_kernel``, a
    nonnegative kernel of the same order that is |f|.
    """

    name: str
    order: int
    eval_fn: Callable[[np.ndarray], np.ndarray]
    marginal_fn: Optional[Callable] = None
    pair_radius: Optional[float] = None
    nonnegative: bool = False
    abs_kernel: Optional[SymmetricKernel] = None
    params: dict = field(default_factory=dict)
    # chaos.contraction_sum's unit-scale class integrals, keyed by value
    _integral_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("kernel order k must be >= 1")
        if self.nonnegative == (self.abs_kernel is not None):
            raise ValueError("a kernel declares either nonnegative=True or abs_kernel=|f|")
        absk = self.abs_kernel
        if absk is not None and not (absk.nonnegative and absk.order == self.order):
            raise ValueError("abs_kernel must be a nonnegative kernel of the same order")
        if self.pair_radius is not None and (self.order != 2 or absk is not None):
            raise ValueError("pair_radius marks the order-2 distance indicator, its own |f|")

    @property
    def absolute(self) -> SymmetricKernel:
        """The kernel |f|: this kernel itself when f >= 0."""
        return self if self.nonnegative else self.abs_kernel

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval_fn(x), dtype=float).reshape(len(x))

    def marginal_with_stderr(
        self,
        intensity: IntensitySpec,
        x: np.ndarray,
        i: int,
        *,
        stream: int = 0,
    ):
        """Values (and standard errors) of the i-th marginal at (m, i, d) probes.

        i = order returns f itself, i = 0 the full integral.  Analytic
        marginals carry stderr 0; the Monte Carlo fallback shares its
        y-draws across all probe rows, drawn from seed
        ``_FALLBACK.seed + 7919 * stream``.
        """
        if not 0 <= i <= self.order:
            raise ValueError(f"marginal index {i} outside 0..{self.order}")
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[1] != i:
            raise ValueError(f"probe array must have shape (m, {i}, d)")
        if i == self.order:
            return self(x), np.zeros(len(x))
        if self.marginal_fn is not None:
            try:
                vals = np.asarray(self.marginal_fn(intensity, x, i), dtype=float).reshape(len(x))
                return vals, np.zeros(len(x))
            except MarginalUnavailable:
                pass
        mc = replace(_FALLBACK, seed=_FALLBACK.seed + 7919 * stream)
        return _marginal_mc(self, intensity, x, i, mc=mc)

    def marginal(self, intensity, x, i) -> np.ndarray:
        return self.marginal_with_stderr(intensity, x, i)[0]

    def full_integral(self, intensity: IntensitySpec) -> float:
        """Integral of f against mu_t^k: the order-0 marginal."""
        return float(self.marginal(intensity, np.empty((1, 0, intensity.dim)), 0)[0])


_EVAL_CHUNK = 1 << 19  # kernel evaluations per batched call


def _cross_values(fn, heads, tails):
    """fn at each (m, a, d) head joined with each (c, b, d) tail, in blocks
    of heads: yields (rows, values), a slice of heads and their (len, c)
    values.  A block makes about _EVAL_CHUNK evaluations, or one head's c;
    a row does not depend on where the blocks end."""
    c, a = len(tails), heads.shape[1]
    step = max(1, _EVAL_CHUNK // max(c, 1))
    for s in range(0, len(heads), step):
        block = heads[s : s + step]
        m = len(block)
        if a == 0 and m == 1:  # one empty head: the tails are the arguments
            joined = tails
        else:  # filled by broadcasting: a repeat and a concatenate copy row by row
            joined = np.empty((m, c, a + tails.shape[1], heads.shape[2]))
            joined[:, :, :a] = block[:, None]
            joined[:, :, a:] = tails
            joined = joined.reshape(m * c, *joined.shape[2:])
        yield slice(s, s + m), fn(joined).reshape(m, c)


def _marginal_mc(kernel, intensity, x, i, *, mc):
    """Monte Carlo marginal: average f(x, Y) over shared draws Y ~ mu_t/mass.

    The marginals of |f| are those of ``kernel.absolute``, which takes the
    same route.  When one variable is left free and f is the distance
    indicator, f(x, Y) is 0 or 1 and its sum over the n draws is the number
    c of draws within r of x.  One neighbour count per call gives every
    probe's c; the value is c / n and the stderr comes from the 0/1 sample
    variance c (n - c) / (n (n - 1)).  A sum of 0/1 values is exact, so the
    values equal the dense average bit for bit.  Every other case evaluates
    f on the probes x draws matrix, block by block (``_cross_values``).
    """
    extra = kernel.order - i
    rng = np.random.default_rng(np.random.SeedSequence(mc.seed, spawn_key=(i,)))
    y = sample_points(intensity, mc.samples * extra, rng).reshape(mc.samples, extra, -1)
    scale = intensity.total_mass**extra
    if kernel.pair_radius is not None and extra == 1:
        n = mc.samples
        c = _accel.count_neighbors(y[:, 0, :], x[:, 0, :], kernel.pair_radius).astype(float)
        return c / n * scale, np.sqrt(c * (n - c) / (n * (n - 1))) / math.sqrt(n) * scale
    vals, ses = np.empty(len(x)), np.empty(len(x))
    for rows, fv in _cross_values(kernel, x, y):
        vals[rows] = fv.mean(axis=1) * scale
        ses[rows] = fv.std(axis=1, ddof=1) / math.sqrt(mc.samples) * scale
    return vals, ses


# ---------------------------------------------------------------------------
# built-in kernels
# ---------------------------------------------------------------------------


def _require_1d(intensity: IntensitySpec):
    if intensity.dim != 1:
        raise MarginalUnavailable("analytic marginals cover 1-D boxes only")


def _cap(d):
    """Area of the part of the unit disc beyond a line at distance d in [0, 1]."""
    return np.arccos(d) - d * np.sqrt(1.0 - d * d)


def _half_chord_integral(a):
    """Antiderivative of sqrt(1 - a^2) on [0, 1]."""
    return 0.5 * (a * np.sqrt(1.0 - a * a) + np.arcsin(a))


def _corner(u, v):
    """Area of the part of the unit disc around (u, v), u and v in [0, 1],
    where both coordinates are negative: the integral of sqrt(1 - a^2) - v
    over u < a < sqrt(1 - v^2), empty once u reaches that end."""
    end = np.sqrt(1.0 - v * v)
    u = np.minimum(u, end)
    return _half_chord_integral(end) - _half_chord_integral(u) - v * (end - u)


def _disc_area_in_box(r, box, pts):
    """|B(p, r) & box| for each row p of the (m, 2) points of a 2-D box.

    With 2r at most either side, the disc meets at most one vertical and
    one horizontal edge, at distances dx and dy, so the area is the disc
    minus the cap beyond each edge plus the corner beyond both.  It is
    taken for the unit disc at dx / r and dy / r, both capped at 1, and
    scaled by r^2.  Raises MarginalUnavailable for a wider disc and for a
    probe outside the closed box.
    """
    (lo_a, hi_a), (lo_b, hi_b) = box
    if 2.0 * r > min(hi_a - lo_a, hi_b - lo_b):
        raise MarginalUnavailable("the 2-D first marginal needs 2r <= both box sides")
    lo, hi = np.array([lo_a, lo_b]), np.array([hi_a, hi_b])
    if not ((pts >= lo) & (pts <= hi)).all():
        raise MarginalUnavailable("the 2-D first marginal covers probes in the box")
    near = np.minimum(np.minimum(pts - lo, hi - pts), r) / r
    u, v = near[:, 0], near[:, 1]
    return r * r * (math.pi - _cap(u) - _cap(v) + _corner(u, v))


def make_count() -> SymmetricKernel:
    """Order-1 kernel f == 1; the U-statistic is the point count."""
    return replace(make_constant(1.0, 1), name="count", params={})


def make_constant(c: float, k: int) -> SymmetricKernel:
    """Order-k constant kernel f == c; its |f| is the constant |c|."""
    # before float(c): an int beyond the float range raises OverflowError there
    if not abs(c) <= sys.float_info.max:
        raise ValueError("c must be finite")
    c = float(c)

    def _eval(x):
        return np.full(len(x), c)

    def _marg(intensity, x, i):
        return np.full(len(x), c * intensity.total_mass ** (k - i))

    return SymmetricKernel(
        name="constant",
        order=k,
        eval_fn=_eval,
        marginal_fn=_marg,
        nonnegative=c >= 0,
        abs_kernel=None if c >= 0 else make_constant(-c, k),
        params={"c": c, "k": k},
    )


def make_geometric_indicator(r: float) -> SymmetricKernel:
    """Order-2 kernel f(x, y) = 1(|x - y| <= r): pair counts within radius r."""
    if not 0 < r <= sys.float_info.max:
        raise ValueError("radius r must be positive and finite")
    r = float(r)
    r2 = r * r

    def _eval(x):
        d2 = ((x[:, 0, :] - x[:, 1, :]) ** 2).sum(axis=1)
        return (d2 <= r2).astype(float)

    def _pair_integral_2d(intensity):
        # t^2 times the integral of the a x b box's covariogram (a - |h1|)(b - |h2|)
        # over the disc |h| <= r, which lies inside [-a, a] x [-b, b]
        (lo_a, hi_a), (lo_b, hi_b) = intensity.box
        a, b = hi_a - lo_a, hi_b - lo_b
        if r > min(a, b):
            raise MarginalUnavailable("the 2-D full integral needs r <= both box sides")
        area = math.pi * r2 * a * b - 4.0 / 3.0 * r2 * r * (a + b) + r2 * r2 / 2.0
        return intensity.t**2 * area

    def _marg(intensity, x, i):
        if intensity.dim == 2:
            if i == 0:
                return np.full(len(x), _pair_integral_2d(intensity))
            return intensity.t * _disc_area_in_box(r, intensity.box, x[:, 0, :])
        _require_1d(intensity)
        lo, hi = intensity.box[0]
        t = intensity.t
        if i == 0:
            length = hi - lo
            rr = min(r, length)
            return np.full(len(x), t * t * (2.0 * rr * length - rr * rr))
        xs = x[:, 0, 0]
        seg = np.minimum(xs + r, hi) - np.maximum(xs - r, lo)
        return t * np.clip(seg, 0.0, None)

    return SymmetricKernel(
        name="geometric_indicator",
        order=2,
        eval_fn=_eval,
        marginal_fn=_marg,
        pair_radius=r,
        nonnegative=True,
        params={"r": r},
    )


def make_product(
    g: Callable[[np.ndarray], np.ndarray],
    k: int,
    *,
    g_abs: Optional[Callable] = None,
    base_integral: Optional[float] = None,
    abs_base_integral: Optional[float] = None,
    name: str = "product",
) -> SymmetricKernel:
    """Order-k product kernel f(x_1..x_k) = prod_j g(x_j).

    ``g`` maps (m, d) points to (m,) values.  Supplying base_integral (the
    Lebesgue integral of g over the box) enables analytic marginals;
    otherwise all marginals fall back to Monte Carlo.  |f| is the product
    kernel of ``g_abs`` (by default |g|), whose integral is
    ``abs_base_integral``; passing ``g_abs=g`` declares g >= 0, and the
    kernel is then its own |f|.
    """
    g_abs = g_abs or (lambda pts: np.abs(g(pts)))

    def _eval(x):
        vals = np.ones(len(x))
        for col in range(k):
            vals = vals * np.asarray(g(x[:, col, :]), dtype=float)
        return vals

    def _marg(intensity, x, i):
        if base_integral is None:
            raise MarginalUnavailable("product marginals need a base integral")
        factor = (intensity.t * base_integral) ** (k - i)
        vals = np.full(len(x), factor)
        for col in range(i):
            vals = vals * np.asarray(g(x[:, col, :]), dtype=float)
        return vals

    nonnegative = g_abs is g
    return SymmetricKernel(
        name=name,
        order=k,
        eval_fn=_eval,
        marginal_fn=_marg,
        nonnegative=nonnegative,
        abs_kernel=None if nonnegative else make_product(
            g_abs, k, g_abs=g_abs, base_integral=abs_base_integral, name=f"|{name}|"
        ),
        params={"k": k},
    )


_BUILTIN_KEYS = {"count": (), "constant": ("c", "k"), "geometric_indicator": ("r",)}
_BUILTIN_NAMES = tuple(_BUILTIN_KEYS)


def make_kernel(spec) -> SymmetricKernel:
    """Build a kernel from a descriptor: a name or a {"name": ..., params} map.

    Descriptors cover the serializable built-ins; ``product`` and custom
    kernels are constructed programmatically via their factories.
    """
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict) or "name" not in spec:
        raise ValueError("kernel descriptor must be a name or a dict with a 'name'")
    name = spec["name"]
    if not isinstance(name, str) or name not in _BUILTIN_KEYS:
        raise ValueError(f"unknown kernel '{name}' (built-ins: {', '.join(_BUILTIN_NAMES)})")
    params = {key: val for key, val in spec.items() if key != "name"}
    for key in params:
        if key not in _BUILTIN_KEYS[name]:
            raise ValueError(f"kernel '{name}' takes no key '{key}'")
    # exact types: a bool is an int to isinstance
    for key, types in (("r", (int, float)), ("c", (int, float)), ("k", (int,))):
        if key in params and type(params[key]) not in types:
            raise ValueError(f"'{key}' must be {' or '.join(t.__name__ for t in types)}")
    if name == "count":
        return make_count()
    if name == "constant":
        return make_constant(params.get("c", 1.0), params.get("k", 1))
    if "r" not in params:
        raise ValueError("geometric_indicator descriptor requires 'r'")
    return make_geometric_indicator(params["r"])


def kernel_descriptor(kernel: SymmetricKernel) -> dict:
    """Serializable descriptor (name + parameter map) of a built-in kernel."""
    return {"name": kernel.name, **kernel.params}

