"""Intensity measures on boxes, Poisson sampling, and Monte Carlo integration.

The state space is an axis-aligned box in R^d carrying the measure
mu_t = t * (density . Lebesgue).  Sampling uses rejection against a declared
sup of the density, so draws are exact.  All randomness flows through
explicit numpy Generators.  A replication loop draws all of its
configurations from one stream: every Poisson count with one call, then the
points block by block (``ustat.replication_blocks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "NumericalError",
    "IntensitySpec",
    "PointConfiguration",
    "sample_point_process",
    "sample_points",
    "mc_integral",
]

# draws per chunk of an mc_integral: a chunk's points and integrand
# temporaries stay in cache, and a run holds one double per draw besides
_MC_CHUNK = 1 << 13


class NumericalError(ValueError):
    """A computation produced non-finite values; the CLI exits 3 on it."""


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """A finite point-process realization: an (n, d) array of points.

    Row order carries no meaning; every downstream operation is invariant
    under permutations of the rows.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


class IntensitySpec:
    """The measure mu_t = t * (density . Lebesgue) on an axis-aligned box.

    Parameters
    ----------
    box : sequence of (lo, hi) pairs, one per dimension.
    t : nonnegative scale factor.
    density : optional vectorized callable mapping an (m, d) array to an
        (m,) array of nonnegative values; None means the constant 1.
    density_sup : declared sup of the density (rejection envelope); draws
        fail loudly if the density ever exceeds it.
    base_integral : the Lebesgue integral of the density over the box,
        required with a density: every integral scales by a power of the
        mass and every replication draws its Poisson count from it, so an
        estimated mass would add an error that no stderr reports.
    """

    def __init__(
        self,
        box: Sequence[Tuple[float, float]],
        t: float = 1.0,
        density: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        density_sup: float = 1.0,
        base_integral: Optional[float] = None,
    ):
        box = tuple((float(lo), float(hi)) for (lo, hi) in box)
        if not box:
            raise ValueError("box must have at least one dimension")
        for lo, hi in box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"box interval ({lo}, {hi}) must satisfy lo < hi")
        t = float(t)
        if not (math.isfinite(t) and t >= 0.0):
            raise ValueError("scale t must be finite and nonnegative")
        if density is not None and not (math.isfinite(density_sup) and density_sup > 0):
            raise ValueError("density_sup must be positive and finite")
        if density is not None and base_integral is None:
            raise ValueError(
                "a density needs its base_integral: an estimated mass would leave its "
                "error out of every stderr"
            )

        self.box = box
        self.t = t
        self.density = density
        self.density_sup = float(density_sup) if density is not None else 1.0
        self.volume = float(np.prod([hi - lo for lo, hi in box]))

        base = self.volume if density is None else float(base_integral)
        if not (math.isfinite(base) and base >= 0.0):
            raise ValueError("density integral must be finite and nonnegative")
        self.base_integral = base
        self.total_mass = t * base

    @property
    def dim(self) -> int:
        return len(self.box)

    def _uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # lo + (hi - lo) * u, column by column in place: numpy's broadcast
        # path costs more than the arithmetic at these sizes
        u = rng.random((n, self.dim))
        for col, (lo, hi) in zip(u.T, self.box):
            col *= hi - lo
            col += lo
        return u

    def _density_values(self, pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.density(pts), dtype=float).reshape(len(pts))
        if not np.all(np.isfinite(vals)):
            raise ValueError("density returned non-finite values")
        if vals.size and float(vals.min()) < 0.0:
            raise ValueError("density must be nonnegative")
        if vals.size and float(vals.max()) > self.density_sup * (1.0 + 1e-12):
            raise ValueError(
                f"density exceeds the declared sup ({vals.max():g} > {self.density_sup:g})"
            )
        return vals


def sample_points(intensity: IntensitySpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. points with law density/(integral of density) on the box.

    Uniform proposals with rejection against density_sup; exact, and a pure
    function of the generator state.
    """
    if n == 0:
        return np.empty((0, intensity.dim))
    if intensity.density is None:
        return intensity._uniform(n, rng)
    accept_rate = max(intensity.base_integral / (intensity.volume * intensity.density_sup), 1e-3)
    out = np.empty((n, intensity.dim))
    filled = 0
    while filled < n:
        m = min(int((n - filled) / accept_rate * 1.2) + 16, 4_000_000)
        props = intensity._uniform(m, rng)
        vals = intensity._density_values(props)
        keep = props[rng.random(m) * intensity.density_sup <= vals]
        take = min(len(keep), n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def sample_point_process(intensity: IntensitySpec, rng: np.random.Generator) -> PointConfiguration:
    """One Poisson realization: count ~ Poisson(total mass), points i.i.d."""
    n = int(rng.poisson(intensity.total_mass))
    return PointConfiguration(sample_points(intensity, n, rng))


def mc_integral(
    g: Callable[[np.ndarray], np.ndarray],
    intensity: IntensitySpec,
    n: int,
    samples: int,
    rng: np.random.Generator,
) -> Tuple[float, float]:
    """Plain Monte Carlo estimate of the integral of g against mu_t^n.

    ``g`` maps an (m, n, d) array of stacked n-tuples to an (m,) array.
    Points are drawn i.i.d. from mu_t/mass per coordinate block and the
    sample mean is scaled by mass^n.  Points are drawn and ``g`` is
    evaluated in chunks of at most _MC_CHUNK rows, so a call holds one
    double per sample besides one chunk's points and temporaries; ``g``
    must give each row a value that does not depend on the other rows.  On
    a constant density the draws do not depend on the chunk size
    (consecutive ``rng.random`` calls give the doubles of one call); with
    rejection sampling they depend on where the chunks end, and the fixed
    private chunk size keeps them reproducible.  Returns (estimate,
    stderr); a standard error needs at least two samples.  Raises
    NumericalError when either is not finite.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = np.empty(samples)
    for start in range(0, samples, _MC_CHUNK):
        m = min(_MC_CHUNK, samples - start)
        x = sample_points(intensity, m * n, rng).reshape(m, n, intensity.dim)
        vals[start : start + m] = np.asarray(g(x), dtype=float).reshape(m)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("integrand returned non-finite values")
    try:
        scale = intensity.total_mass**n
    except OverflowError:  # a float ** raises where a float * gives inf
        scale = math.inf
    est = float(vals.mean()) * scale
    stderr = float(vals.std(ddof=1)) / math.sqrt(samples) * scale
    if not (math.isfinite(est) and math.isfinite(stderr)):
        raise NumericalError(f"non-finite integral against mu_t^{n}")
    return est, stderr
