"""Solution of the Gaussian Stein equation for half-line test functions.

The ordinary differential equation

    g_s'(w) - w * g_s(w) = 1(w <= s) - Phi(s)

has the bounded solution

    g_s(w) = sqrt(2 pi) * exp(w^2/2) * Phi(min(w, s)) * (1 - Phi(max(w, s))),

obtained by splitting the defining integral at s.  We evaluate it through
the scaled complementary error function erfcx, which absorbs exp(w^2/2)
and stays finite for every w.  Known properties, checked on a dense grid:

    0 < g_s <= sqrt(2 pi)/4,   |g_s'| <= 1,   |w g_s(w)| <= 1,
    |g_s''(w)| <= sqrt(2 pi)/4 + |w|   (w != s),

and the derivative jumps by -1 across w = s.  The convention at the kink
is the left limit, g_s'(s) := g_s'(s-).

normal_cdf is built on math.erf/erfc; scipy (erfcx) is imported inside the
functions of the solution g, so only ``pustat stein-check`` loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "normal_cdf",
    "g",
    "g_prime",
    "g_second",
    "check_stein_properties",
    "SteinCheckReport",
    "G_MAX",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
G_MAX = SQRT_2PI / 4.0
_SQRT2 = math.sqrt(2.0)
_SQRT1_2 = math.sqrt(0.5)
_FP_SLACK = 1e-12


def normal_cdf(x):
    """Standard normal distribution function, full double precision.

    scipy's ndtr split: 0.5 + 0.5 erf(x/sqrt 2) for |x| < 1, and the tail
    0.5 erfc(|x|/sqrt 2), reflected for x > 0, beyond.  math.erf/erfc take
    one value at a time, so each branch maps them over its values.
    """
    arr = np.asarray(x, dtype=float)
    u = arr * _SQRT1_2
    near = np.abs(u) < _SQRT1_2
    far = ~near
    out = np.empty(arr.shape)
    out[near] = 0.5 + 0.5 * np.fromiter(map(math.erf, u[near].tolist()), dtype=float)
    tail = 0.5 * np.fromiter(map(math.erfc, np.abs(u[far]).tolist()), dtype=float)
    out[far] = np.where(u[far] > 0, 1.0 - tail, tail)
    return float(out) if out.ndim == 0 else out


def g(s, w):
    """The bounded Stein solution g_s(w).

    Branch-wise erfcx evaluation: for w >= s,
        g = sqrt(2 pi) * Phi(s) * erfcx(w/sqrt 2)/2,
    and symmetrically below s, so exp(w^2/2) never materializes.
    """
    from scipy.special import erfcx, ndtr

    s_arr, w_arr = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(w, dtype=float))
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    w_arr = np.atleast_1d(w_arr)
    out = np.empty(w_arr.shape)
    hi = w_arr >= s_arr
    out[hi] = SQRT_2PI * ndtr(s_arr[hi]) * 0.5 * erfcx(w_arr[hi] / _SQRT2)
    lo = ~hi
    out[lo] = SQRT_2PI * ndtr(-s_arr[lo]) * 0.5 * erfcx(-w_arr[lo] / _SQRT2)
    return float(out[0]) if scalar else out


def g_prime(s, w):
    """g_s'(w) from the differential equation: w g_s(w) + 1(w <= s) - Phi(s).

    At w = s the indicator includes the point, which realizes the left-limit
    convention g_s'(s) = g_s'(s-).
    """
    from scipy.special import ndtr

    s_arr = np.asarray(s, dtype=float)
    w_arr = np.asarray(w, dtype=float)
    out = w_arr * g(s, w) + (w_arr <= s_arr) - ndtr(s_arr)
    return float(out) if out.ndim == 0 else out


def g_second(s, w):
    """g_s''(w) = g_s(w) + w g_s'(w) for w != s (left values on the kink)."""
    w_arr = np.asarray(w, dtype=float)
    out = g(s, w) + w_arr * g_prime(s, w)
    return float(out) if out.ndim == 0 else out


@dataclass
class SteinCheckReport:
    """Worst margins of the solution bounds over an evaluation grid."""

    s_values: Tuple[float, ...]
    w_min: float
    w_max: float
    step: float
    g_min: float
    g_max: float
    gprime_abs_max: float
    wg_abs_max: float
    gsecond_margin_min: float  # min over grid of bound - |g''|
    jump_errors: Dict[float, float] = field(default_factory=dict)
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "s_values": list(self.s_values),
            "grid": {"w_min": self.w_min, "w_max": self.w_max, "step": self.step},
            "g_min": self.g_min,
            "g_max": self.g_max,
            "g_upper_bound": G_MAX,
            "gprime_abs_max": self.gprime_abs_max,
            "wg_abs_max": self.wg_abs_max,
            "gsecond_margin_min": self.gsecond_margin_min,
            "jump_errors": {str(s): e for s, e in self.jump_errors.items()},
            "passed": self.passed,
        }


def check_stein_properties(
    w_min: float = -8.0,
    w_max: float = 8.0,
    step: float = 0.01,
    s_values: Tuple[float, ...] = (-2.0, 0.0, 1.0),
    jump_h: float = 1e-6,
) -> SteinCheckReport:
    """Verify the solution bounds on a dense grid and the kink jump by
    one-sided differences; margins are reported with their worst case."""
    w = np.arange(w_min, w_max + step / 2, step)
    g_min = math.inf
    g_max = -math.inf
    gp_max = 0.0
    wg_max = 0.0
    gs_margin = math.inf
    jumps = {}
    for s in s_values:
        gw = g(s, w)
        gpw = g_prime(s, w)
        gsw = g_second(s, w)
        g_min = min(g_min, float(gw.min()))
        g_max = max(g_max, float(gw.max()))
        gp_max = max(gp_max, float(np.abs(gpw).max()))
        wg_max = max(wg_max, float(np.abs(w * gw).max()))
        gs_margin = min(gs_margin, float((G_MAX + np.abs(w) - np.abs(gsw)).min()))
        # numerical one-sided derivatives across the kink
        right = (g(s, s + jump_h) - g(s, s)) / jump_h
        left = (g(s, s) - g(s, s - jump_h)) / jump_h
        jumps[float(s)] = abs((right - left) - (-1.0))
    passed = (
        g_min > 0.0
        and g_max <= G_MAX + _FP_SLACK
        and gp_max <= 1.0 + _FP_SLACK
        and wg_max <= 1.0 + _FP_SLACK
        and gs_margin >= -_FP_SLACK
        and all(e <= 1e-5 for e in jumps.values())
    )
    return SteinCheckReport(
        s_values=tuple(float(s) for s in s_values),
        w_min=float(w_min),
        w_max=float(w_max),
        step=float(step),
        g_min=g_min,
        g_max=g_max,
        gprime_abs_max=gp_max,
        wg_abs_max=wg_max,
        gsecond_margin_min=gs_margin,
        jump_errors=jumps,
        passed=passed,
    )
