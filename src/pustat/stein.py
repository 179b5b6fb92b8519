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

import numpy as np

__all__ = [
    "normal_cdf",
    "g",
    "g_prime",
    "g_second",
    "check_stein_properties",
    "G_MAX",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
G_MAX = SQRT_2PI / 4.0
_SQRT2 = math.sqrt(2.0)
_SQRT1_2 = math.sqrt(0.5)
_FP_SLACK = 1e-12
# what check_stein_properties evaluates: g_s on a grid of w for each s, and
# the step of its one-sided differences across the kink
_GRID = {"w_min": -8.0, "w_max": 8.0, "step": 0.01}
_S_VALUES = (-2.0, 0.0, 1.0)
_JUMP_H = 1e-6
_CDF_CHUNK = 1 << 16  # values per list that normal_cdf maps math.erf/erfc over


def normal_cdf(x):
    """Standard normal distribution function, full double precision.

    scipy's ndtr split: 0.5 + 0.5 erf(x/sqrt 2) for |x| < 1, and the tail
    0.5 erfc(|x|/sqrt 2), reflected for x > 0, beyond.  math.erf/erfc take
    one value at a time, so each branch maps them over its values, a chunk
    at a time.
    """
    arr = np.asarray(x, dtype=float)
    u = arr * _SQRT1_2
    near = np.abs(u) < _SQRT1_2
    far = ~near
    out = np.empty(arr.shape)
    out[near] = 0.5 + 0.5 * _mapped(math.erf, u[near])
    tail = 0.5 * _mapped(math.erfc, np.abs(u[far]))
    out[far] = np.where(u[far] > 0, 1.0 - tail, tail)
    return float(out) if out.ndim == 0 else out


def _mapped(f, values):
    """f over the 1-D array ``values``, ``_CDF_CHUNK`` values at a time: a
    Python float takes 32 bytes, so no list holds a whole large input."""
    out = np.empty(len(values))
    for start in range(0, len(values), _CDF_CHUNK):
        chunk = values[start : start + _CDF_CHUNK]
        out[start : start + len(chunk)] = np.fromiter(map(f, chunk.tolist()), float, len(chunk))
    return out


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


def check_stein_properties() -> dict:
    """Verify the solution bounds on the grid ``_GRID`` at each of
    ``_S_VALUES`` and the kink jump by one-sided differences of step
    ``_JUMP_H``; returns the worst margins, as ``pustat stein-check`` prints
    them."""
    w = np.arange(_GRID["w_min"], _GRID["w_max"] + _GRID["step"] / 2, _GRID["step"])
    g_min = math.inf
    g_max = -math.inf
    gp_max = 0.0
    wg_max = 0.0
    gs_margin = math.inf
    jumps = {}
    for s in _S_VALUES:
        gw = g(s, w)
        gpw = g_prime(s, w)
        gsw = g_second(s, w)
        g_min = min(g_min, float(gw.min()))
        g_max = max(g_max, float(gw.max()))
        gp_max = max(gp_max, float(np.abs(gpw).max()))
        wg_max = max(wg_max, float(np.abs(w * gw).max()))
        gs_margin = min(gs_margin, float((G_MAX + np.abs(w) - np.abs(gsw)).min()))
        # numerical one-sided derivatives across the kink
        right = (g(s, s + _JUMP_H) - g(s, s)) / _JUMP_H
        left = (g(s, s) - g(s, s - _JUMP_H)) / _JUMP_H
        jumps[str(s)] = abs((right - left) - (-1.0))
    passed = (
        g_min > 0.0
        and g_max <= G_MAX + _FP_SLACK
        and gp_max <= 1.0 + _FP_SLACK
        and wg_max <= 1.0 + _FP_SLACK
        and gs_margin >= -_FP_SLACK
        and all(e <= 1e-5 for e in jumps.values())
    )
    return {
        "s_values": list(_S_VALUES),
        "grid": dict(_GRID),
        "g_min": g_min,
        "g_max": g_max,
        "g_upper_bound": G_MAX,
        "gprime_abs_max": gp_max,
        "wg_abs_max": wg_max,
        "gsecond_margin_min": gs_margin,  # min over the grid of bound - |g''|
        "jump_errors": jumps,
        "passed": passed,
    }
