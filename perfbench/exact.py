"""Closed-form references for the radius-r indicator kernel on the unit box.

The kernel f(x, y) = 1(|x - y| <= r) under mu_t = t * Lebesgue has the
chaos kernels f_1(x) = 2 t A(x) and f_2 = f, where A(x) is the volume of
the r-ball around x that lies inside the box.  Hence

    EF    = t^2 * P2,               P2 = integral of A over the box,
    Var F = 4 t^3 * integral of A^2 + 2 t^2 * P2,
    M_11  = t * integral of f_1^4 = 16 t^5 * integral of A^4.

In 1-D every integral is a polynomial in r.  In 2-D, A is the disc area
minus the caps cut off by the box edges, written in closed form, and the
integral of A^2 over the corner squares uses Gauss-Legendre quadrature;
its error is far below any Monte Carlo error bar checked against it.
"""

from __future__ import annotations

import math

import numpy as np


def _check(r: float):
    if not 0.0 < r <= 0.5:
        raise ValueError("references cover radii in (0, 1/2]")


def ef_1d(t: float, r: float) -> float:
    _check(r)
    return t * t * (2.0 * r - r * r)


def var_f_1d(t: float, r: float) -> float:
    """Var F = 4 t^3 (4 r^2 - 10 r^3 / 3) + 2 t^2 (2 r - r^2)."""
    _check(r)
    int_a2 = 4.0 * r**2 - 10.0 * r**3 / 3.0
    return 4.0 * t**3 * int_a2 + 2.0 * ef_1d(t, r)


def m11_1d(t: float, r: float) -> float:
    """M_11 = 16 t^5 (16 r^4 - 98 r^5 / 5)."""
    _check(r)
    int_a4 = 16.0 * r**4 - 98.0 * r**5 / 5.0
    return 16.0 * t**5 * int_a4


def ef_2d(t: float, r: float) -> float:
    """EF = t^2 (pi r^2 - 8 r^3 / 3 + r^4 / 2)."""
    _check(r)
    return t * t * (math.pi * r**2 - 8.0 * r**3 / 3.0 + r**4 / 2.0)


def _cap(r: float, d):
    """Area of the part of an r-disc beyond a line at distance d < r."""
    d = np.minimum(d, r)
    return r * r * np.arccos(d / r) - d * np.sqrt(r * r - d * d)


def _half_chord_integral(r: float, a):
    """Antiderivative of sqrt(r^2 - a^2)."""
    return 0.5 * (a * np.sqrt(r * r - a * a) + r * r * np.arcsin(a / r))


def _corner(r: float, x, y):
    """Area of the r-disc around (x, y) with both X < 0 and Y < 0."""
    a_max = np.sqrt(np.maximum(r * r - y * y, 0.0))
    inside = x < a_max
    x_in = np.minimum(x, a_max)
    area = (
        _half_chord_integral(r, a_max) - _half_chord_integral(r, x_in) - y * (a_max - x_in)
    )
    return np.where(inside, area, 0.0)


def var_f_2d(t: float, r: float, nodes: int = 256) -> float:
    """Var F on the unit square: interior, four edge strips, four corners."""
    _check(r)
    disc = math.pi * r * r
    u, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * r * (u + 1.0)  # distance to the nearest edge, in [0, r]
    wx = 0.5 * r * w
    edge_a = disc - _cap(r, x)
    strip = float(np.sum(wx * edge_a**2))
    xx, yy = np.meshgrid(x, x, indexing="ij")
    corner_a = disc - _cap(r, xx) - _cap(r, yy) + _corner(r, xx, yy)
    corner = float(np.einsum("i,j,ij->", wx, wx, corner_a**2))
    side = 1.0 - 2.0 * r
    int_a2 = side * side * disc * disc + 4.0 * side * strip + 4.0 * corner
    return 4.0 * t**3 * int_a2 + 2.0 * ef_2d(t, r)
