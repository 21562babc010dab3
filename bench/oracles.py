"""Independent reference computations for checking heislor's outputs.

Everything here is written from the geometry directly, with numpy and the
standard library only; nothing is imported from heislor, so a fault in the
package cannot hide in its own reference.  The group law is

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x y' - x' y) / 2)

with x the time coordinate.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps

# (2 ln 2 - 1) / 32: volume of the axis diamond J(0, (1, 0, 0)), the growth
# constant K in the Hausdorff lower bound L^3(B) / K
UNIT_DIAMOND_VOLUME = (2.0 * math.log(2.0) - 1.0) / 32.0


def mul(p, q):
    """Group product p * q of two 3-sequences."""
    px, py, pz = p
    qx, qy, qz = q
    return (px + qx, py + qy, pz + qz + 0.5 * (px * qy - qx * py))


def inv(p):
    return (-p[0], -p[1], -p[2])


# --- the exponential map ---------------------------------------------------


def _sinhc(s: float) -> float:
    # sinh(s) / s
    if abs(s) < 1e-3:
        s2 = s * s
        return 1.0 + s2 / 6.0 + s2 * s2 / 120.0
    return math.sinh(s) / s


def _cosh1c(s: float) -> float:
    # (cosh(s) - 1) / s = 2 sinh(s/2)^2 / s, which has no cancellation
    if s == 0.0:
        return 0.0
    return 2.0 * math.sinh(0.5 * s) ** 2 / s


def _sinh_excess(s: float) -> float:
    # (sinh(s) - s) / s^3 = sum_k s^(2k) / (2k + 3)!
    if abs(s) >= 2.0:
        return (math.sinh(s) - s) / (s * s * s)
    s2 = s * s
    term = 1.0 / 6.0
    total = term
    k = 0
    while term > 1e-19 * total:
        k += 1
        term *= s2 / ((2 * k + 2) * (2 * k + 3))
        total += term
    return total


def exp_point(u: float, v: float, w: float, t: float = 1.0):
    """Point at parameter time t of the geodesic from the origin with
    initial horizontal velocity (u, v) and bending w."""
    s = w * t
    sh = _sinhc(s)
    c1 = _cosh1c(s)
    x = t * (u * sh + v * c1)
    y = t * (v * sh + u * c1)
    z = 0.5 * (u - v) * (u + v) * w * t ** 3 * _sinh_excess(s)
    return (x, y, z)


def geodesic_length(u: float, v: float) -> float:
    """Lorentzian length of the unit-time geodesic: sqrt(u^2 - v^2)."""
    return math.sqrt((u - v) * (u + v))


def log_tolerance(w: float, scale: float = 1.0) -> float:
    """Relative accuracy to expect from inverting the exponential map.

    Rounding the endpoint alone moves the recovered bending by about
    eps e^{2|w|} / 16; the factor 256 covers the few roundings of the
    translation and boost on the way in.
    """
    return 256.0 * EPS * scale * (1.0 + math.exp(min(2.0 * abs(w), 700.0)) / 16.0)


def close(got: float, want: float, rel: float) -> bool:
    return bool(abs(got - want) <= rel * abs(want))


def points_close(got, want, rel: float) -> bool:
    scale = max(1.0, max(abs(c) for c in want))
    return all(abs(g - w) <= rel * scale for g, w in zip(got, want))


# --- causal cones and diamonds -------------------------------------------


def _cone_margin(x, y, z):
    # (x^2 - y^2) - 4|z|, with the difference of squares formed as a product
    # so points near the null cone keep their digits
    ay = np.abs(y)
    return (x - ay) * (x + ay) - 4.0 * np.abs(z)


def in_diamond(pts: np.ndarray, q, rel_tol: float, floor: float = 0.0) -> np.ndarray:
    """Membership of rows of pts in J(0, q) = J+(0) /\\ J-(q).

    The tolerance is relative to the homogeneous size x^2 + y^2 + 4|z| of
    each displacement, so the test means the same at every scale; `floor`
    is added to that size where the points carry rounding from a larger
    frame, such as a boost applied to the whole diamond.
    """
    a, b, c = q
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    dx = a - x
    dy = b - y
    dz = c - z + 0.5 * (a * y - b * x)
    ok = (x >= 0.0) & (dx >= 0.0)
    for px, py, pz in ((x, y, z), (dx, dy, dz)):
        size = px * px + py * py + 4.0 * np.abs(pz) + floor
        ok &= _cone_margin(px, py, pz) >= -rel_tol * size
    return ok


def _entropy_term(m: float, M: float) -> float:
    # m M + m^2 ln m + M^2 ln M, with x^2 ln x -> 0; for small s = min(m, M)
    # the expansion about M = 1 - s keeps the s^2 ln s term from cancelling
    s = min(m, M)
    if s <= 0.0:
        return 0.0
    if s < 1e-3:
        return s * s * (math.log(s) + 0.5 - s / 3.0 - s * s / 12.0 - s ** 3 / 30.0)
    return m * M + m * m * math.log(m) + M * M * math.log(M)


def diamond_volume(q) -> float:
    """Lebesgue volume of J(0, q) for q in the chronological future of 0:

        -((a^2 - b^2)^2 / 8) (m M + m^2 ln m + M^2 ln M),
        m = (1 + 4c / (a^2 - b^2)) / 2,  M = 1 - m.
    """
    a, b, c = q
    T2 = (a - b) * (a + b)
    m = 0.5 * (1.0 + 4.0 * c / T2)
    return -(T2 * T2 / 8.0) * _entropy_term(m, 1.0 - m)


def binomial_ok(k: int, n: int, p: float, sigmas: float = 6.0) -> bool:
    """k successes in n draws is within `sigmas` standard deviations of n p."""
    sd = math.sqrt(max(n * p * (1.0 - p), 1.0))
    return abs(k - n * p) <= sigmas * sd


# --- the Carnot-Caratheodory metric ----------------------------------------


def arc_endpoint(chord: float, theta: float, phi: float, sign: float):
    """Forward circular-arc map.

    A horizontal curve whose planar projection is a circular arc of chord
    length `chord` in direction `theta`, turning by `phi` in (0, 2 pi),
    ends at height sign * (swept area); its length is its CC length.
    Returns (endpoint, length).
    """
    half = 0.5 * phi
    area = chord * chord * (phi - math.sin(phi)) / (8.0 * math.sin(half) ** 2)
    point = (chord * math.cos(theta), chord * math.sin(theta), sign * area)
    return point, chord * half / math.sin(half)


def cc_unit_ball_volume(nodes: int = 400) -> float:
    """Lebesgue volume of the CC unit ball by quadrature.

    B(0, 1) = {|z| <= f(r)} with r the planar radius: the largest area for a
    chord r is cut off by an arc of length 1 turning by phi, so
    r = sin(phi/2) / (phi/2) and f = (phi - sin phi) / (2 phi^2).  Then
    vol = int_0^1 2 pi r * 2 f(r) dr, integrated in phi over (0, 2 pi).
    """
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    phi = math.pi * (xg + 1.0)  # (0, 2 pi)
    h = 0.5 * phi
    r = np.sin(h) / h
    f = (phi - np.sin(phi)) / (2.0 * phi * phi)
    drdphi = 0.5 * (h * np.cos(h) - np.sin(h)) / (h * h)
    integrand = 4.0 * math.pi * r * f * np.abs(drdphi)
    return float(math.pi * np.sum(wg * integrand))


# --- curvature ---------------------------------------------------------------


def _ln_abs_det_factor(s: float, w: float) -> float:
    # ln |s sinh(x) (x cosh x - sinh x)|, x = w s / 2: the bending-dependent
    # factor of the Jacobian determinant of the exponential map at time s
    x = abs(0.5 * w * s)
    if x < 1e-2:
        # x cosh x - sinh x = x^3/3 (1 + x^2/10 + ...)
        core = x ** 3 / 3.0 * (1.0 + x * x / 10.0 + x ** 4 / 280.0)
        return math.log(abs(s) * math.sinh(x) * core)
    if x < 30.0:
        return math.log(abs(s) * math.sinh(x) * (x * math.cosh(x) - math.sinh(x)))
    return math.log(abs(s)) + 2.0 * x - 2.0 * math.log(2.0) + math.log(x - 1.0)


def jacobian_ratio(t: float, w: float) -> float:
    """|det D exp(t - 1)| / |det D exp(-1)| along the w-bent geodesic."""
    return math.exp(_ln_abs_det_factor(t - 1.0, w) - _ln_abs_det_factor(-1.0, w))
