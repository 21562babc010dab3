"""Sub-Lorentzian exponential map of the Heisenberg group and its inverse.

Timelike length-maximizers from the origin are parametrized by (u, v, w) with
u > |v|: (u, v) is the initial horizontal velocity and w controls the
hyperbolic bending of the planar projection.  At parameter time t:

    x(t) = (v (cosh(wt) - 1) + u sinh(wt)) / w
    y(t) = (v sinh(wt) + u (cosh(wt) - 1)) / w
    z(t) = (u^2 - v^2) (sinh(wt) - wt) / (2 w^2)

by series below |wt| = 1e-8 (straight lines at w = 0).  At t = 1 this is a
diffeomorphism onto the open chronological future of the origin, which gives
the time separation tau and unique maximizing geodesics between chronologically
related points.  Inversion takes w from minkowski_iso.maximizer, the Dido
inversion (a bracketed Newton solve) at c/T^2, T^2 = x^2 - y^2, which also
decides that the point is in I+(0), and recovers u + v and u - v from the null
coordinates x + y and x - y.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from heislor import minkowski_iso
from heislor.heisenberg_core import (
    ORIGIN,
    Event,
    NotCausalError,
    NotChronologicalError,
    SampledCurve,
    group_inv,
    group_mul,
    in_causal_future,
    in_chronological_future,
    lift,
    require_finite,
)
from heislor.minkowski_iso import _hyperbola_length, _odd_tail, _xcosh_minus_sinh

# below this |w t| the series replaces the closed forms, which divide by w
SERIES_WT = 1e-8


class GeoParam(NamedTuple):
    """Exponential-map coordinates; timelike domain is u > |v|."""

    u: float
    v: float
    w: float


class Geodesic(NamedTuple):
    base: Event
    param: GeoParam
    t_max: float


def exp_point(param, t: float) -> Event:
    """Point reached at parameter time t (any sign) from the origin."""
    u, v, w = param
    wt = w * t
    if abs(wt) < SERIES_WT:
        x = t * (u + 0.5 * v * wt + u * wt * wt / 6.0)
        y = t * (v + 0.5 * u * wt + v * wt * wt / 6.0)
        z = (u * u - v * v) * t ** 3 * w / 12.0 * (1.0 + wt * wt / 20.0)
        return Event(x, y, z)
    sh = math.sinh(wt)
    c1 = 2.0 * math.sinh(0.5 * wt) ** 2  # cosh(wt) - 1
    x = (v * c1 + u * sh) / w
    y = (v * sh + u * c1) / w
    z = 0.5 * (u * u - v * v) * _odd_tail(wt) / (w * w)
    return Event(x, y, z)


def exp_jacobian_det(param, t: float) -> float:
    """Determinant of the differential of the time-t map in (u, v, w)."""
    u, v, w = param
    wt = w * t
    if abs(wt) < SERIES_WT:
        return t ** 5 * (u * u - v * v) / 12.0 * (1.0 + wt * wt / 15.0)
    h = 0.5 * wt
    return (
        4.0
        * t
        * (u * u - v * v)
        * (math.sinh(h) / w)
        * (_xcosh_minus_sinh(h) / (w * w * w))
    )


def log(q) -> GeoParam:
    """Inverse of exp_point(., 1) on the chronological future of the origin.

    w solves the Dido equation R(w) = c/T^2, and (u, v) follow from the null
    coordinates: x + y = (u + v) expm1(w)/w and x - y = (u - v)(-expm1(-w))/w
    at t = 1.  Neither quotient cancels, so exp_point(log(q), 1) is within
    64 (u + |v|)/(u - |v|) ulps of q at any bending."""
    require_finite(q)
    w = minkowski_iso.maximizer(q)[1]
    a, b, _ = q
    # w / expm1(w) keeps its digits for a subnormal w, where (a + b) * w does not
    s, d = (a + b, a - b) if w == 0.0 else (
        (a + b) * (w / math.expm1(w)), (a - b) * (-w / math.expm1(-w)))
    return GeoParam(0.5 * (s + d), 0.5 * (s - d), w)


def tau(p, q) -> float:
    """Time separation: maximal Lorentzian length of causal curves p -> q."""
    require_finite(p, q)
    r = group_mul(group_inv(p), q)
    # 0 off I+(p) and within rounding of its boundary, where the maximizer
    # is a null line of zero length
    try:
        return _hyperbola_length(*minkowski_iso.maximizer(r))
    except NotChronologicalError:
        return 0.0


def geodesic_between(p, q, n: int = 1025) -> Union[Geodesic, SampledCurve]:
    """Maximizing geodesic from p to q.

    Timelike pairs give a Geodesic record; pairs on the null boundary give the
    sampled lift of the straight or broken null line (n samples).
    """
    require_finite(p, q)
    r = group_mul(group_inv(p), q)
    if r == ORIGIN:
        raise ValueError("need distinct endpoints")
    if not in_causal_future(ORIGIN, r):
        raise NotCausalError("endpoints not causally related")
    try:
        return Geodesic(Event(*p), log(r), 1.0)
    except NotChronologicalError:
        pass
    prob = minkowski_iso.IsoProblem(r.x, r.y, r.z)
    sol = minkowski_iso.solve(prob)
    planar = minkowski_iso.sample_solution(sol, prob, n)
    lifted = lift(planar, ORIGIN)
    return SampledCurve(lifted.times, np.column_stack(group_mul(p, lifted.points.T)))


def midpoint_map(anchor, p) -> Event:
    """tau-midpoint of the geodesic from p to anchor.

    Raises NotChronologicalError, from log, unless anchor is in I+(p).
    """
    param = log(group_mul(group_inv(p), anchor))
    return group_mul(p, exp_point(param, 0.5))


def geodesic_inversion(center, p) -> Event:
    """Reflect p through center along the unique geodesic.

    center becomes the tau-midpoint of p and its image; the map is a smooth
    involution with unit Jacobian determinant.  Raises NotChronologicalError,
    from log, unless p is chronologically related to center.
    """
    r = group_mul(group_inv(center), p)
    # rho(x, y, z) = (-x, -y, z) is an automorphism that reverses time
    # orientation: it maps I-(0) onto I+(0), and the inversion commutes with it
    s = 1.0 if in_chronological_future(ORIGIN, r) else -1.0
    x, y, z = exp_point(log(Event(s * r.x, s * r.y, r.z)), -1.0)
    return group_mul(center, Event(s * x, s * y, z))


def cut_additivity_check(param, t1: float, t2: float, t3: float) -> bool:
    """tau is additive along geodesics: no cut points.

    Checks tau(g(t1), g(t3)) = tau(g(t1), g(t2)) + tau(g(t2), g(t3)) within
    1e-8 relative along g(t) = exp_point(param, t).
    """
    if not 0.0 <= t1 < t2 < t3:
        raise ValueError("need 0 <= t1 < t2 < t3")
    g1 = exp_point(param, t1)
    g2 = exp_point(param, t2)
    g3 = exp_point(param, t3)
    whole = tau(g1, g3)
    parts = tau(g1, g2) + tau(g2, g3)
    return abs(whole - parts) <= 1e-8 * max(whole, 1e-300)
