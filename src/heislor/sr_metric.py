"""Sub-Riemannian (Carnot-Caratheodory) distance and anisotropic boxes.

The optimal horizontal curve from the origin to (x, y, z) projects to a
circular arc through (0,0) and (x,y) enclosing signed area z (the classical
planar Dido problem), so the distance reduces to one monotone scalar equation
for the turning angle phi of the arc:

    (phi - sin phi) / (8 sin^2(phi/2)) = |z| / chord^2,   phi in (0, 2 pi),

and then d = chord * (phi/2) / sin(phi/2).  The ratio on the left and its
bracketed Newton solve are the circular case of the Dido kernel in
minkowski_iso.  Degenerate cases: a straight segment when z = 0 and a full
circle (d = 2 sqrt(pi |z|)) when chord <= 1e-14 sqrt(|z|), within 3e-15 of
the arc; the test is relative and squares no chord, so the distance stays
homogeneous at any scale, down to the smallest subnormal chord.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from heislor.heisenberg_core import (
    NULL_TOL,
    ORIGIN,
    Diamond,
    Event,
    group_inv,
    group_mul,
    in_causal_future,
    in_chronological_future,
    require_finite,
)
from heislor.minkowski_iso import _newton_float, _newton_step, _odd_tail, _xp, boost_to_axis


class BoxSpec(NamedTuple):
    """The anisotropic box [-r, r] x [-r, r] x [-r^2, r^2]."""

    r: float


# elements per Newton pass of _solve_arc_angle; bounds its temporaries
_ARC_CHUNK = 1 << 16


def _arc_start(m):
    # Newton's start for m >= 1e-9, interpolating phi ~ 12 m at m -> 0 and
    # 2 pi - phi ~ sqrt(pi / m) at m -> oo.  Floats or arrays.
    s = (6.0 / math.pi) * m / _xp(m).sqrt(1.0 + (9.0 / math.pi ** 3) * m)
    return (2.0 * math.pi) * s / (1.0 + s)


def _arc_angle(m: float) -> float:
    # _solve_arc_angle for one float m, with the same root, start, steps and stop
    if m < 1e-9:
        return 12.0 * m
    return _newton_float(_arc_start(m), m, 0.0, 2.0 * math.pi, circ=True)[0]


def _solve_arc_angle(m):
    # invert R_circ on [0, 2 pi) for m >= 0.  Below m = 1e-9 the series root
    # phi = 12 m (1 - 24 m^2 / 5 + ...) is exact in float64.  Larger m take
    # minkowski_iso._newton_step on [0, 2 pi], in chunks of _ARC_CHUNK, from
    # _arc_start, until done: four to six evaluations per element on average.
    m = np.asarray(m, dtype=float)
    flat = m.ravel()
    phi = 12.0 * flat
    todo = np.flatnonzero(flat >= 1e-9)
    for c0 in range(0, len(todo), _ARC_CHUNK):
        idx = todo[c0:c0 + _ARC_CHUNK]
        mc = flat[idx]
        p, lo, hi = _arc_start(mc), 0.0, 2.0 * math.pi
        for _ in range(100):
            if not len(idx):
                break
            p, lo, hi, done = _newton_step(p, mc, lo, hi, circ=True)
            phi[idx[done]] = p[done]
            go = ~done
            idx, mc, p, lo, hi = idx[go], mc[go], p[go], lo[go], hi[go]
        phi[idx] = p
    return phi.reshape(m.shape)


def _near_circle_factor(m):
    # d / chord for m = |z| / chord^2 > 1e2.  Near the full circle phi = 2 pi -
    # eps cannot hold the digits of eps, and (phi/2) / sin(phi/2) magnifies
    # its last ulp: solve sin(eps/2) = sqrt((2 pi - (eps - sin eps)) / (8 m))
    # for s = sin(eps/2) instead, a fixed point that gains at least three
    # digits a step, and return (pi - eps/2) / s.  Floats or arrays.
    xp, asin = (np, np.arcsin) if isinstance(m, np.ndarray) else (math, math.asin)
    s = xp.sqrt((0.25 * math.pi) / m)
    for _ in range(3):
        s = xp.sqrt((2.0 * math.pi - _odd_tail(2.0 * asin(s), circ=True)) / (8.0 * m))
    return (math.pi - asin(s)) / s


def _distance_from_origin(xyz: np.ndarray) -> np.ndarray:
    """Vectorized CC distance from the origin to rows of an (n, 3) array."""
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    chord = np.hypot(xyz[:, 0], xyz[:, 1])
    az = np.abs(xyz[:, 2])
    out = np.empty(len(xyz))
    circ = chord <= 1e-14 * np.sqrt(az)
    out[circ] = 2.0 * np.sqrt(math.pi * az[circ])
    rest = ~circ
    if np.any(rest):
        ch = chord[rest]
        # divide by the chord twice where its square is not a normal float
        tiny = ch * ch < sys.float_info.min
        m = az[rest] / np.where(tiny, ch, ch * ch) / np.where(tiny, ch, 1.0)
        phi = _solve_arc_angle(m)
        half = 0.5 * phi
        factor = np.divide(half, np.sin(half), out=np.ones(len(half)), where=phi > 0.0)
        big = m > 1e2
        if np.any(big):
            factor[big] = _near_circle_factor(m[big])
        out[rest] = ch * factor
    return out


def sr_distance(p, q) -> float:
    """Carnot-Caratheodory distance between two points of the group.

    The float twin of _distance_from_origin, on the same kernel pieces; the
    two agree within an ulp or so (libm's tan, log and asin against numpy's).
    """
    require_finite(p, q)
    x, y, z = group_mul(group_inv(p), q)
    # np.hypot, as the array path: math.hypot rounds differently
    chord, az = float(np.hypot(x, y)), abs(z)
    if chord <= 1e-14 * math.sqrt(az):
        return 2.0 * math.sqrt(math.pi * az)
    m = az / (chord * chord) if chord * chord >= sys.float_info.min else az / chord / chord
    if m > 1e2:
        return chord * _near_circle_factor(m)
    half = 0.5 * _arc_angle(m)
    return chord * (half / math.sin(half) if half > 0.0 else 1.0)


def box_contains(spec: BoxSpec, p) -> bool:
    """Coordinatewise membership in Box(r), boundary inclusive (NULL_TOL).

    p is a point of floats or of arrays (pts.T for an (n, 3) array), answered
    elementwise.
    """
    r = spec.r
    x, y, z = p
    return (abs(x) <= r + NULL_TOL) & (abs(y) <= r + NULL_TOL) & (abs(z) <= r * r + NULL_TOL)


def uniform_box(key, lo, hi, n: int) -> np.ndarray:
    """n uniform points of the box [lo, hi] in R^3 from the random substream
    default_rng(key), drawn one coordinate column after the other."""
    rng = np.random.default_rng(key)
    return np.column_stack([rng.uniform(a, b, n) for a, b in zip(lo, hi)])


# Over the planar diamond |y| <= min(x, T - x), the axis diamond
# J(0, (T, 0, c)) is one z-interval: |z| <= f = (x^2 - y^2)/4 (the future cone
# of 0) and |z - m| <= g = ((T - x)^2 - y^2)/4 with m = c + T y/2 (the past
# cone of the vertex, through the group displacement).  It starts at
# lo = max(-f, m - g) and has length L = min(2f, 2g, f + g - |m|).
#
# L <= Lmax = T^2/8 - 2 c^2/T^2, with equality at (T/2, -2c/T).  Scale to
# T = 1 (x, y scale with T; z, c with T^2), so |c| < 1/4, and put
# s = 1/2 - x, so g - f = s/2.  The four pieces 2f, 2g, f + g - m and
# f + g + m all have Hessian diag(1, -1), so none has a local maximum, and
# on the edges of the planar diamond f = 0 or g = 0, so L <= 0.  Hence L is
# largest where two pieces tie, on one of four lines:
# - 2m = s or 2m = -s.  Then the pieces are 2f and 2g, y = +-s - 2c, and
#   L = 2 min(f, g) is Lmax less |s| (1/2 - 2c) or |s| (1/2 + 2c).
# - m = 0, y = -2c.  L = 2 min(f, g), where f grows with x and g falls, so
#   L <= 2 f(1/2, -2c) = Lmax.
# - s = 0.  f = g and y = 2 (m - c), so L = 2f - |m| =
#   Lmax - 2 m^2 - (|m| - 4 c m) <= Lmax, with equality only at m = 0.
#
# For c >= 0 the fibre is empty off a strip.  Put x = alpha + beta,
# y = alpha - beta with alpha, beta in [0, T/2], and gamma = T/2 - beta.
# Then f = alpha beta, g = (T/2 - alpha) gamma and m = c + T (alpha + gamma)/2
# - T^2/4, so f + g = T (alpha + gamma)/2 - 2 alpha gamma and
#     L <= f + g - |m| <= f + g - m = eps - 2 alpha gamma,  eps = T^2/4 - c.
# So L > 0 only on the strip 2 alpha gamma < eps of [0, T/2]^2.  As eps <=
# T^2/4, its corner a0 = eps/T is at most T/4, and its area is
#     A = a0 T/2 + int_a0^(T/2) eps/(2 alpha) d alpha = (eps/2)(1 + ln(T^2/(2 eps))),
# at most 0.85 T^2/4, at c = 0: for every c, draws on the strip keep every
# hit that draws on the square do, in less area.  The map (alpha, beta) -> (x, y) doubles areas, so
# the strip times [0, Lmax] has the volume B = 2 Lmax A.  c < 0 is the image
# of |c| under the automorphism (x, y, z) -> (x, -y, -z), which maps
# J(0, (T, 0, |c|)) onto J(0, (T, 0, c)).


def diamond_fibre(T: float, c: float, x, y):
    """(lo, L): the z-fibre [lo, lo + L] of J(0, (T, 0, c)) over the planar
    points (x, y) of |y| <= min(x, T - x); L < 0 where the fibre is empty."""
    f = 0.25 * (x - y) * (x + y)
    g = 0.25 * (T - x - y) * (T - x + y)
    m = c + 0.5 * T * y
    lo = np.maximum(-f, m - g)
    return lo, np.minimum(np.minimum(2.0 * f, 2.0 * g), f + g - np.abs(m))


def fibre_max(T2: float, c: float) -> float:
    """The largest fibre length of J(0, (T, 0, c)), T^2/8 - 2 c^2/T^2, for
    T2 = T^2."""
    return 2.0 * (0.25 * T2 - c) * (0.25 * T2 + c) / T2


def _strip(T2: float, c: float):
    # (eps, span): eps = T^2/4 - |c| and span = 1 + ln(T^2/(2 eps)), the
    # strip's area over eps/2.  T2 is the T^2 that the cone predicate tested,
    # so eps >= NULL_TOL/4 > 0 and span is finite.
    eps = 0.25 * T2 - abs(c)
    return eps, 1.0 + math.log(T2 / (2.0 * eps))


def envelope_volume(T2: float, c: float) -> float:
    """The volume B = 2 fibre_max A that fibre_hits' draws fill, A the area
    of the strip 2 alpha gamma < T^2/4 - |c|; B >= vol J(0, (T, 0, c))."""
    eps, span = _strip(T2, c)
    return fibre_max(T2, c) * eps * span


# draws per (seed, chunk) substream of fibre_hits' callers
FIBRE_CHUNK = 1 << 14


def fibre_hits(T2: float, c: float, key, n: int) -> tuple:
    """n hit-or-miss draws under the fibres of J(0, (T, 0, c)), T^2 = T2.

    Returns (x, y, z, hit): the draws as points, and the mask of those in
    the diamond.  From the substream default_rng(key), for c >= 0,
    (alpha, gamma) is uniform on the strip 2 alpha gamma < T^2/4 - c of
    [0, T/2]^2 and u uniform in [0, fibre_max]; a draw is
    (x, y) = (alpha + beta, alpha - beta), beta = T/2 - gamma, and
    z = lo + u, and it hits when u <= L.  c < 0 draws |c| and maps the
    points by (x, y, z) -> (x, -y, -z).  So each draw stands for the volume
    envelope_volume(T2, c) / n.
    """
    T = math.sqrt(T2)
    eps, span = _strip(T2, c)
    rng = np.random.default_rng(key)
    t = rng.uniform(0.0, span, n)
    s = rng.uniform(0.0, 0.5 * T, n)
    u = rng.uniform(0.0, fibre_max(T2, c), n)
    # alpha's marginal density is constant up to a0 = eps/T and eps/(2 alpha)
    # after: alpha = a0 t for t <= 1 and a0 e^(t - 1) above, where gamma's
    # range [0, eps/(2 alpha)] is [0, (T/2) e^(1 - t)].  In place, to keep a
    # chunk's temporaries few.
    e = np.exp(np.minimum(1.0 - t, 0.0))
    a = np.minimum(t, 1.0, out=t)
    a *= eps / T
    a /= e
    b = np.multiply(s, e, out=s)
    np.subtract(0.5 * T, b, out=b)
    x, y = a + b, np.subtract(a, b, out=a)
    lo, length = diamond_fibre(T, abs(c), x, y)
    z = np.add(lo, u, out=lo)
    if c < 0.0:
        np.negative(y, out=y)
        np.negative(z, out=z)
    return x, y, z, u <= length


def sample_diamond(q, n: int, seed) -> np.ndarray:
    """n uniform points of the diamond J(0, q), hit-or-miss under its fibres.

    Boosts with z fixed are volume-preserving group automorphisms that
    preserve causality, so the sampling runs in the frame where q is
    (T, 0, c) and maps back.  Chunk i of FIBRE_CHUNK draws comes from the
    substream (seed, i), so the first k of n points are the k-point sample.
    """
    if not in_chronological_future(ORIGIN, q):
        raise ValueError("the diamond J(0, q) has no interior to sample")
    a, b, c = q
    ch, sh, _ = boost_to_axis(a, b)
    T2 = (a - b) * (a + b)
    out = [np.empty((0, 3))]
    while sum(map(len, out)) < n:
        x, y, z, hit = fibre_hits(T2, c, [seed, len(out) - 1], FIBRE_CHUNK)
        out.append(np.column_stack([x[hit], y[hit], z[hit]]))
    x, y, z = np.concatenate(out)[:n].T
    # the inverse boost, elementwise, not a matmul, whose rounding may depend on n
    return np.column_stack([ch * x + sh * y, sh * x + ch * y, z])


def diamond_in_box_check(p, q, n: int, seed) -> dict:
    """Sample J(p, q) and test the two box inclusions.

    Every sampled point r must satisfy (-p)*r in Box(a) with a the time
    component of (-p)*q, and in Box(d(p,q)).
    """
    if not in_causal_future(p, q):
        raise ValueError("need q in the causal future of p")
    rel = group_mul(group_inv(p), q)
    report = {
        "inclusion_pass": True,
        "samples": 0,
        "violations": [],
        "box_radius_vertex": rel.x,
        "box_radius_distance": sr_distance(p, q),
    }
    if rel.x <= NULL_TOL:
        return report  # degenerate p = q
    pts = sample_diamond(rel, n, seed)
    report["samples"] = int(len(pts))
    for radius_key in ("box_radius_vertex", "box_radius_distance"):
        r = report[radius_key]
        bad = ~box_contains(BoxSpec(r), pts.T)
        if np.any(bad):
            report["inclusion_pass"] = False
            report["violations"].append(
                {"radius": r, "point": [float(t) for t in pts[bad][0]]}
            )
    return report


# The boundary of the unit diamond J((-1,0,0), (1,0,0)) is four sheets:
# z + y/2 = +-((1+x)^2 - y^2)/4 bounding J+((-1,0,0)) and y/2 - z =
# +-((1-x)^2 - y^2)/4 bounding J-((1,0,0)).  (x, y, z) -> (x, -y, -z) and
# (-x, y, -z) are group automorphisms lifting reflections of the plane, so
# they keep the CC distance from the origin.  The first keeps the time
# orientation and both vertices, the second reverses it and swaps them: both
# map the diamond onto itself, and together they carry the sheet with the +
# sign onto the other three.  So the distance to the boundary is its minimum
# on that one sheet.


def _boundary_sheet_distance(x, s):
    # CC distance from the origin to the point y = s (1 + x) of the + sheet of
    # J+((-1,0,0)); inf off the diamond (|x| > 1, |s| > 1 or outside J-((1,0,0)))
    h = 1.0 + x
    y = s * h
    z = 0.25 * h * h * (1.0 - s * s) - 0.5 * y
    on = (np.abs(x) <= 1.0) & (np.abs(s) <= 1.0)
    on &= in_causal_future(Event(x, y, z), Event(1.0, 0.0, 0.0))
    return np.where(on, _distance_from_origin(np.column_stack([x, y, z])), np.inf)


def _inner_radius_minimizer():
    # (d, x, s): the minimum d of _boundary_sheet_distance and its argument.
    # A 61 x 61 scan of [-1, 1]^2, then 12 rounds of a 9 x 9 grid spanning
    # one cell of the previous grid either side of its best point, so the
    # spacing shrinks 4x a round, to 2e-9.  The minimum is interior, at
    # x = -0.18176, s = 0.34901.
    x0 = s0 = 0.0
    half, n = 1.0, 61
    for _ in range(13):
        u = np.linspace(-half, half, n)
        x, s = (a.ravel() for a in np.meshgrid(x0 + u, s0 + u))
        d = _boundary_sheet_distance(x, s)
        i = int(np.argmin(d))
        x0, s0 = float(x[i]), float(s[i])
        half, n = u[1] - u[0], 9
    return float(d[i]), x0, s0


@functools.lru_cache(maxsize=1)
def unit_diamond_inner_radius() -> float:
    """Largest rho with the CC ball B(0, rho) inside J((-1,0,0), (1,0,0)).

    The solved minimum of sr_distance(0, .) over the diamond's boundary,
    0.3412244606961536, less 1e-14, its error bound: near the minimizer the
    float distance is within 1.1e-16 of a 30-digit one, and the last grid's
    spacing costs below 1e-18.  So the ball is inside the diamond.
    """
    return _inner_radius_minimizer()[0] - 1e-14


def ball_in_diamond(p, r: float) -> Diamond:
    """A diamond containing the CC ball B(p, r), with tau-diameter 2 r / rho.

    Scales the unit construction: with D = 1/rho the diamond runs from
    p * (-D r, 0, 0) to p * (D r, 0, 0).
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    s = r / unit_diamond_inner_radius()
    lo = group_mul(p, Event(-s, 0.0, 0.0))
    hi = group_mul(p, Event(s, 0.0, 0.0))
    return Diamond(lo, hi)
