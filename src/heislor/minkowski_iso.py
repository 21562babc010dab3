"""Planar Lorentzian isoperimetric (Dido) solver.

Among future-directed causal curves in the Minkowski plane from (0,0) to
(a,b) enclosing a prescribed signed area c, find the curve of maximal
Lorentzian length.  The answer is a straight timelike line (c = 0), a broken
null line (boundary case -a^2 + b^2 + 4|c| = 0), or an arc of hyperbola;
outside the closed region there is no admissible curve.

Everything is solved in boosted coordinates where the endpoint sits at (T, 0)
on the time axis, T = sqrt(a^2 - b^2), and mapped back with the inverse boost.
The hyperbola is found from its bending w, one monotone scalar equation in
c/T^2 (_solve_bending).  Its lift is the geodesic with that bending, so one
kernel, maximizer, decides whether the endpoint is strictly inside the cone
and returns (T, w) for solve, geodesics.tau, geodesics.log and
geodesics.geodesic_between alike.

The Dido kernel below serves both signatures.  The area over the squared
chord enclosed by the arc of bending x is R(x) = tail(x) / (8 s(x/2)^2),
with tail = sinh x - x and s = sinh for these hyperbolae, and tail = x - sin x
and s = sin (circ=True) for the circles of the sub-Riemannian Dido problem
behind sr_metric: R(i phi) = i R_circ(phi).  Both are inverted by one
bracketed Newton step, on floats by _newton_float (the bending here, the arc
angle of sr_metric.sr_distance) and on arrays in sr_metric.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from heislor.heisenberg_core import (
    NULL_TOL,
    ORIGIN,
    NotChronologicalError,
    SampledCurve,
    _causal_defect,
    in_causal_future,
    in_chronological_future,
)

CASE_EMPTY = "empty"
CASE_TIMELIKE_LINE = "timelike_line"
CASE_BROKEN_NULL = "broken_null"
CASE_HYPERBOLA = "hyperbola"


class NoSolutionError(ValueError):
    """The endpoint/area combination admits no causal curve."""


class IsoProblem(NamedTuple):
    """Target endpoint (a, b) and target signed area c."""

    a: float
    b: float
    c: float


class IsoSolution(NamedTuple):
    case: str
    T: float
    y_c: Optional[float]
    max_length: float


def boost_to_axis(a: float, b: float):
    """(ch, sh, T) = (a/T, b/T, sqrt(a^2 - b^2)) for a timelike endpoint.

    The boost (x, y) -> (ch x - sh y, ch y - sh x) sends (a, b) to (T, 0); its
    inverse is (x, y) -> (ch x + sh y, sh x + ch y).  ValueError unless a > |b|
    and T^2 = (a - b)(a + b) is a positive finite float.
    """
    if not a > abs(b):
        raise ValueError("need a > |b| for a future timelike endpoint")
    T2 = (a - b) * (a + b)
    if not 0.0 < T2 < math.inf:
        raise ValueError(f"a^2 - b^2 rounds to {T2!r}: the endpoint is out of float64's range")
    T = math.sqrt(T2)
    return a / T, b / T, T


def hyperbola_ordinate(y_c: float, T: float, x):
    """Ordinate f(x) of the hyperbola arc with vertex ordinate y_c.

    f(x) = y_c - sgn(y_c) sqrt((x - T/2)^2 + y_c^2 - T^2/4), 0 <= x <= T,
    evaluated as sgn(y_c) p / (|y_c| + sqrt(y_c^2 - p)) with p = x (T - x),
    which neither cancels nor overflows when |y_c| >> T (small areas).
    Vectorized in x.
    """
    if abs(y_c) < T / 2 - NULL_TOL:
        raise ValueError("vertex ordinate must satisfy |y_c| >= T/2")
    x = np.asarray(x, dtype=float)
    if np.any(x < -NULL_TOL) or np.any(x > T + NULL_TOL):
        raise ValueError("x outside [0, T]")
    p = x * (T - x)
    r = np.sqrt(np.maximum(p, 0.0))
    y = abs(y_c)
    out = math.copysign(1.0, y_c) * p / (y + np.sqrt(np.maximum(y - r, 0.0)) * np.sqrt(y + r))
    return out if out.ndim else float(out)


def hyperbola_area(y_c: float, T: float) -> float:
    """Area under the arc, A(y_c) = int_0^T f(x) dx, in closed form.

    With k = sqrt(y_c^2 - T^2/4) the antiderivative of sqrt(s^2 + k^2) gives
    A = sgn(y_c) [T^3 / (8 (|y_c| + k)) + k^2 (x - asinh x)],  x = T/(2k),
    which degenerates continuously to sgn(y_c) T^2/4 as k -> 0; x - asinh x
    is the odd tail sinh a - a at a = asinh x, formed without cancellation.
    """
    if abs(y_c) < T / 2 - NULL_TOL:
        raise ValueError("vertex ordinate must satisfy |y_c| >= T/2")
    k = math.sqrt(max(y_c * y_c - T * T / 4.0, 0.0))
    s = 1.0 if y_c > 0 else -1.0
    first = T * T * T / (8.0 * (abs(y_c) + k))
    if k == 0.0:
        return s * first
    return s * (first + k * k * _odd_tail(math.asinh(T / (2.0 * k))))


# denominators d_k of the odd series sum_{k>=1} sgn^(k-1) x^(2k+1) / d_k
# (sgn = -1 when circ) of tail(x), and of x cosh x - sinh x: for |x| < 2
# eleven terms reach 2e-17 relative, where the direct forms lose up to 5 eps.
_TAIL = tuple(math.factorial(2 * k + 1) for k in range(1, 12))
_XCOSH_SINH = tuple(math.factorial(2 * k + 1) // (2 * k) for k in range(1, 12))


def _xp(x):
    # numpy for arrays, math for floats (the functions used have one name)
    return np if isinstance(x, np.ndarray) else math


def _where(c, a, b):
    return np.where(c, a, b) if isinstance(c, np.ndarray) else (a if c else b)


def _horner(d, x, circ):
    # the odd series of d: x^3 / d_1 plus Horner in x^2
    u = -x * x if circ else x * x
    acc = 1.0 / d[-1]
    for dk in d[-2:0:-1]:
        acc = acc * u + 1.0 / dk
    x3 = x * x * x
    return x3 / d[0] + x3 * u * acc


def _odd_series(d, x, circ, direct):
    # direct, replaced where |x| < 2 by the series
    if isinstance(x, np.ndarray):
        small = np.abs(x) < 2.0
        direct[small] = _horner(d, x[small], circ)
        return direct
    return _horner(d, x, circ) if abs(x) < 2.0 else direct


def _odd_tail(x, circ=False):
    """sinh x - x, or x - sin x when circ, free of cancellation."""
    xp = _xp(x)
    return _odd_series(_TAIL, x, circ, x - xp.sin(x) if circ else xp.sinh(x) - x)


def _xcosh_minus_sinh(x: float) -> float:
    """x cosh x - sinh x, free of cancellation."""
    return _odd_series(_XCOSH_SINH, x, False, x * math.cosh(x) - math.sinh(x))


def _dido_ratio(x, circ=False):
    """R(x), odd and increasing onto (-1/4, 1/4), or [0, oo) over [0, 2 pi)
    when circ, and d log R / dx = 1/(4 R) - coth(x/2), or - cot(x/2); x > 0."""
    xp = _xp(x)
    h = 0.5 * x
    s, t = (xp.sin(h), xp.tan(h)) if circ else (xp.sinh(h), xp.tanh(h))
    tail = _odd_tail(x, circ)
    den = 8.0 * s ** 2
    return tail / den, 0.25 * den / tail - 1.0 / t


def _newton_step(x, m, lo, hi, circ=False):
    """(new x, lo, hi, done): a Newton step on log R(x) = log m, x in [lo, hi].

    x becomes a bracket end.  A step out of the bracket, or on a slope that
    rounded to 0 or below (R near 1/4), goes to the midpoint.  done: the step
    changed nothing or landed on a bracket end.  Floats or arrays."""
    f, slope = _dido_ratio(x, circ)
    g = _xp(x).log(f / m)  # < 0 exactly when f < m
    below = g < 0.0
    lo, hi = _where(below, x, lo), _where(below, hi, x)
    new = x - g / _where(slope > 0.0, slope, 1e-300)
    new = _where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
    return new, lo, hi, (new == x) | (new == lo) | (new == hi)


def _newton_float(x: float, m: float, lo: float, hi: float, circ=False):
    """(x, lo, hi, done): _newton_step on floats until done, at most 100 steps."""
    for _ in range(100):
        x, lo, hi, done = _newton_step(x, m, lo, hi, circ)
        if done:
            break
    return x, lo, hi, done


def _solve_bending(zt: float) -> float:
    """Bending w with R(w) = zt, for |zt| < 1/4.

    zt = c/T^2 is the Dido area in units of the squared chord; the hyperbola
    with vertex ordinate sgn(c) (T/2) coth(|w|/2) encloses it, and its lift
    is the geodesic with bending w.  Below |zt| = 1e-9 the series root 12 zt
    is exact in float64.  Above, Newton steps on [0, 64] start from
    12 m / sqrt(1 - 4 m) (m = |zt| < 0.15), or from L + log(L - 1), L =
    -log(2 (1/4 - m)), as 1/4 - R(w) ~ (w - 1) e^-w / 2.  Probes 1, 2, 4, ...
    ulps from the iterate, then halving, tighten the bracket to adjacent
    floats with R(lo) < m <= R(hi), as a bisection on R would end.
    """
    if zt == 0.0:
        return 0.0
    if abs(zt) < 1e-9:
        return 12.0 * zt
    m = abs(zt)
    if m < 0.15:
        w = 12.0 * m / math.sqrt(1.0 - 4.0 * m)
    else:
        L = -math.log(2.0 * (0.25 - m))
        w = L + math.log(L - 1.0)
    w, lo, hi, done = _newton_float(w, m, 0.0, 64.0)
    # a done step leaves w on a bracket end, where R(w) < m exactly when w == lo
    below, step = (w == lo if done else _dido_ratio(w)[0] < m), math.ulp(w)
    while True:
        lo, hi, w = (w, hi, w + step) if below else (lo, w, w - step)
        step *= 2.0
        if not lo < w < hi:
            w = 0.5 * (lo + hi)
            if not lo < w < hi:
                return math.copysign(w, zt)
        below = _dido_ratio(w)[0] < m


def _hyperbola_length(T: float, w: float) -> float:
    # Lorentzian length T (w/2) / sinh(w/2) of the arc of bending w over the
    # chord T, in stable form.  Below |w| = 1e-8 the factor 1 - w^2/24 + ...
    # rounds to 1, and T w/2 may be subnormal: return T.
    if abs(w) < 1e-8:
        return T
    return T * 0.5 * w / math.sinh(0.5 * w)


def maximizer(r) -> tuple[float, float]:
    """(T, w) for r = (a, b, c) in I+(0): the chord T of boost_to_axis and
    the bending w with R(w) = c/T^2.

    The maximizer from 0 to r is the hyperbola arc of bending w over the
    chord T, of length _hyperbola_length(T, w), and its lift is the geodesic
    to r of that bending.  NotChronologicalError off I+(0), and where c/T^2
    rounds to +-1/4 or past: r is then within rounding of the cone's
    boundary, where the maximizer is a null line.  The error carries the
    defect of r, and c/T^2 when a > |b| and T^2 > 0.
    """
    a, b, c = r
    if in_chronological_future(ORIGIN, r):
        T = boost_to_axis(a, b)[2]
        zt = c / (T * T)
        if abs(zt) < 0.25:
            return T, _solve_bending(zt)
    else:
        # T^2 may underflow to 0 on a point with a > |b|: no zt then
        T2 = (a - b) * (a + b)
        zt = c / T2 if a > abs(b) and T2 > 0.0 else None
    raise NotChronologicalError("point not in the chronological future", _causal_defect(r), zt)


def solve(prob: IsoProblem) -> IsoSolution:
    """Full classification plus maximizer parameters and maximal length."""
    if not in_causal_future(ORIGIN, prob):
        return IsoSolution(CASE_EMPTY, 0.0, None, 0.0)
    try:
        T, w = maximizer(prob)
    except NotChronologicalError:
        # on the cone's boundary the broken null line is the only causal
        # curve; to a null endpoint it is straight, and its area rounds to 0
        T = boost_to_axis(prob.a, prob.b)[2] if prob.a > abs(prob.b) else 0.0
        return IsoSolution(CASE_BROKEN_NULL, T, None, 0.0)
    if w == 0.0:
        return IsoSolution(CASE_TIMELIKE_LINE, T, None, T)
    y_c = math.copysign(0.5 * T / math.tanh(0.5 * abs(w)), prob.c)
    return IsoSolution(CASE_HYPERBOLA, T, y_c, _hyperbola_length(T, w))


def classify(prob: IsoProblem) -> str:
    """Feasibility region and solution type for the endpoint/area data."""
    return solve(prob).case


def sample_solution(sol: IsoSolution, prob: IsoProblem, n: int) -> SampledCurve:
    """n samples of the maximizer from (0,0) to (a,b).

    The curve is built as a graph over the boosted time axis and mapped back
    elementwise by the inverse boost of boost_to_axis; sol.T == 0 is the
    straight null segment.  Orientation: the closing chord runs along the
    axis, so positive enclosed area corresponds to a graph dipping to negative
    ordinates; the sampled curve is oriented so its discrete signed area
    converges to +c.
    """
    if sol.case == CASE_EMPTY:
        raise NoSolutionError("no admissible curve for this endpoint/area")
    if n < 2:
        raise ValueError("need n >= 2 samples")
    a, b, c = prob
    if sol.T == 0.0:
        ts = np.linspace(0.0, 1.0, n)
        pts = np.column_stack([ts * a, ts * b])
        return SampledCurve(ts, pts)
    ch, sh, T = boost_to_axis(a, b)
    xs = np.linspace(0.0, T, n)
    if sol.case == CASE_TIMELIKE_LINE:
        ys = np.zeros(n)
    elif sol.case == CASE_BROKEN_NULL:
        ys = -np.sign(c) * np.minimum(xs, np.abs(xs - T))
    else:
        ys = -hyperbola_ordinate(sol.y_c, T, xs)
    return SampledCurve(xs, np.column_stack([ch * xs + sh * ys, sh * xs + ch * ys]))
