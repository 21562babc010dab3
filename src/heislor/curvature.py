"""Distortion coefficients and the curvature-condition failure computations.

This module evaluates the scalar skeletons of the timelike curvature-dimension
machinery: the model-space distortion coefficients tau_{K,N}^{(t)}(theta), the
Jacobian-determinant ratio that defeats every timelike measure-contraction
property (it falls strictly in the bending |w|, so the first integer witness
below t^N is solved by an integer search, for every finite N), the
midpoint-map determinant 1/32 that defeats the timelike Brunn-Minkowski
inequality, and the plain Brunn-Minkowski arithmetic.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from heislor import geodesics, minkowski_iso
from heislor.heisenberg_core import Event


class DistortionArgs(NamedTuple):
    K: float
    N: float
    t: float
    theta: float


class BMReport(NamedTuple):
    lhs: float
    rhs: float
    satisfied: bool
    parameters: dict


def distortion_tau(args: DistortionArgs) -> float:
    """Distortion coefficient tau_{K,N}^{(t)}(theta); may be +inf.

    Branches: +inf when K theta^2 >= (N-1) pi^2 with K > 0; a sin ratio to
    the power 1 - 1/N with prefactor t^{1/N} for 0 < K theta^2 < (N-1) pi^2;
    t when K theta^2 = 0 or (K < 0 and N = 1); the sinh analogue for
    K theta^2 < 0.
    """
    K, N, t, theta = args
    if not 0.0 <= t <= 1.0:
        raise ValueError("need t in [0, 1]")
    if not N >= 1 or math.isinf(N):
        raise ValueError("need finite N >= 1")
    if theta < 0.0:
        raise ValueError("need theta >= 0")
    if math.isinf(theta):
        if K > 0.0:
            return math.inf
        if K == 0.0:
            return t
        # sinh ratio degenerates to 0 for t < 1 (and 1 at t = 1)
        return 1.0 if t == 1.0 else 0.0
    Kt2 = K * theta * theta
    if K > 0.0 and Kt2 >= (N - 1.0) * math.pi ** 2:
        return math.inf
    if Kt2 == 0.0 or (K < 0.0 and N == 1.0):
        return t
    if Kt2 > 0.0:
        x = theta * math.sqrt(K / (N - 1.0))
        return t ** (1.0 / N) * (math.sin(t * x) / math.sin(x)) ** (1.0 - 1.0 / N)
    x = theta * math.sqrt(-K / (N - 1.0))
    return t ** (1.0 / N) * (math.sinh(t * x) / math.sinh(x)) ** (1.0 - 1.0 / N)


def _ln_det_factor(s: float, w: float) -> float:
    # ln |F(s)| with F(s) = s sinh(ws/2) (ws/2 cosh(ws/2) - sinh(ws/2)),
    # the w-dependent part of the Jacobian determinant at parameter time s
    x = abs(0.5 * w * s)
    if x < 30.0:
        return math.log(
            abs(s) * math.sinh(x) * minkowski_iso._xcosh_minus_sinh(x)
        )
    # asymptotics: sinh x ~ e^x/2, x cosh x - sinh x ~ (x-1) e^x / 2
    return math.log(abs(s)) + 2.0 * x - 2.0 * math.log(2.0) + math.log(x - 1.0)


def tmcp_jacobian_ratio(t: float, w: float) -> float:
    """|det D exp^(t-1)| / |det D exp^(-1)| along the w-bent geodesic.

    This is the contraction factor of mass transported to parameter time t
    relative to the full past point; it tends to (1-t)^5 as w -> 0 and decays
    to 0 like e^{-t |w|} as |w| -> infinity, which defeats t^N lower bounds.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("need t in (0, 1)")
    if abs(w) < 1e-3:
        # series with the leading w^2 correction of the factor ratio
        return (1.0 - t) ** 5 * (1.0 + w * w * ((1.0 - t) ** 2 - 1.0) / 15.0)
    return math.exp(_ln_det_factor(t - 1.0, w) - _ln_det_factor(-1.0, w))


# Proof that the ratio falls strictly in |w|, which the witness search needs.
# Write x = |w|/2, sigma = 1 - t, g(y) = y cosh y - sinh y and
# P(y) = sinh(y) g(y); then |F(-1)| = P(x), |F(t-1)| = sigma P(sigma x) and
#   ratio = sigma P(sigma x) / P(x),
#   d ln ratio / dx = (phi(sigma x) - phi(x)) / x,
#   phi(y) = y P'(y) / P(y) = y coth y + y^2 sinh y / g(y),
# using g' = y sinh y.  y coth y increases: its derivative is
# (sinh 2y / 2 - y) / sinh^2 y > 0.  q = y^2 sinh y / g increases:
#   (q'/q) y g sinh y = y sinh y cosh y - 2 sinh^2 y + y^2 = h(2y),
#   h(u) = (u/4) sinh u - cosh u + 1 + u^2/4
#        = sum_{k>=3} (k/2 - 1) u^{2k} / (2k)! > 0,
# with y, g and sinh y > 0 for y > 0.  So phi increases, phi(sigma x) <
# phi(x), and the ratio falls strictly in |w|; from P(y) ~ (y - 1) e^{2y}/4
# it tends to 0 like e^{-t|w|}, so every threshold t^N > 0 has a witness.
# In floats, ln ratio is the difference of two terms of size about |w|,
# rounded to about |w| eps, while one unit step of w moves it by about t:
# past |w| = t / (64 eps) the computed ratio need not fall step by step.
# It also stops falling once it is subnormal, hence the threshold's floor.


def tmcp_violation_report(t: float, N: float) -> dict:
    """The first integer bending w = -k certifying the contraction failure.

    witness_w is the first w in -1, -2, ... with tmcp_jacobian_ratio(t, w)
    < t^N, and ratio the ratio there.  The ratio falls strictly in |w| to 0
    (proof above), so k is found by doubling and then bisecting over the
    integers, in O(log k) evaluations.  ValueError when N is not finite,
    when t^N is below the smallest normal float, or when the witness lies
    past |w| = t / (64 eps), where the computed ratio no longer resolves a
    unit step of w.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("need t in (0, 1)")
    if not 1.0 <= N < math.inf:
        raise ValueError("need finite N >= 1")
    threshold = t ** N
    if threshold < sys.float_info.min:
        raise ValueError(f"t^N = {threshold!r} is below the smallest normal float")
    k_max = math.floor(t / (64.0 * sys.float_info.epsilon))
    # the witness is -hi, with ratio(-lo) >= threshold (vacuous at lo = 0);
    # hi doubles but stops at k_max, so no witness past it is accepted
    lo, hi = 0, 1
    while not tmcp_jacobian_ratio(t, -float(hi)) < threshold:
        if hi >= k_max:
            raise ValueError(f"the witness lies past |w| = t/(64 eps) = {k_max}")
        lo, hi = hi, min(2 * hi, k_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tmcp_jacobian_ratio(t, -float(mid)) < threshold:
            hi = mid
        else:
            lo = mid
    return {
        "found": True,
        "witness_w": -float(hi),
        "ratio": tmcp_jacobian_ratio(t, -float(hi)),
        "threshold": threshold,
        "t": t,
        "N": N,
    }


def midpoint_det_check():
    """Jacobian determinant of the midpoint map at the reference pair.

    numeric: |det| of central finite differences, step 1e-5, of
    p -> midpoint(anchor, p) at p = (-1,0,0), anchor = (1,0,0).  analytic:
    the quotient of the half-time and full-time Jacobian determinants at the
    displacement (2,0,0), i.e. (1/2)^5 times a w = 0 factor ratio of 1,
    exactly 1/32.
    """
    step = 1e-5
    anchor = Event(1.0, 0.0, 0.0)
    base = np.array([-1.0, 0.0, 0.0])
    jac = np.empty((3, 3))
    for j in range(3):
        hp = base.copy()
        hm = base.copy()
        hp[j] += step
        hm[j] -= step
        fp = geodesics.midpoint_map(anchor, Event(*hp))
        fm = geodesics.midpoint_map(anchor, Event(*hm))
        jac[:, j] = (np.array(fp) - np.array(fm)) / (2.0 * step)
    numeric = abs(float(np.linalg.det(jac)))
    param = geodesics.log(Event(2.0, 0.0, 0.0))
    analytic = geodesics.exp_jacobian_det(param, 0.5) / geodesics.exp_jacobian_det(
        param, 1.0
    )
    return numeric, analytic


def juillet_contradiction() -> dict:
    """The Brunn-Minkowski contradiction at the reference configuration.

    Geodesic inversion preserves volume, the midpoint map contracts volume by
    1/32, and the infinitesimal Brunn-Minkowski bound would force
    2^3 * (1/32) = 1/4 >= 1: false.
    """
    numeric, analytic = midpoint_det_check()
    lhs = 2.0 ** 3 * analytic
    return {
        "midpoint_det": numeric,
        "midpoint_det_analytic": analytic,
        "juillet_bound": lhs,
        "bm_rhs": 1.0,
        "contradiction": lhs < 1.0,
        "statement": "2^3 * (1/32) = 1/4 < 1",
    }


def bm_inequality_eval(
    vol0: float,
    vol1: float,
    volt: float,
    K: float,
    N: float,
    t: float,
    Theta: float,
) -> BMReport:
    """Evaluate the Brunn-Minkowski inequality for given volumes.

    Finite N: volt^(1/N) >= tau^{(1-t)}(Theta) vol0^(1/N) +
    tau^{(t)}(Theta) vol1^(1/N).  N = math.inf (entropic form): volt >=
    vol0^(1-t) vol1^t exp(K t (1-t) Theta^2 / 2).
    """
    if min(vol0, vol1, volt) <= 0.0:
        raise ValueError("volumes must be positive")
    params = {"K": K, "N": N, "t": t, "Theta": Theta}
    if math.isinf(N):
        lhs = volt
        rhs = vol0 ** (1.0 - t) * vol1 ** t * math.exp(
            K * t * (1.0 - t) * Theta * Theta / 2.0
        )
    else:
        lhs = volt ** (1.0 / N)
        c0 = distortion_tau(DistortionArgs(K, N, 1.0 - t, Theta))
        c1 = distortion_tau(DistortionArgs(K, N, t, Theta))
        rhs = c0 * vol0 ** (1.0 / N) + c1 * vol1 ** (1.0 / N)
    satisfied = lhs >= rhs - 1e-12 * max(abs(lhs), abs(rhs), 1.0)
    return BMReport(lhs, rhs, satisfied, params)
