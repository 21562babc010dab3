"""Verdicts on heislor's outputs, from the references in oracles.py.

Each check returns "pass", "fail" or "wrong".  "fail" is an operation that
failed: it raised where it should answer, or it is one of the fault
operations and still gives the faulty answer.  "wrong" is an answer that
disagrees with the reference; any "wrong" makes the run incorrect.  Outputs
are read by attribute name or position only, so nothing here imports
heislor.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as o

# Tolerances beyond the conditioning of the inverse exponential map
# (oracles.log_tolerance):
POINT_REL = 1e-12  # series branch of exp_point near |w t| = 1e-4
SR_DISTANCE_REL = 1e-10  # arc-angle bisection, turning angles up to 5.5
MIDPOINT_DET_REL = 1e-6  # central differences with step 1e-5
JACOBIAN_REL = 1e-9
# the Dido vertex bisection stops once the area is within 1e-12 T^2, which
# moves the vertex ordinate by a share of about 1e-12 T^2 / |c|
VERTEX_AREA_TOL = 1e-12
CONE_REL = 1e-12
BINOMIAL_SIGMAS = 6.0
UNIT_BALL_DRAWS = 400000  # Monte Carlo draws behind hausdorff's lower bound


def _verdict(ok: bool) -> str:
    return "pass" if ok else "wrong"


def geodesic_op(op: dict, raised: bool, out) -> str:
    """Verdict on one geodesic-queries operation."""
    kind = op["kind"]
    if kind == "fault_nonfinite":
        # correct behaviour is to reject the input with a ValueError
        return "pass" if raised and isinstance(out, ValueError) else "fail"
    if raised:
        return "fail"
    if kind == "fault_dilation":
        scaled, base = out
        return "pass" if base > 0.0 and o.close(scaled, base, 1e-10) else "fail"
    if kind in ("tmcp", "midpoint_det"):
        return _verdict(_curvature_ok(op, out))
    u, v, w = op["param"]
    tol = o.log_tolerance(w)
    if kind == "tau":
        return _verdict(o.close(out, o.geodesic_length(u, v), tol))
    if kind == "log_exp":
        return _verdict(o.points_close(out, (u, v, w), max(POINT_REL, tol)))
    if kind == "geodesic":
        # The parameters are checked by where they lead: p * exp(param) must
        # be q.  Comparing them with (u, v, w) instead would charge heislor
        # for the rounding in forming p^-1 q, which the inverse map can
        # amplify by 12 / (u^2 - v^2) in w: on seed 502, |p| = 1.5 and
        # u^2 - v^2 = 0.022 moved w by 6.7e-14 while exp(param) met p^-1 q
        # to 1e-20.
        return _verdict(
            hasattr(out, "param")
            and o.points_close(out.base, op["p"], POINT_REL)
            and o.points_close(o.mul(op["p"], o.exp_point(*out.param)), op["q"], POINT_REL)
            and out.t_max == 1.0
        )
    if kind == "geodesic_null":
        return _verdict(_null_curve_ok(op, out))
    if kind in ("midpoint", "inversion"):
        base = op["p"] if kind == "midpoint" else op["center"]
        t = 0.5 if kind == "midpoint" else -op["t"]
        want = o.mul(base, o.exp_point(u, v, w, t))
        return _verdict(o.points_close(out, want, max(POINT_REL, tol)))
    if kind == "cut_additivity":
        return _verdict(out is True)
    if kind == "iso_solve":
        return _verdict(_dido_ok(op, out, tol))
    if kind == "sr_distance":
        return _verdict(o.close(out, op["length"], SR_DISTANCE_REL))
    raise ValueError(f"unknown operation kind {kind!r}")


def _null_curve_ok(op: dict, curve) -> bool:
    # a horizontal broken null line from p to q: the ends match, every planar
    # step is causal with zero Lorentzian length, and every step lifts
    # horizontally (dz = (x dy - y dx) / 2 on straight segments)
    pts = np.asarray(curve.points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 2:
        return False
    scale = max(1.0, float(np.max(np.abs(pts))))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    dx, dy, dz = np.diff(x), np.diff(y), np.diff(z)
    lift = 0.5 * (x[:-1] * y[1:] - x[1:] * y[:-1])
    return bool(
        o.points_close(pts[0], op["p"], POINT_REL)
        and o.points_close(pts[-1], op["q"], 1e-10)
        and np.all(dx >= np.abs(dy) - 1e-12 * scale)
        and np.sum(np.sqrt(np.maximum(dx * dx - dy * dy, 0.0))) <= 1e-6 * scale
        and np.max(np.abs(dz - lift)) <= 1e-12 * scale * scale
    )


def _dido_ok(op: dict, sol, tol: float) -> bool:
    # planar Dido problem with endpoint/area of the geodesic exp(u, v, w):
    # the maximizer is the hyperbola arc with vertex ordinate
    # sgn(c) (T/2) coth(|w|/2), and its length is the geodesic's length
    a, b, c = op["q"]
    u, v, w = op["param"]
    T = math.sqrt((a - b) * (a + b))
    L = o.geodesic_length(u, v)
    area_share = VERTEX_AREA_TOL * T * T / abs(c)
    # the length moves with the area at the rate of the arc's curvature
    # |w| / L (the Lagrange multiplier of the Dido problem), so the stop
    # rule allows a length error of |w| 1e-12 T^2 / L^2 as a share of L
    length_share = abs(w) * VERTEX_AREA_TOL * T * T / (L * L)
    y_c = math.copysign(0.5 * T / math.tanh(0.5 * abs(w)), c)
    return bool(
        sol.case == "hyperbola"
        and o.close(sol.T, T, 1e-14)
        and o.close(sol.y_c, y_c, 1e-9 + 4.0 * area_share)
        and o.close(sol.max_length, L, tol + length_share)
    )


def _curvature_ok(op: dict, out) -> bool:
    if op["kind"] == "midpoint_det":
        numeric, analytic = out
        return o.close(analytic, 1.0 / 32.0, 1e-12) and o.close(
            numeric, 1.0 / 32.0, MIDPOINT_DET_REL
        )
    # the witness is the first w in -1, -2, ... whose Jacobian ratio falls
    # below t^N, and the reported ratio is the ratio there
    t, N = op["t"], op["N"]
    threshold = t ** N
    if not out.get("found"):
        return False
    w = out["witness_w"]
    first = w == -1.0 or o.jacobian_ratio(t, w + 1.0) >= threshold
    return bool(
        o.close(out["threshold"], threshold, 1e-15)
        and out["ratio"] < threshold
        and o.close(out["ratio"], o.jacobian_ratio(t, w), JACOBIAN_REL)
        and first
    )


# --- mc-diamonds ------------------------------------------------------------


def diamond_points(d: dict, rel, pts: np.ndarray) -> bool:
    """Points from sample_diamond(rel, n, seed): the right count, all inside
    J(0, rel) and its boxes, and uniform as far as a binomial test on the
    sub-diamond J(0, m), m the geodesic midpoint, can tell."""
    n = d["check_points"]
    if pts.shape != (n, 3):
        return False
    a, b, c = rel
    inside = o.in_diamond(pts, rel, CONE_REL, floor=a * a + b * b + 4.0 * abs(c))
    box = (
        np.all(np.abs(pts[:, :2]) <= a * (1.0 + 1e-12))
        and np.all(np.abs(pts[:, 2]) <= a * a * (1.0 + 1e-12))
    )
    u, v, w = d["param"]
    m = o.exp_point(u, v, w, 0.5)
    share = o.diamond_volume(m) / o.diamond_volume(rel)
    k = int(np.count_nonzero(o.in_diamond(pts, m, CONE_REL)))
    return bool(np.all(inside) and box and o.binomial_ok(k, n, share, BINOMIAL_SIGMAS))


def box_report(d: dict, rel, report: dict) -> bool:
    """diamond_in_box_check's report: every point passed both boxes."""
    return bool(
        report["inclusion_pass"] is True
        and report["samples"] == d["points"]
        and not report["violations"]
        and report["box_radius_vertex"] == rel[0]
        and report["box_radius_distance"] >= rel[0]
    )


def volume_estimate(d: dict, rel, est) -> bool:
    """diamond_volume_mc against the closed-form volume.

    The estimate must be B k / n for a whole number k of accepted draws and
    a box volume B, with stderr the binomial B sqrt(p (1 - p) / n); that
    pins down B and k from (value, stderr), so the stderr that the
    time-to-accuracy metric relies on is checked too.
    """
    n = d["draws"]
    value, stderr = est.value, est.stderr
    if est.samples != n or est.seed != d["seed"] or not (value > 0.0 and stderr > 0.0):
        return False
    box = value + n * stderr * stderr / value
    k = value * n / box
    exact = o.diamond_volume(rel)
    return bool(
        abs(k - round(k)) <= 1e-6 * max(k, 1.0)
        and box >= exact
        and abs(value - exact) <= BINOMIAL_SIGMAS * stderr
    )


# --- hausdorff-probe ---------------------------------------------------------

HAUSDORFF_HEADER = ["delta", "lower", "upper", "sum_d3", "sum_d4", "sum_d5"]


def hausdorff_table(text: str, radius: float, delta: float, trends: bool) -> bool:
    """The cover-sum CSV of `heislor hausdorff`.

    - deltas halve from delta;
    - the lower bound is radius^4 L^3(B(0,1)) / K with the Monte Carlo
      volume within 6 sigma of the quadrature value;
    - upper >= lower, and sum_d4 is the upper bound;
    - one diamond scale D serves every row: (sum_d4 / sum_d3) / delta and
      (sum_d5 / sum_d4) / delta are the same in each row;
    - the net grows as delta shrinks;
    - with `trends`, the cover sums diverge for d = 3, vanish for d = 5 and
      change by at most a factor 2 per halving for d = 4.
    """
    lines = text.strip().splitlines()
    if not lines or lines[0].split(",") != HAUSDORFF_HEADER or len(lines) != 4:
        return False
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    if not np.all(np.isfinite(rows)):
        return False
    dl, lower, upper, s3, s4, s5 = rows.T
    want_d = delta * np.array([1.0, 0.5, 0.25])
    vol_quad = o.cc_unit_ball_volume()
    p = vol_quad / 8.0
    sd = 8.0 * math.sqrt(p * (1.0 - p) / UNIT_BALL_DRAWS)
    vol_mc = lower * o.UNIT_DIAMOND_VOLUME / radius ** 4
    d34 = s4 / s3 / dl
    d45 = s5 / s4 / dl
    growth = upper[1:] / upper[:-1] * 16.0  # k(delta/2) / k(delta)
    ok = (
        np.allclose(dl, want_d, rtol=1e-15, atol=0.0)
        and np.all(np.abs(vol_mc - vol_quad) <= BINOMIAL_SIGMAS * sd)
        and np.all(upper >= lower)
        and np.allclose(s4, upper, rtol=1e-12, atol=0.0)
        and np.allclose(d34, d34[0], rtol=1e-12, atol=0.0)
        and np.allclose(d45, d45[0], rtol=1e-12, atol=0.0)
        and np.all(growth >= 1.0)
    )
    if ok and trends:
        r4 = s4[1:] / s4[:-1]
        ok = bool(
            np.all(np.diff(s3) > 0.0)
            and np.all(np.diff(s5) < 0.0)
            and np.all((r4 >= 0.5) & (r4 <= 2.0))
        )
    return bool(ok)
