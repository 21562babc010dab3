"""Heisenberg group structure, causal predicates and discrete curve primitives.

Points of the group live in R^3 with the non-abelian product

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x y' - x' y)/2).

The x-axis plays the role of time: a horizontal vector u X + v Y is timelike
when -u^2 + v^2 < 0 and future-directed when u > 0.  Horizontal curves are
lifts of planar curves, the vertical coordinate tracking the signed area swept
relative to the chord through the origin of the curve.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

import numpy as np

# Absolute tolerance for floating comparisons on the null boundary
# -x^2 + y^2 + 4|z| = 0, where exact arithmetic would decide membership.
NULL_TOL = 1e-12


class NotCausalError(ValueError):
    """A discrete curve segment fails the causality condition dx >= |dy|."""


class NotChronologicalError(ValueError):
    """Operation requires a chronologically related pair.

    defect: -a^2 + b^2 + 4|c| of the displacement (a, b, c) that failed, which
    is >= -NULL_TOL off the open future cone; zt: its c/T^2, T^2 = a^2 - b^2,
    when a > |b| and T^2 > 0 in floats, which is outside (-1/4, 1/4) beyond
    the cone's sheets.  Within rounding of a sheet c/T^2 may round to +-1/4
    where the defect is below -NULL_TOL: that fails too.  The message
    carries both when given.  It is formatted only when read, since most
    callers catch the error unread; args is (msg, defect, zt), which
    pickling passes back to __init__.
    """

    def __init__(self, msg: str, defect=None, zt=None):
        super().__init__(msg, defect, zt)
        self.defect, self.zt = defect, zt

    def __str__(self) -> str:
        msg, defect, zt = self.args
        msg += "" if defect is None else f": defect -a^2 + b^2 + 4|c| = {defect!r}"
        return msg + ("" if zt is None else f", c/T^2 = {zt!r}")


class Event(NamedTuple):
    """A point (x, y, z) of the Heisenberg group; x is the time coordinate."""

    x: float
    y: float
    z: float


class CausalClass(NamedTuple):
    """Causal type of a horizontal vector.

    tag is one of "timelike", "null", "spacelike", "zero"; future_directed is
    meaningful only for timelike and null vectors.
    """

    tag: str
    future_directed: bool


class SampledCurve(NamedTuple):
    """Time-stamped polyline, planar ((n,2) points) or in the group ((n,3))."""

    times: np.ndarray
    points: np.ndarray


class Diamond(NamedTuple):
    """Ordered vertex pair (p, q) for the causal diamond J+(p) /\\ J-(q)."""

    p: Event
    q: Event


ORIGIN = Event(0.0, 0.0, 0.0)

PointLike = Union[Event, Sequence[float]]


def make_curve(times, points) -> SampledCurve:
    """Validated SampledCurve constructor: strictly increasing times, n >= 2."""
    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two samples")
    if points.shape[0] != times.size or points.shape[1] not in (2, 3):
        raise ValueError("points must be (n,2) or (n,3) matching times")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    return SampledCurve(times, points)


def require_finite(*points: PointLike) -> None:
    """Raise ValueError if a coordinate of any of the points is NaN or infinite."""
    for p in points:
        if not all(map(math.isfinite, p)):
            raise ValueError(f"non-finite coordinate in {tuple(p)}")


def group_mul(p: PointLike, q: PointLike) -> Event:
    """Group product p * q."""
    px, py, pz = p
    qx, qy, qz = q
    return Event(px + qx, py + qy, pz + qz + 0.5 * (px * qy - qx * py))


def group_inv(p: PointLike) -> Event:
    """Group inverse: componentwise negation."""
    return Event(-p[0], -p[1], -p[2])


def dilate(lam: float, p: PointLike) -> Event:
    """Anisotropic dilation (x, y, z) -> (lam x, lam y, lam^2 z), lam > 0."""
    if not lam > 0:
        raise ValueError("dilation factor must be positive")
    return Event(lam * p[0], lam * p[1], lam * lam * p[2])


def causal_class(w) -> CausalClass:
    """Classify a horizontal vector by the sign of -u^2 + v^2."""
    u, v = w
    if u == 0.0 and v == 0.0:
        return CausalClass("zero", False)
    g = -u * u + v * v
    if abs(g) <= NULL_TOL:
        tag = "null"
    elif g < 0.0:
        tag = "timelike"
    else:
        tag = "spacelike"
    future = tag in ("timelike", "null") and u > 0.0
    return CausalClass(tag, future)


def _causal_defect(r: PointLike) -> float:
    # -(x^2 - y^2) + 4|z| in stable difference-of-squares form: near the null
    # boundary x and y can agree to many digits.  Floats or arrays.
    x, y, z = r
    return -(x - y) * (x + y) + 4.0 * abs(z)


# The two predicates take events of floats, or events whose coordinates are
# arrays (Event(*pts.T) for an (n, 3) array), and then answer elementwise.


def in_causal_future(p: PointLike, q: PointLike) -> bool:
    """q reachable from p by a future-directed causal curve (q in J+(p))."""
    r = group_mul(group_inv(p), q)
    return (r.x >= -NULL_TOL) & (_causal_defect(r) <= NULL_TOL)


def in_chronological_future(p: PointLike, q: PointLike) -> bool:
    """q reachable from p by a future-directed timelike curve (q in I+(p))."""
    r = group_mul(group_inv(p), q)
    return (r.x > NULL_TOL) & (_causal_defect(r) < -NULL_TOL)


def signed_area(curve: SampledCurve) -> float:
    """Signed area enclosed by the polyline closed with the chord to its start.

    Shoelace sum including the closing segment: counterclockwise loops count
    positive.  Second-order accurate for sampled smooth curves.
    """
    pts = np.asarray(curve.points, dtype=float)
    x = pts[:, 0]
    y = pts[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    return 0.5 * float(np.sum(cross))


def lift(curve: SampledCurve, base: PointLike) -> SampledCurve:
    """Horizontal lift of a planar polyline starting at the projection of base.

    The z-component at each sample is base.z plus the running signed-area
    integral (1/2) int (x dy - y dx), evaluated exactly on each segment.
    """
    pts = np.asarray(curve.points, dtype=float)
    bx, by, bz = base
    if abs(pts[0, 0] - bx) > 1e-9 or abs(pts[0, 1] - by) > 1e-9:
        raise ValueError("curve must start at the planar projection of base")
    x = pts[:, 0]
    y = pts[:, 1]
    seg = x[:-1] * y[1:] - x[1:] * y[:-1]
    z = bz + 0.5 * np.concatenate(([0.0], np.cumsum(seg)))
    return SampledCurve(curve.times, np.column_stack([x, y, z]))


def lorentzian_length(curve: SampledCurve) -> float:
    """Lorentzian length sum sqrt(dx^2 - dy^2) of the planar projection.

    Every segment must be future-directed causal: dx >= |dy| (up to NULL_TOL).
    """
    pts = np.asarray(curve.points, dtype=float)
    dx = np.diff(pts[:, 0])
    dy = np.diff(pts[:, 1])
    if np.any(dx < np.abs(dy) - NULL_TOL):
        raise NotCausalError("segment with dx < |dy|")
    return float(np.sum(np.sqrt(np.maximum(dx * dx - dy * dy, 0.0))))
