"""Diamond volumes and Lorentzian Hausdorff measure experiments.

The Lebesgue volume of a causal diamond J(0, (a,b,c)) has the closed form

    vol = -((a^2-b^2)^2 / 8) (m M + m^2 ln m + M^2 ln M),
    m = (1 + 4c/(a^2-b^2))/2,  M = (1 - 4c/(a^2-b^2))/2,

with x^2 ln x -> 0 at the null boundary.  The maximal volume among diamonds of
unit time separation is conjecturally at the axis diamond, value
K = (2 ln 2 - 1)/32.  Hausdorff-type bounds cover CC balls by diamonds of
controlled time separation and sum omega_d * tau^d.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from heislor import sr_metric
from heislor.heisenberg_core import ORIGIN, group_inv, group_mul, in_chronological_future
from heislor.heisenberg_core import require_finite

# volume of the axis diamond of unit time separation; empirical maximum of
# the growth-ratio scan
UNIT_DIAMOND_VOLUME = (2.0 * math.log(2.0) - 1.0) / 32.0


def _omega(d: float) -> float:
    # weight of d-dimensional diamond covers: Lebesgue volume of the unit
    # diamond of d-dimensional Minkowski space, two cones of height 1/2 over
    # the (d-1)-ball of radius 1/2 (pi/24 at d = 4)
    k = d - 1
    ball = math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0) * (0.5) ** k
    return 2.0 * ball * 0.5 / d


class VolumeEstimate(NamedTuple):
    value: float
    stderr: float
    samples: int
    seed: int


def _entropy_term(m: float, M: float) -> float:
    # m M + m^2 ln m + M^2 ln M, stable when one factor is tiny: the naive
    # form loses all digits once min(m, M) ln min(m, M) underflows relative
    # to m M.
    s = min(m, M)
    if s <= 0.0:
        return 0.0
    if s < 1e-3:
        return s * s * (math.log(s) + 0.5 - s / 3.0 - s * s / 12.0 - s ** 3 / 30.0)
    return m * M + m * m * math.log(m) + M * M * math.log(M)


def diamond_volume_closed(p, q) -> float:
    """Lebesgue volume of the diamond J(p, q); 0 unless q is in I+(p)."""
    r = group_mul(group_inv(p), q)
    if not in_chronological_future(ORIGIN, r):
        return 0.0
    T2 = (r.x - r.y) * (r.x + r.y)
    ratio = 4.0 * r.z / T2
    m = 0.5 * (1.0 + ratio)
    M = 0.5 * (1.0 - ratio)
    return -(T2 * T2 / 8.0) * _entropy_term(m, M)


def diamond_volume_mc(p, q, n: int, seed: int) -> VolumeEstimate:
    """Monte Carlo volume of J(p, q): B k / n and its binomial stderr, for k
    hits of n draws of sr_metric.fibre_hits in the frame where the vertex is
    (T, 0, c), and B = sr_metric.envelope_volume(T^2, c) = 2 fibre_max A the
    volume they fill, A = (eps/2)(1 + ln(T^2/(2 eps))) the area of the
    strip 2 alpha (T/2 - beta) < eps = T^2/4 - |c| of the null coordinates
    that holds every nonempty fibre (alpha and beta swapped for c < 0).
    Only the hit mask is counted; no planar point is formed.
    Deterministic for fixed (seed, n): chunk i comes from the substream
    (seed, i), and the hits are summed in integers.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    r = group_mul(group_inv(p), q)
    # null and degenerate diamonds, T = 0 or |c| = T^2/4, have no volume
    if not in_chronological_future(ORIGIN, r):
        return VolumeEstimate(0.0, 0.0, n, seed)
    # the T^2 that the predicate tested, so that eps > 0
    T2 = (r.x - r.y) * (r.x + r.y)
    envelope = sr_metric.envelope_volume(T2, r.z)
    chunk = sr_metric.FIBRE_CHUNK
    hits = 0
    for i in range((n + chunk - 1) // chunk):
        hit = sr_metric.fibre_hits(T2, r.z, [seed, i], min(chunk, n - i * chunk))[3]
        hits += int(np.count_nonzero(hit))
    phat = hits / n
    value = envelope * phat
    stderr = envelope * math.sqrt(phat * (1.0 - phat) / n)
    return VolumeEstimate(value, stderr, n, seed)


def _unit_separation_volume(w: float) -> float:
    # volume of the diamond J(0, q(w)) along the family of unit time
    # separation: q(w) = (2 sinh(w/2)/w, 0, (sinh w - w)/(2 w^2)).
    # Evaluated from w directly: recovering M from the coordinates of q(w)
    # cancels catastrophically for large |w|.
    w = abs(w)
    if w == 0.0:
        return UNIT_DIAMOND_VOLUME
    if w < 250.0:
        a = 2.0 * math.sinh(0.5 * w) / w
        M = (math.expm1(-w) + w) / (4.0 * math.sinh(0.5 * w) ** 2)
        return -(a ** 4 / 8.0) * _entropy_term(1.0 - M, M)
    # asymptotic branch in log space: vol ~ a^4 M^2 (-ln M - 1/2) / 8
    ls = 0.5 * w + math.log1p(-math.exp(-w))  # ln(2 sinh(w/2))
    lnM = math.log(w - 1.0 + math.exp(-w)) - 2.0 * ls
    return math.exp(4.0 * ls - 4.0 * math.log(w) + 2.0 * lnM) * (-lnM - 0.5) / 8.0


def growth_ratio_scan(w_values) -> list:
    """Volumes of unit-time-separation diamonds along the axis family.

    Returns [(w, vol(J(0, q(w))))]; since tau(0, q(w)) = 1, each entry is the
    ratio vol / tau^4 whose maximum is the empirical growth constant.
    """
    return [(float(w), _unit_separation_volume(float(w))) for w in w_values]


# ---------------------------------------------------------------------------
# Hausdorff measure machinery.  All net constructions are performed for the
# unit ball B(0,1) in normalized coordinates and rescaled: B(center, radius) =
# center * dilate(radius, B(0,1)), so the bounds scale exactly by radius^d.


def _unit_ball_volume() -> float:
    # Lebesgue volume of the CC unit ball B(0,1) = {|z| <= f(r)}, r the planar
    # radius: the arc of length 1 turning by phi in (0, 2 pi) has chord
    # r = sin(phi/2) / (phi/2) and cuts off the area f = (phi - sin phi) /
    # (2 phi^2), the most any horizontal curve of length <= 1 encloses over
    # that chord.  vol = int_0^1 2 pi r 2 f(r) dr, by 40-node Gauss-Legendre
    # in phi; 20 to 800 nodes agree to 3e-14.
    xg, wg = np.polynomial.legendre.leggauss(40)
    phi = math.pi * (xg + 1.0)
    h = 0.5 * phi
    r = np.sin(h) / h
    f = (phi - np.sin(phi)) / (2.0 * phi * phi)
    drdphi = 0.5 * (h * np.cos(h) - np.sin(h)) / (h * h)
    return float(math.pi * np.sum(wg * 4.0 * math.pi * r * f * np.abs(drdphi)))


# A point at CC distance l from 0 ends a horizontal curve of length l.  Its
# planar projection runs from (0, 0) to (x, y), so x^2 + y^2 <= l^2, and z is
# the signed area the projection encloses with the chord back to (0, 0).
# Reflect the projection across the chord's line and run it backwards: the
# closed curve of length 2 l so formed encloses 2 z, and the isoperimetric
# inequality 4 pi |area| <= length^2 gives |z| <= l^2 / (2 pi), Dido's
# semicircle.  So B(0, rho) lies in {x^2 + y^2 <= rho^2, |z| <= rho^2 / (2 pi)}.
#
# Closer in, the arc to a point of chord c > 0 and m = |z| / c^2 turns by 2h,
# h in (0, pi), with m = (2h - sin 2h) / (8 sin^2 h), and is l = c h / sin h
# long (see sr_metric).  m and H = (l / c)^2 - 1 both increase with h, and
#
#     12 m^2 / sqrt(1 + 6 m^2) <= H <= 12 m^2 / sqrt(1 + 0.9 m^2).
#
# At both ends the margins are strict: as m -> 0, H = 12 m^2 - 28.8 m^4 +
# O(m^6), against 12 m^2 - 36 m^4 below and 12 m^2 - 5.4 m^4 above; as
# m -> oo, H ~ 4 pi m, against 4.90 m and 12.65 m.  tests/test_measure.py
# proves both bounds for every h in (0, pi) in interval arithmetic (below
# h = 1.5 through the series of the terms, whose leading parts cancel), and
# samples them at 50 digits to within 1e-10 of either end.  As c^2 H lies
# between 12 z^2 / sqrt(c^4 + k z^2) for k = 6 and k = 0.9, with
# C = c^2 / rho^2, A = |z| / rho^2 and s = _BALL_SLACK,
#
#     12 A^2 <= (1 - s - C) sqrt(C^2 + 0.9 A^2)  gives  l^2 <= rho^2 (1 - s),
#     12 A^2 >  (1 + s - C) sqrt(C^2 + 6 A^2)    gives  l^2 >  rho^2 (1 + s),
#
# and so does 2 pi A > 1 + s; at c = 0 (the full circle, l^2 = 4 pi |z|)
# they hold in the limit.  The slack s is far above the exact distance's
# relative error (below 1e-14) and the rounding of the tests, so each point
# that they decide is decided as the exact distance decides it.
_BALL_SLACK = 1e-9


def _ball_test(c, a):
    """(inside, unsure): the rows of squared chord c and |z| a, both in units
    of rho^2, that the bounds above put within rho of 0, and those they leave
    undecided; the others are farther than rho."""
    a2 = a * a
    inside = 12.0 * a2 <= (1.0 - _BALL_SLACK - c) * np.sqrt(c * c + 0.9 * a2)
    unsure = 12.0 * a2 <= (1.0 + _BALL_SLACK - c) * np.sqrt(c * c + 6.0 * a2)
    unsure &= (2.0 * math.pi) * a <= 1.0 + _BALL_SLACK
    return inside, unsure & ~inside


def _half_ball_points(seed: int, n: int):
    # uniform sample of B(0, 1/2), the set to be covered before dilating by 2:
    # box draws decided by _ball_test, and by the exact distance where it
    # leaves them undecided.  The kept rows, and their order, are those of
    # the exact distance on every draw.
    out = [np.empty((0, 3))]
    chunk = max(2 * n, 65536)
    lo, hi = (-0.5, -0.5, -0.25), (0.5, 0.5, 0.25)
    while sum(map(len, out)) < n:
        pts = sr_metric.uniform_box([seed, len(out) - 1], lo, hi, chunk)
        x, y, z = pts.T
        inside, unsure = _ball_test(4.0 * (x * x + y * y), 4.0 * np.abs(z))
        unsure = np.flatnonzero(unsure)
        inside[unsure] = sr_metric._distance_from_origin(pts[unsure]) <= 0.5
        out.append(pts[inside])
    return np.concatenate(out)[:n]


# candidates taken per block by the greedy net; sets its peak memory
_NET_BLOCK = 512


def _net_conflicts(x, y, z, ci, ki, delta: float) -> np.ndarray:
    # the net's pair test for candidates ci against earlier points ki (index
    # arrays into the coordinate columns), returning the positions of the
    # pairs within delta, less those that cannot change the net (below):
    # chord <= delta, then the CC distance of the group displacement k^-1 c
    # <= delta, as for the left-invariant sr_distance(k, c).  _ball_test
    # decides most near pairs, in units of delta^2, so that its squares do
    # not underflow at small delta; the others take the exact
    # _distance_from_origin.  So each pair is decided as the exact distance
    # decides it, and the net is the point-by-point greedy net under it.
    dx = x[ci] - x[ki]
    dy = y[ci] - y[ki]
    c2 = dx * dx + dy * dy
    near = np.flatnonzero(c2 <= delta * delta)
    c, k = ci[near], ki[near]
    # z-component of the group displacement from each near point
    zrel = z[c] - z[k] + 0.5 * (x[c] * y[k] - x[k] * y[c])
    clash, unsure = _ball_test(c2[near] / (delta * delta), np.abs(zrel) / (delta * delta))
    if np.any(unsure):
        # A point that owns no pair here that may clash has no earlier point
        # within delta in this call, so the greedy keeps it (a kept point
        # owns none), and drops each owner with a sure clash against it
        # whatever its other pairs give: those pairs are not solved, and not
        # returned.
        maybe = np.zeros(len(x), dtype=bool)
        maybe[c[clash | unsure]] = True
        settled = np.zeros(len(x), dtype=bool)
        settled[c[clash & ~maybe[k]]] = True
        unsure = np.flatnonzero(unsure & ~settled[c])
        rel = np.column_stack([dx[near[unsure]], dy[near[unsure]], zrel[unsure]])
        clash[unsure] = sr_metric._distance_from_origin(rel) <= delta
    return near[clash]


# The net's index.  Let K = (X, Y, 0) be the centre of a planar cell and
# zeta^K(p) = z + (x Y - X y)/2 the z of K^-1 p, the area coordinate of p in
# the frame of K; a point k is filed in its own cell K under zeta_k =
# zeta^K(k).  The kept points are filed so, and so are a block's survivors,
# which are searched against each other through the same windows.  For a
# candidate c, d = c - k in the plane and u = k - K,
#
#     zrel = z_c - z_k + (x_c y_k - x_k y_c)/2 = zeta^K(c) - zeta_k + (d x u)/2,
#
# where zrel is the z of the displacement k^-1 c that _net_conflicts forms
# and d x u = d_x u_y - d_y u_x.  _net_conflicts can find a pair within
# delta only if |d| <= delta (its chord test) and 2 pi |zrel| <= delta^2
# (1 + s), s = _BALL_SLACK (Dido's semicircle in _ball_test), and |u| <= w /
# sqrt(2) for cells of width w, so then
#
#     |zeta^K(c) - zeta_k| <= delta^2 (1 + s) / (2 pi) + delta w / (2 sqrt(2)).
#
# The window searched in each neighbour cell is this bound widened by the
# relative slack _NET_SLACK, for the rounding of the chord and area tests and
# of the cell index, which can put k a hair outside its cell, plus 1e-12 of
# the largest |z| + r^2 (r the largest planar coordinate or cell centre),
# which bounds each term of zeta and zrel, for their rounding.  So every pair
# that can be within delta lies in the window, and the net is the one a test
# of all pairs gives.  (A pair whose exact distance is within delta has
# 2 pi |zrel| <= delta^2 (1 + 1e-13), far inside the area bound, so the slack
# never decides the net itself.)
_NET_SLACK = 1e-9


def _net_keys(x, y, z, delta: float):
    """(key, toward, start, end): each point's key, in the order (cell,
    zeta), and the window of a candidate in each of its nine neighbour
    cells, from toward @ [key, x, y] + start to toward @ [key, x, y] + end,
    one cell a row."""
    x0 = float(np.min(x))
    y0 = float(np.min(y))
    span = max(float(np.max(x)) - x0, float(np.max(y)) - y0)
    # cells a hair wider than delta, and at most 1e6 a side, so that the
    # rounding of the cell index cannot put a chord-near pair two cells apart
    width = max(delta * (1.0 + 1e-9), span * 1e-6)
    ix = ((x - x0) / width).astype(np.int64) + 1
    iy = ((y - y0) / width).astype(np.int64) + 1
    ny = int(np.max(iy)) + 2
    # zeta in the own cell, less the least one
    key = z + 0.5 * (x * (y0 + (iy - 0.5) * width) - (x0 + (ix - 0.5) * width) * y)
    key -= np.min(key)
    zspan = float(np.max(key))
    r = max(-x0, float(np.max(x)), -y0, float(np.max(y))) + width
    win = delta * delta * (1.0 + _BALL_SLACK) / (2.0 * math.pi) + delta * width / math.sqrt(8.0)
    win *= 1.0 + _NET_SLACK
    win += 1e-12 * (float(np.max(np.abs(z))) + r * r)
    # The key is cell S + zeta.  A candidate's zeta in the neighbour cell
    # (a w, b w) from its own is its own zeta plus w (b x - a y) / 2, within
    # w r of it.  S exceeds twice the zeta range, that shift and the window,
    # so each window holds the keys of one cell only, and the keys' rounding,
    # below 1e-15 of the largest, widens the window.
    S = 2.0 * (zspan + width * r + win)
    cell = ix * ny + iy
    key += cell * S
    win += 4e-15 * (float(np.max(cell)) + ny + 2) * S
    steps = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    toward = np.array([[1.0, 0.5 * width * b, -0.5 * width * a] for a, b in steps])
    offset = np.array([(a * ny + b) * S for a, b in steps])[:, None]
    return key, toward, offset - win, offset + win


def _net_indices(pts: np.ndarray, delta: float) -> np.ndarray:
    # indices of the points _greedy_net keeps, ascending
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    x, y, z = (np.ascontiguousarray(pts[:, i], dtype=float) for i in range(3))
    key, toward, start, end = _net_keys(x, y, z, delta)

    def clashes(cand, ids, keys):
        # the (owner, partner) pairs that _net_conflicts finds between the
        # candidates cand, in key order, and the points ids, filed under
        # their ascending keys, whose partner comes earlier in sample order:
        # the nine windows of each candidate, searched in key order so that
        # each run of searches goes up the keys
        q = toward @ np.stack([key[cand], x[cand], y[cand]])
        lo = np.searchsorted(keys, (q + start).ravel(), side="left")
        cnt = np.searchsorted(keys, (q + end).ravel(), side="right") - lo
        owner = np.repeat(np.tile(cand, len(toward)), cnt)
        partner = ids[np.arange(len(owner)) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)]
        earlier = partner < owner
        owner = owner[earlier]
        partner = partner[earlier]
        clash = _net_conflicts(x, y, z, owner, partner, delta)
        return owner[clash], partner[clash]

    # the kept points in key order, their keys, and the points dropped
    ids = np.empty(0, dtype=np.intp)
    keys = np.empty(0)
    dropped = np.zeros(n, dtype=bool)
    for b0 in range(0, n, _NET_BLOCK):
        cand = np.arange(b0, min(n, b0 + _NET_BLOCK))
        cand = cand[np.argsort(key[cand])]
        # the block against the points kept before it, then the survivors
        # against each other, greedy in sample order
        dropped[clashes(cand, ids, keys)[0]] = True
        cand = cand[~dropped[cand]]
        owner, partner = clashes(cand, cand, key[cand])
        order = np.argsort(owner)
        for i, j in zip(owner[order].tolist(), partner[order].tolist()):
            if not dropped[j]:
                dropped[i] = True
        new = cand[~dropped[cand]]
        at = np.searchsorted(keys, key[new])
        keys = np.insert(keys, at, key[new])
        ids = np.insert(ids, at, new)
    return np.sort(ids)


def _greedy_net(pts: np.ndarray, delta: float) -> int:
    """Size of a maximal delta-separated subset, greedy in sample order.

    A point is kept unless an earlier kept point lies within delta of it: the
    chord to it is at most delta, and the exact CC distance of the group
    displacement to it is at most delta.  Candidates are taken in blocks of
    _NET_BLOCK.  Pairs are found through a planar grid of cells slightly
    wider than delta: the chord is a lower bound for the CC distance, so a
    conflicting earlier point lies in the candidate's cell or one of its
    eight neighbours, and the extra width absorbs the rounding of the cell
    index at the cell edges.  Within a cell the points are filed by zeta, the
    z of the point in the frame of the cell's centre, and only those whose
    zeta is within delta^2 (1 + 1e-9) / (2 pi) + delta w / (2 sqrt 2) of the
    candidate's (w the cell width), plus rounding slack, are tested: the
    others enclose too much area with the candidate to be within delta (Dido's
    semicircle).  A block is searched so, vectorized, against the points kept
    before it, and its survivors are filed and searched so against each
    other; a sequential greedy over those conflicting pairs, in sample order,
    settles which survivors are kept.  _net_conflicts decides most pairs by
    the two-sided Dido bounds of _ball_test and solves the exact distance for
    the rest.  The pairs the grid and the window skip fail the test anyway,
    and the bounds decide each pair as the exact distance does, so the net
    is the one a point-by-point greedy under the exact distance gives.
    """
    return len(_net_indices(pts, delta))


def _cover_sum(d: float, k: int, delta: float) -> float:
    # sum of omega_d tau^d over a net of k points of B(0, 1/2) at scale
    # delta: each net ball inside a diamond of time separation 2 D delta
    # (D = 1/rho), the cover dilated by 2 to swallow B(0, 1)
    D = 1.0 / sr_metric.unit_diamond_inner_radius()
    return (2.0 ** d) * k * _omega(d) * (2.0 * D * delta) ** d


def hausdorff_bounds(center, radius, delta, seed, n_samples: int = 100000):
    """Lower and upper bounds for the 4-d Lorentzian Hausdorff pre-measure
    of the CC ball B(center, radius) at cover scale delta.

    Lower: L^3(B)/K from the volume growth bound (any diamond cover satisfies
    sum tau^4 >= L^3(B)/K), 68.41 for B(0, 1).  It bounds sum tau^4 with no
    weight, and rests on K, which is measured, not proved.  The cover sums
    carry omega_4 = pi/24, so the bound comparable with them is omega_4 times
    lower, 8.955 for B(0, 1).  Upper: greedy maximal delta-separated net of
    a sample of B(center, radius/2), each net ball blown up to a diamond of
    time separation 2 D delta (D = 1/rho), summed with weight omega_4 and
    dilated by 2 to swallow the full ball: the d = 4 cover sum of
    dimension_probe.  It is sampled, not a proved bound: the net of a sample
    need not cover the ball.
    """
    probe = dimension_probe(center, radius, [4], seed, n_samples, [delta])
    return probe["lower"], probe["dims"][4.0]["sums"][0]


def dimension_probe(center, radius, d_values, seed=0, n_samples: int = 100000, deltas=None) -> dict:
    """Trend of the cover sums sum omega_d tau^d as delta shrinks.

    The sums diverge for d < 4, vanish for d > 4 and stabilize at d = 4;
    the report lists the nets' sizes, hausdorff_bounds' lower bound, and
    (delta, sum) per trial dimension with a trend tag.  The lower bound is on
    sum tau^4, with no weight: compare omega_4 * lower (8.955 for B(0, 1))
    with the d = 4 sums.  The sums are over nets of a sample, not proved
    bounds.  One half-ball sample
    is drawn, and one net is built per delta, each with 0 < delta < radius/2.
    The bound and every sum must be finite positive floats.
    """
    require_finite(center)
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    if int(n_samples) < 1:
        raise ValueError("need n_samples >= 1")
    if deltas is None:
        deltas = [radius * f for f in (0.4, 0.2, 0.1, 0.05)]
    if not all(0.0 < d < radius / 2.0 for d in deltas):
        raise ValueError("need 0 < delta < radius/2")
    # radius^4, the factor of lower that the input sets, is checked before the
    # sample is drawn.  The quadrature in lower waits for the nets: its first
    # LAPACK call allocates BLAS buffers, about 1.2 MB, which would add to
    # the nets' memory peak.
    try:
        scale = radius ** 4
    except OverflowError:  # a float power raises where a product gives inf
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError("the bounds at this radius and delta are not finite positive floats")
    pts = _half_ball_points(int(seed), int(n_samples))
    sizes = [_greedy_net(pts, round(d / radius, 12)) for d in deltas]
    try:
        lower = scale * _unit_ball_volume() / UNIT_DIAMOND_VOLUME
        covers = [[_cover_sum(d, k, delta) for k, delta in zip(sizes, deltas)] for d in d_values]
    except OverflowError:  # a float power raises where a product gives inf
        lower = covers = math.inf
    if not all(0.0 < v < math.inf for v in np.append(lower, covers)):
        raise ValueError("the bounds at this radius and delta are not finite positive floats")
    report = {
        "deltas": list(map(float, deltas)),
        "net_sizes": sizes,
        "lower": lower,
        "dims": {},
    }
    for d, sums in zip(d_values, covers):
        ratios = [s2 / s1 for s1, s2 in zip(sums, sums[1:])]
        # monotone growth reads as divergence; bounded per-halving ratios as
        # stability; anything dropping faster than a halving as vanishing
        if all(r > 1.0 for r in ratios):
            trend = "diverging"
        elif all(0.5 <= r <= 2.0 for r in ratios):
            trend = "stable"
        elif all(r < 1.0 for r in ratios):
            trend = "vanishing"
        else:
            trend = "mixed"
        report["dims"][float(d)] = {"sums": sums, "ratios": ratios, "trend": trend}
    return report
