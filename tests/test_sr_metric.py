"""Carnot-Caratheodory distance, boxes, diamond sampling and inclusions."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heislor import sr_metric
from heislor.heisenberg_core import ORIGIN, Event, dilate, group_mul, in_causal_future
from heislor.minkowski_iso import _dido_ratio, _odd_tail, _solve_bending, boost_to_axis
from heislor.sr_metric import (
    BoxSpec,
    _arc_angle,
    _boundary_sheet_distance,
    _distance_from_origin,
    _inner_radius_minimizer,
    _near_circle_factor,
    _solve_arc_angle,
    ball_in_diamond,
    box_contains,
    diamond_fibre,
    diamond_in_box_check,
    fibre_max,
    sample_diamond,
    sr_distance,
    unit_diamond_inner_radius,
)

coord = st.floats(-5.0, 5.0)
point = st.tuples(coord, coord, coord).map(lambda t: Event(*t))


def _in_diamond(pts, p, q):
    # rows of pts in J(p, q), by the cone predicate on columns
    P = Event(*pts.T)
    return in_causal_future(p, P) & in_causal_future(P, q)


def test_distance_planar_straight_line():
    assert abs(sr_distance(ORIGIN, Event(3.0, 4.0, 0.0)) - 5.0) < 1e-12


def test_distance_pure_vertical():
    # chord 0: the optimal lift is a full circle of area |z|, d = 2 sqrt(pi |z|)
    for z in (0.25, 1.0, 7.0):
        assert abs(sr_distance(ORIGIN, Event(0.0, 0.0, z)) - 2.0 * math.sqrt(math.pi * z)) < 1e-12


def test_distance_near_full_circle():
    # chord << sqrt(|z|): the arc almost closes and eps = 2 pi - phi is tiny;
    # compare with the root of the same equation in eps at 50 digits
    with mp.workdps(50):
        for ch in (1e-4, 1e-8, 1e-12, 3e-14):
            m = 1 / mp.mpf(ch) ** 2
            ratio = lambda e: (2 * mp.pi - e + mp.sin(e)) / (8 * mp.sin(e / 2) ** 2) - m
            e = mp.findroot(ratio, mp.sqrt(mp.pi / m))
            exact = float(mp.mpf(ch) * (mp.pi - e / 2) / mp.sin(e / 2))
            d = sr_distance(ORIGIN, Event(ch, 0.0, 1.0))
            assert abs(d - exact) <= 1e-15 * exact


def test_distance_near_circle_matches_mpmath():
    # m = |z| / chord^2 over logspace(2, 7), against 40-digit distances.
    # Above m = 1e2 the fixed point on eps = 2 pi - phi keeps the digits that
    # (phi/2) / sin(phi/2) would take from the last ulp of phi; m = 1e2
    # itself is still solved for phi, where one ulp of phi costs about 35
    # ulps of the distance
    m = np.logspace(2.0, 7.0, 501)
    pts = np.column_stack([np.ones_like(m), np.zeros_like(m), m])
    with mp.workdps(40):
        exact = []
        for mi in m:
            M = mp.mpf(float(mi))
            e = mp.findroot(lambda e: (2 * mp.pi - e + mp.sin(e)) / (8 * mp.sin(e / 2) ** 2) - M, mp.sqrt(mp.pi / M))
            exact.append(float((mp.pi - e / 2) / mp.sin(e / 2)))
    exact = np.array(exact)
    bound = np.where(m < 1e3, 2e-15, 4e-16)
    scalar = np.array([sr_distance(ORIGIN, Event(*p)) for p in pts])
    for d in (_distance_from_origin(pts), scalar):
        assert np.all(np.abs(d - exact) <= bound * exact)


def test_sr_distance_matches_vectorized(monkeypatch):
    # the float path of sr_distance against _distance_from_origin on 20,000
    # seeded points over scales 1e-8 ... 1e8, with |z| / chord^2 spread over
    # 1e-12 ... 1e12, and on z = 0, chord = 0, the series root (m < 1e-9) and
    # both sides of the near-circle switch at m = 1e2
    rng = np.random.default_rng(7)
    n = 20000
    scale = 10.0 ** rng.uniform(-8.0, 8.0, n)
    xy = rng.normal(size=(n, 2)) * scale[:, None]
    z = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 12.0, n) * np.sum(xy * xy, axis=1)
    edge = [[3.0, 4.0, 0.0], [0.0, 0.0, 2.0], [1e-15, 0.0, 1.0], [1.0, 0.0, 1e-10], [2.0, 1.0, 5e-12]]
    edge += [[1.0, 0.0, mi] for mi in np.nextafter(1e2, [0.0, 1e2, 1e3])]
    pts = np.vstack([np.column_stack([xy, z]), edge])
    want = _distance_from_origin(pts)

    def no_array_path(*args):
        raise AssertionError("sr_distance went through the array path")

    monkeypatch.setattr(sr_metric, "_distance_from_origin", no_array_path)
    monkeypatch.setattr(sr_metric, "_solve_arc_angle", no_array_path)
    got = np.array([sr_distance(ORIGIN, Event(*p)) for p in pts])
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))


def test_float_solves_return_python_floats():
    # the scalar drivers stay off numpy: a numpy scalar or 0-d array would
    # make every later float operation on them slower
    for zt in (0.0, 3e-12, -0.07, 0.2, -0.2499):  # series root, Newton + tightening
        assert type(_solve_bending(zt)) is float
    for m in (0.0, 3e-12, 0.4, 50.0):  # series root, Newton
        assert type(_arc_angle(m)) is float
    for m in (1e2 * (1.0 + 1e-15), 1e5, 1e30):  # near-circle
        assert type(_near_circle_factor(m)) is float
    for q in (Event(3.0, 4.0, 0.0), Event(0.0, 0.0, 1.0), Event(1.0, 0.0, 1e-12), Event(1.0, 0.5, 0.3),
              Event(1.0, 0.0, 1e4)):
        assert type(sr_distance(ORIGIN, q)) is float


def test_distance_half_circle_point():
    # half circle of radius r: endpoint (0, 2r) offset, area pi r^2 / 2;
    # endpoint in group coordinates: chord 2r, z = half-disc area
    r = 1.0
    d = sr_distance(ORIGIN, Event(0.0, 2.0 * r, math.pi * r * r / 2.0))
    assert abs(d - math.pi * r) < 1e-10


@settings(max_examples=80, deadline=None)
@given(point, point)
def test_distance_symmetry(p, q):
    assert abs(sr_distance(p, q) - sr_distance(q, p)) < 1e-9


# coordinates k/64 in [-5, 5]: the group law is exact in float64 on them, on
# the products g p and g q, and on the displacement (g p)^-1 g q
dyadic = st.integers(-320, 320).map(lambda k: k / 64.0)
dyadic_point = st.tuples(dyadic, dyadic, dyadic).map(lambda t: Event(*t))


# On arbitrary floats group_mul(g, q) rounds: g = (0, 0, 1), p = 0 and
# q = (0, 0, 1.78e-18) gave g q = g, d1 = 0 against d0 = 4.7e-9.  On the
# dyadic grid both displacements are p^-1 q exactly, so the distances agree
# bit for bit; the example is that draw's grid analogue.
@settings(max_examples=80, deadline=None)
@given(dyadic_point, dyadic_point, dyadic_point)
@example(Event(0.0, 0.0, 1.0), ORIGIN, Event(0.0, 0.0, 1.0 / 64.0))
def test_distance_left_invariant(g, p, q):
    assert sr_distance(p, q) == sr_distance(group_mul(g, p), group_mul(g, q))


def test_full_circle_test_is_relative():
    # a tiny planar point is a straight segment on every path, and the
    # distance stays homogeneous far below scale 1e-14, also where the
    # chord's square is subnormal (below 1.5e-154) or 0 (below 1.5e-162)
    for c in (1e-15, 1e-160, 1e-162, 1e-170, 5e-324):
        tiny = Event(c, 0.0, 0.0)
        assert sr_distance(ORIGIN, tiny) == c
        assert _distance_from_origin(np.array([tiny]))[0] == c
    q = Event(1.0, 0.0, 0.1)
    d0 = sr_distance(ORIGIN, q)
    for lam in (1e-12, 1e-14, 1e-16):
        p = dilate(lam, q)
        assert abs(sr_distance(ORIGIN, p) / lam - d0) <= 1e-14 * d0
        assert abs(_distance_from_origin(np.array([p]))[0] / lam - d0) <= 1e-14 * d0


@settings(max_examples=80, deadline=None)
@given(point, st.floats(0.1, 4.0))
def test_distance_dilation_homogeneous(p, lam):
    d0 = sr_distance(ORIGIN, p)
    d1 = sr_distance(ORIGIN, dilate(lam, p))
    assert abs(d1 - lam * d0) <= 1e-9 * max(lam * d0, 1.0)


@settings(max_examples=50, deadline=None)
@given(point, point)
def test_distance_triangle_inequality(p, q):
    d = sr_distance(p, q)
    assert d <= sr_distance(p, ORIGIN) + sr_distance(ORIGIN, q) + 1e-9


def test_solve_arc_angle_round_trip():
    # m = 0 and m over logspace(-12, 12), then on to 1e30, where 2 pi - phi
    # is a few ulps of 2 pi
    m = np.concatenate([[0.0], np.logspace(-12.0, 12.0, 2401), np.logspace(14.0, 30.0, 9)])
    phi = _solve_arc_angle(m)
    assert np.all((phi >= 0.0) & (phi < 2.0 * math.pi))
    assert np.all(np.diff(phi) >= 0.0)
    assert phi[0] == 0.0
    phi, m = phi[1:], m[1:]
    f = _dido_ratio(phi, circ=True)[0]
    eps = np.finfo(float).eps
    # m comes back to a few ulps, times what one ulp of phi moves the ratio
    # by (large as phi -> 2 pi), plus the rounding of phi - sin(phi), which
    # _odd_tail forms directly for phi >= 2
    cond = phi * np.abs(0.25 / f - 1.0 / np.tan(0.5 * phi))
    cancel = np.where(phi >= 2.0, np.spacing(phi) / _odd_tail(phi, circ=True), 0.0)
    assert np.all(np.abs(f / m - 1.0) <= 16.0 * (eps * (1.0 + cond) + cancel))


def test_box_contains():
    spec = BoxSpec(2.0)
    assert box_contains(spec, Event(2.0, -2.0, 4.0))
    assert not box_contains(spec, Event(2.1, 0.0, 0.0))
    assert not box_contains(spec, Event(0.0, 0.0, 4.1))


def test_sample_diamond_membership_and_determinism():
    q = Event(2.0, 0.3, 0.2)
    pts = sample_diamond(q, 5000, seed=3)
    assert pts.shape == (5000, 3)
    # every sample is causally between the endpoints
    from heislor.heisenberg_core import in_causal_future

    for row in pts[::100]:
        r = Event(*row)
        assert in_causal_future(ORIGIN, r)
        assert in_causal_future(r, q)
    again = sample_diamond(q, 5000, seed=3)
    assert np.array_equal(pts, again)
    other = sample_diamond(q, 5000, seed=4)
    assert not np.array_equal(pts, other)


def test_sample_diamond_thin_diamond_still_fills():
    # near-null diamond with tiny acceptance fraction in its bounding box
    from heislor.geodesics import GeoParam, exp_point

    q = exp_point(GeoParam(0.3, 0.27, 3.0), 1.0)
    pts = sample_diamond(q, 2000, seed=0)
    assert pts.shape == (2000, 3)


def test_fibre_max_bounds_every_fibre():
    # on a 401 x 401 grid of the planar diamond, for c/T^2 across (-1/4, 1/4)
    # up to 1e-9 from the null ends, no fibre is longer than fibre_max, which
    # the fibre over (T/2, -2c/T) attains
    T = 1.7
    g = np.linspace(0.0, 0.5 * T, 401)
    a, b = (v.ravel() for v in np.meshgrid(g, g))
    for zt in np.concatenate([np.linspace(-0.249, 0.249, 41), [-0.25 + 1e-9, 0.25 - 1e-9]]):
        c = zt * T * T
        top = fibre_max(T * T, c)
        assert abs(top - (T * T / 8.0 - 2.0 * c * c / (T * T))) <= 1e-15 * T * T
        length = diamond_fibre(T, c, a + b, a - b)[1]
        assert np.max(length) <= top + 1e-15 * T * T
        at = diamond_fibre(T, c, 0.5 * T, -2.0 * c / T)[1]
        assert abs(at - top) <= 1e-15 * T * T


def test_nonempty_fibres_lie_in_the_strip():
    # for c/T^2 of both signs up to 1e-9 from the null ends, every fibre of
    # positive length over a grid of [0, T/2]^2, and every draw of
    # fibre_hits, lies in the strip 2 alpha gamma < eps = T^2/4 - |c|,
    # (x, y) = (alpha + beta, alpha - beta), gamma = T/2 - beta, with alpha
    # and beta swapped for c < 0.  The grid is graded towards both ends, where
    # the strip is thin near null.
    T = 1.7
    ends = np.concatenate([[0.0], np.logspace(-12.0, 0.0, 200)])
    g = 0.5 * T * np.unique(np.concatenate([ends, 1.0 - ends]))
    a, b = (v.ravel() for v in np.meshgrid(g, g))
    for zt in np.concatenate([np.linspace(-0.249, 0.249, 41), [-0.25 + 1e-9, 0.25 - 1e-9]]):
        c = zt * T * T
        eps = 0.25 * T * T - abs(c)
        length = diamond_fibre(T, c, a + b, a - b)[1]
        al, be = (a, b) if c >= 0.0 else (b, a)
        strip = 2.0 * al * (0.5 * T - be) < eps + 1e-15 * T * T
        assert np.any(length > 0.0) and np.all(strip[length > 0.0])
        x, y, _, hit = sr_metric.fibre_hits(T * T, c, [3, 0], 4096)
        al, be = (0.5 * (x + y), 0.5 * (x - y))[:: 1 if c >= 0.0 else -1]
        assert np.all(2.0 * al * (0.5 * T - be) < eps + 1e-15 * T * T)
        assert np.all(np.abs(y) <= np.minimum(x, T - x) + 1e-15 * T) and np.any(hit)


@pytest.mark.parametrize("q", [Event(1.3, 0.0, 0.2), Event(2.0, 0.7, -0.3)])
def test_fibre_membership_matches_cone_predicate(q):
    # planar test plus lo <= z <= lo + L in the axis frame, against the two
    # cone inequalities in the frame of q; points within 1e-12 of the
    # fibre's or the planar diamond's edge are left out
    a, b, c = q
    ch, sh, T = boost_to_axis(a, b)
    rng = np.random.default_rng(21)
    n = 200000
    x = rng.uniform(-0.05 * T, 1.05 * T, n)
    y = rng.uniform(-0.55 * T, 0.55 * T, n)
    z = 0.5 * c + rng.uniform(-0.1 * T * T, 0.1 * T * T, n)
    lo, length = diamond_fibre(T, c, x, y)
    margin = np.minimum.reduce([x - np.abs(y), T - x - np.abs(y), z - lo, lo + length - z])
    clear = np.abs(margin) > 1e-12
    pts = np.column_stack([(np.column_stack([x, y]) @ np.array([[ch, sh], [sh, ch]]).T), z])
    member = _in_diamond(pts, ORIGIN, q)
    assert np.array_equal((margin > 0.0)[clear], member[clear])
    assert 0.02 < np.mean(member) < 0.98 and np.mean(clear) > 0.999


def test_sample_diamond_prefix_stable():
    # fixed-size (seed, chunk) substreams: more points extend the sample
    q = Event(2.0, 0.5, 0.7)
    pts = sample_diamond(q, 40000, seed=6)
    for k in (1, 777, 25000):
        assert np.array_equal(pts[:k], sample_diamond(q, k, seed=6))


@pytest.mark.parametrize(
    "param", [(1.0, 0.0, 0.0), (1.2, 0.4, 2.5), (0.8, -0.5, -3.9), (1.0, 0.2, 9.0)]
)
def test_sample_diamond_uniform(param):
    # the share of points in the sub-diamond J(0, m), m the geodesic
    # midpoint, is its share of the volume within 4 binomial sigmas; the
    # last diamond is near null, 1/4 - c/T^2 = 4.9e-4
    from heislor.geodesics import GeoParam, exp_point
    from heislor.measure import diamond_volume_closed

    q = exp_point(GeoParam(*param), 1.0)
    m = exp_point(GeoParam(*param), 0.5)
    share = diamond_volume_closed(ORIGIN, m) / diamond_volume_closed(ORIGIN, q)
    n = 40000
    pts = sample_diamond(q, n, seed=8)
    k = np.count_nonzero(_in_diamond(pts, ORIGIN, m))
    assert abs(k - n * share) <= 4.0 * math.sqrt(n * share * (1.0 - share))


def test_sample_diamond_rejects_null_diamond():
    for q in (Event(1.0, 0.0, 0.25), Event(1.0, 1.0, 0.0), Event(0.0, 0.0, 0.0)):
        with pytest.raises(ValueError):
            sample_diamond(q, 10, seed=0)


def test_diamond_in_box_check_reports():
    rep = diamond_in_box_check(ORIGIN, Event(2.0, 0.0, 0.0), 20000, seed=1)
    assert rep["inclusion_pass"] is True
    assert rep["samples"] == 20000
    assert rep["violations"] == []
    assert abs(rep["box_radius_vertex"] - 2.0) < 1e-12
    assert 0.0 < rep["box_radius_distance"]
    with pytest.raises(ValueError):
        diamond_in_box_check(ORIGIN, Event(-1.0, 0.0, 0.0), 100, seed=0)


def test_diamond_in_box_left_translated():
    p = Event(0.4, -0.2, 0.1)
    q = group_mul(p, Event(1.5, 0.2, -0.3))
    rep = diamond_in_box_check(p, q, 20000, seed=2)
    assert rep["inclusion_pass"] is True


def _mp_sheet_distance(x, s):
    # _boundary_sheet_distance at 30 digits: the Dido arc-angle equation
    # solved by mpmath.findroot
    with mp.workdps(30):
        x, s = mp.mpf(x), mp.mpf(s)
        h = 1 + x
        y = s * h
        z = h * h * (1 - s * s) / 4 - y / 2
        chord = mp.hypot(x, y)
        m = abs(z) / chord ** 2
        phi = mp.findroot(lambda p: (p - mp.sin(p)) / (8 * mp.sin(p / 2) ** 2) - m, 2)
        return chord * (phi / 2) / mp.sin(phi / 2)


def test_unit_diamond_inner_radius_below_mpmath_minimum():
    rho = unit_diamond_inner_radius()
    d, x, s = _inner_radius_minimizer()
    at = _mp_sheet_distance(x, s)
    assert rho <= at and float(at) - rho <= 1e-12
    assert abs(d - float(at)) <= 1e-15
    # a local minimum: every neighbour at 1e-4 and at 1e-6 is higher
    for h in (1e-4, 1e-6):
        for dx in (-h, 0.0, h):
            for ds in (-h, 0.0, h):
                if dx or ds:
                    near = _mp_sheet_distance(x + dx, s + ds)
                    assert near >= at - mp.mpf(1e-20) and rho <= near


def _unit_diamond_sheets(x, s):
    # the four boundary sheets of J((-1,0,0), (1,0,0)) over the (x, s) grid,
    # y = s (1 -+ x), each kept where it bounds the diamond
    sheets = []
    for sign in (1.0, -1.0):
        h = 1.0 + x
        y = s * h
        fut = np.column_stack([x, y, sign * 0.25 * (h * h - y * y) - 0.5 * y])
        h = 1.0 - x
        y = s * h
        past = np.column_stack([x, y, 0.5 * y - sign * 0.25 * (h * h - y * y)])
        sheets += [pts[_in_unit_diamond(pts)] for pts in (fut, past)]
    return sheets


def _in_unit_diamond(pts):
    return _in_diamond(pts, Event(-1.0, 0.0, 0.0), Event(1.0, 0.0, 0.0))


def test_inner_radius_one_sheet_by_symmetry():
    # (x, y, z) -> (x, -y, -z) and (-x, y, -z) map the unit diamond onto
    # itself and keep the distance from the origin: the minimizer's images
    # lie on the diamond's boundary at the same distance
    d, x, s = _inner_radius_minimizer()
    h = 1.0 + x
    y = s * h
    z = 0.25 * h * h * (1.0 - s * s) - 0.5 * y
    images = np.array([[x, y, z], [x, -y, -z], [-x, y, -z], [-x, -y, z]])
    assert np.all(_distance_from_origin(images) == d)
    assert np.all(_in_unit_diamond(images))
    ix, iy, iz = images.T
    fut = (1.0 + ix) ** 2 - iy * iy - 4.0 * np.abs(iz + 0.5 * iy)
    past = (1.0 - ix) ** 2 - iy * iy - 4.0 * np.abs(0.5 * iy - iz)
    assert np.all(np.abs(np.minimum(fut, past)) <= 1e-15)
    # a 401 x 401 scan of each of the four sheets: the same minimum on every
    # sheet (the grid is symmetric too), above rho
    g = np.linspace(-1.0, 1.0, 401)
    gx, gs = (a.ravel() for a in np.meshgrid(g, g))
    mins = [float(np.min(_distance_from_origin(p))) for p in _unit_diamond_sheets(gx, gs)]
    assert np.allclose(mins, mins[0], rtol=1e-14, atol=0.0)
    assert unit_diamond_inner_radius() < mins[0] < d + 1e-4
    assert float(np.min(_boundary_sheet_distance(gx, gs))) == mins[0]


def test_ball_in_diamond_scaling():
    dia = ball_in_diamond(ORIGIN, 0.5)
    rho = unit_diamond_inner_radius()
    s = 0.5 / rho
    assert np.allclose(dia.p, (-s, 0.0, 0.0), atol=1e-12)
    assert np.allclose(dia.q, (s, 0.0, 0.0), atol=1e-12)
    with pytest.raises(ValueError):
        ball_in_diamond(ORIGIN, 0.0)


def test_ball_in_diamond_contains_minimizing_directions():
    # the points of the unit diamond's boundary nearest the origin, dilated
    # to CC distance r (1 - 1e-9) and translated by p, lie in
    # ball_in_diamond(p, r): rho is no larger than the true inner radius
    x, s = -0.18176234547254748, 0.34901403857172544  # 30-digit minimizer
    h = 1.0 + x
    y = s * h
    z = 0.25 * h * h * (1.0 - s * s) - 0.5 * y
    near = [Event(x, y, z), Event(x, -y, -z), Event(-x, y, -z), Event(-x, -y, z)]
    for p in (ORIGIN, Event(0.2, 0.1, -0.05)):
        for r in (0.4, 1.0, 3.0):
            dia = ball_in_diamond(p, r)
            for b in near:
                pt = group_mul(p, dilate(r * (1.0 - 1e-9) / sr_distance(ORIGIN, b), b))
                assert in_causal_future(dia.p, pt)
                assert in_causal_future(pt, dia.q)


def test_ball_in_diamond_contains_ball_samples():
    # random points at CC distance < r from p land inside the diamond
    p = Event(0.2, 0.1, -0.05)
    r = 0.4
    dia = ball_in_diamond(p, r)
    rng = np.random.default_rng(7)
    raw = np.column_stack(
        [
            rng.uniform(-r, r, 4000),
            rng.uniform(-r, r, 4000),
            rng.uniform(-r * r, r * r, 4000),
        ]
    )
    inside = raw[_distance_from_origin(raw) < r]
    assert len(inside) > 100
    for row in inside[::50]:
        pt = group_mul(p, Event(*row))
        assert in_causal_future(dia.p, pt)
        assert in_causal_future(pt, dia.q)
