"""Exponential map, its inverse, time separation, geodesic constructions."""

import hashlib
import math
import types

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heislor import geodesics, minkowski_iso
from heislor.geodesics import (
    Geodesic,
    GeoParam,
    NotChronologicalError,
    cut_additivity_check,
    exp_jacobian_det,
    exp_point,
    geodesic_between,
    geodesic_inversion,
    log,
    midpoint_map,
    tau,
)
from heislor.heisenberg_core import (
    ORIGIN,
    Event,
    NotCausalError,
    dilate,
    group_inv,
    group_mul,
    in_chronological_future,
)
from heislor.sr_metric import sr_distance

# exp/log round trips are well conditioned for moderate bending; the error
# grows like e^{2|w|} (see test_round_trip_conditioning_growth), so the
# module-level checks stay in |w| <= 8 where 1e-9 relative is attainable
timelike_param = st.tuples(
    st.floats(0.1, 10.0),
    st.floats(-0.95, 0.95),
    st.floats(-8.0, 8.0),
).map(lambda t: GeoParam(t[0], t[0] * t[1], t[2]))


def test_exp_point_straight_line():
    p = exp_point(GeoParam(2.0, 0.5, 0.0), 0.75)
    assert np.allclose(p, (1.5, 0.375, 0.0), atol=1e-15)


def test_exp_point_closed_form_value():
    u, v, w, t = 1.5, 0.3, 2.0, 1.0
    p = exp_point(GeoParam(u, v, w), t)
    sh, ch = math.sinh(w * t), math.cosh(w * t)
    assert abs(p.x - (v * (ch - 1.0) + u * sh) / w) < 1e-12
    assert abs(p.y - (v * sh + u * (ch - 1.0)) / w) < 1e-12
    assert abs(p.z - (u * u - v * v) * (sh - w * t) / (2.0 * w * w)) < 1e-12


def test_exp_point_series_matches_closed_form():
    # on both sides of the series switch SERIES_WT = 1e-8, and of 1e-4 where
    # the series dropped the (wt)^3 / 24 term, to 4 eps of 40-digit values
    cases = [(1.2, -0.4, w) for w in (9e-5, 1.1e-4, 9.9e-9, 1.01e-8)]
    cases += [(1.0, 0.0, w) for w in (9.9e-5, 9.9e-9, 1.01e-8)]
    eps = np.finfo(float).eps
    with mp.workdps(40):
        for u, v, w in cases:
            U, V, W = mp.mpf(u), mp.mpf(v), mp.mpf(w)
            exact = (
                (V * (mp.cosh(W) - 1) + U * mp.sinh(W)) / W,
                (V * mp.sinh(W) + U * (mp.cosh(W) - 1)) / W,
                (U * U - V * V) * (mp.sinh(W) - W) / (2 * W * W),
            )
            for got, want in zip(exp_point(GeoParam(u, v, w), 1.0), exact):
                assert abs(got - want) <= 4 * eps * abs(want), (u, v, w)


def test_exp_image_is_chronological():
    for w in (-6.0, -1.0, 0.0, 1.0, 6.0):
        q = exp_point(GeoParam(1.0, 0.5, w), 1.0)
        assert in_chronological_future(ORIGIN, q)


@settings(max_examples=150, deadline=None)
@given(timelike_param)
def test_log_round_trip_moderate_bending(param):
    q = exp_point(param, 1.0)
    back = log(q)
    scale = max(abs(param.u), abs(param.v), abs(param.w))
    assert max(abs(a - b) for a, b in zip(param, back)) <= 1e-9 * scale


# the whole u, v strategy with |w| up to 19, near where endpoints start to
# round onto the null boundary
wide_param = st.tuples(
    st.floats(0.1, 10.0),
    st.floats(-0.95, 0.95),
    st.floats(-19.0, 19.0),
).map(lambda t: GeoParam(t[0], t[0] * t[1], t[2]))


@settings(max_examples=300, deadline=None)
@given(wide_param)
def test_log_is_backward_stable(param):
    # exp_point(log(q), 1) is within 64 cond ulps of q at any bending: x and y
    # in ulps of max(|x|, |y|), z in ulps of |z|.  Rounding u and v to floats
    # alone moves u + v or u - v, and so x + y or x - y, by up to
    # cond = (u + |v|)/(u - |v|) ulps (39 at |v/u| = 0.95).  An endpoint that
    # rounds out of I+(0) has no preimage (criterion 1) and is skipped
    q = exp_point(param, 1.0)
    try:
        back = exp_point(log(q), 1.0)
    except NotChronologicalError:
        assume(False)
    u, v, _ = param
    tol = 64.0 * (u + abs(v)) / (u - abs(v))
    assert max(abs(back.x - q.x), abs(back.y - q.y)) <= tol * math.ulp(max(abs(q.x), abs(q.y)))
    assert abs(back.z - q.z) <= tol * math.ulp(abs(q.z))


def _mp_log(q, w0):
    # exact preimage of the float point q in the working precision, through
    # c/((a + b)(a - b)) = R(w) solved from the float bending w0; None off I+
    a, b, c = (mp.mpf(x) for x in q)
    s, d = a + b, a - b
    if s <= 0 or d <= 0 or abs(c / (s * d)) >= mp.mpf(1) / 4:
        return None
    w = mp.findroot(lambda x: (mp.sinh(x) - x) / (8 * mp.sinh(x / 2) ** 2) - c / (s * d), w0)
    s, d = s * w / mp.expm1(w), d * w / -mp.expm1(-w)
    return (s + d) / 2, (s - d) / 2, w


def _banded_params(rng, lo, hi, n):
    u = rng.uniform(0.5, 10.0, n)
    v = u * rng.uniform(-0.95, 0.95, n)
    w = rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
    return [GeoParam(*t) for t in zip(u.tolist(), v.tolist(), w.tolist())]


# (|w| band): the largest error of (u, v) in ulps of max(|u|, |v|) allowed
# there.  Past |w| = 4 the error of w itself, the endpoint's conditioning and
# the rounding of c/T^2, carries into (u, v) and dominates.
LOG_FORWARD_BOUNDS = {
    (0, 1): 6.0,
    (1, 2): 8.0,
    (4, 5): 160.0,
    (7, 8): 1e3,
    (13, 14): 2e5,
    (18, 19): 2e7,
}


def test_log_forward_error_against_mpmath():
    # against the 80-digit preimage of the float endpoint, 50 draws per band
    rng = np.random.default_rng(18)
    with mp.workdps(80):
        for (lo, hi), bound in LOG_FORWARD_BOUNDS.items():
            worst, used = 0.0, 0
            for param in _banded_params(rng, lo, hi, 50):
                q = exp_point(param, 1.0)
                try:
                    got = log(q)
                except NotChronologicalError:
                    continue
                ref = _mp_log(q, got.w)
                if ref is None:
                    continue
                used += 1
                ulp = math.ulp(max(abs(float(ref[0])), abs(float(ref[1]))))
                err = max(abs(got.u - ref[0]), abs(got.v - ref[1]))
                worst = max(worst, float(err) / ulp)
            assert used >= 45, (lo, hi, used)
            assert worst <= bound, (lo, hi, worst)


def test_round_trip_conditioning_growth():
    # the round-trip error grows like e^{2|w|}: representation rounding of the
    # endpoint alone moves the recovered w by ~eps * e^{2|w|} / 16
    errs = []
    for w in (2.0, 6.0, 10.0, 14.0):
        param = GeoParam(1.0, 0.0, w)
        back = log(exp_point(param, 1.0))
        errs.append(abs(back.w - w) + 1e-18)
    assert errs[1] < 1e-9
    # later entries grow by orders of magnitude yet stay finite well below
    # the w ~ 19 breakdown where the ratio z/x^2 rounds onto the boundary 1/4
    assert errs[3] > errs[1]
    assert errs[3] < 1e-2


def test_log_domain_errors():
    with pytest.raises(NotChronologicalError):
        log(Event(2.0, 0.0, 1.0))  # null boundary
    with pytest.raises(NotChronologicalError):
        log(Event(-1.0, 0.0, 0.0))
    with pytest.raises(NotChronologicalError):
        log(ORIGIN)


def test_log_not_chronological_explains_itself():
    # the defect -a^2 + b^2 + 4|c| of the point, and c/T^2 when a > |b|
    prefix = "point not in the chronological future"
    with pytest.raises(NotChronologicalError) as err:
        log(Event(1.0, 0.0, 0.375))  # above the cone's upper sheet
    assert str(err.value).startswith(prefix)
    assert err.value.defect == 0.5 and err.value.zt == 0.375
    assert "= 0.5," in str(err.value) and "c/T^2 = 0.375" in str(err.value)
    with pytest.raises(NotChronologicalError) as err:
        log(Event(1.0, -2.0, 0.5))  # spacelike chord, no T
    assert str(err.value).startswith(prefix)
    assert err.value.defect == 5.0 and err.value.zt is None
    assert "c/T^2" not in str(err.value)


def test_log_chord_underflow_raises_not_chronological():
    # a > |b|, but T^2 = (a - b)(a + b) underflows to 0: no c/T^2 to give
    with pytest.raises(NotChronologicalError) as err:
        log(Event(1e-170, 0.0, 1e-341))
    assert err.value.zt is None and "c/T^2" not in str(err.value)


def test_midpoint_map_chord_underflow_raises_not_chronological():
    with pytest.raises(NotChronologicalError) as err:
        midpoint_map(Event(1e-170, 0.0, 0.0), ORIGIN)
    assert err.value.zt is None


def test_exp_jacobian_det_positive_and_scaling():
    det = exp_jacobian_det(GeoParam(1.0, 0.0, 0.0), 1.0)
    assert abs(det - 1.0 / 12.0) < 1e-15  # t^5 (u^2 - v^2)/12 at w = 0
    # both branches around the switch agree with the small-w expansion
    for w in (9e-5, 1.1e-4):
        det = exp_jacobian_det(GeoParam(1.0, 0.2, w), 1.0)
        expect = (1.0 - 0.04) / 12.0 * (1.0 + w * w / 15.0)
        assert abs(det - expect) < 1e-12 * expect


def test_exp_jacobian_det_vs_finite_differences():
    # central differences at a well-conditioned parameter
    param = GeoParam(1.3, 0.4, 1.7)
    t = 0.9
    h = 1e-6
    cols = []
    for i in range(3):
        dp = [0.0, 0.0, 0.0]
        dp[i] = h
        hi = exp_point(GeoParam(*(a + d for a, d in zip(param, dp))), t)
        lo = exp_point(GeoParam(*(a - d for a, d in zip(param, dp))), t)
        cols.append([(x - y) / (2.0 * h) for x, y in zip(hi, lo)])
    fd = float(np.linalg.det(np.array(cols).T))
    assert abs(fd - exp_jacobian_det(param, t)) < 1e-8 * abs(fd)


def test_tau_axis_values():
    assert abs(tau(ORIGIN, Event(2.0, 0.0, 0.0)) - 2.0) < 1e-15
    assert tau(ORIGIN, Event(2.0, 0.0, 1.0)) == 0.0  # null boundary
    assert tau(ORIGIN, Event(-1.0, 0.0, 0.0)) == 0.0  # not causally related
    assert tau(ORIGIN, Event(1.0, 2.0, 0.0)) == 0.0


def test_tau_matches_param_length():
    # tau(0, exp(param, t)) = t sqrt(u^2 - v^2); checked along rays
    param = GeoParam(1.4, 0.5, 2.5)
    ell = math.sqrt(param.u ** 2 - param.v ** 2)
    for t in (0.1, 0.5, 1.0, 1.5):
        assert abs(tau(ORIGIN, exp_point(param, t)) - ell * t) < 1e-11 * ell * t


_NEAR_CONE = (
    Event(676.6669605390703, -611.8954584837733, 20865.53084302914),
    Event(1565.9851864023294, -844.1827751465735, -434916.26154434204),
)


def test_tau_is_zero_within_rounding_of_the_cone():
    # pairs within rounding of the null boundary, where c/T^2 rounds to +-1/4:
    # the first passes the chronological predicate, the second only the causal
    # one.  tau is 0 on both, and log reports the rounded ratio
    for q, zt in zip(_NEAR_CONE, (0.25, -0.25)):
        assert tau(ORIGIN, q) == 0.0
        with pytest.raises(NotChronologicalError) as err:
            log(q)
        assert err.value.zt == zt and f"c/T^2 = {zt!r}" in str(err.value)


def _agreement_draws(rng):
    # displacements of every kind the entry points must agree on
    for _ in range(300):  # timelike, from random base points
        u = rng.uniform(0.1, 10.0)
        param = GeoParam(u, u * rng.uniform(-0.95, 0.95), rng.uniform(-19.0, 19.0))
        p = Event(*rng.uniform(-2.0, 2.0, 3))
        yield group_mul(group_inv(p), group_mul(p, exp_point(param, 1.0)))
    yield from _NEAR_CONE
    for _ in range(500):  # c/T^2 a few ulps either side of +-1/4
        # scaled by T * T, which c/T^2 divides by, and by (a - b)(a + b),
        # which the predicate reads: past T = 100 the ulp or so between them
        # exceeds NULL_TOL, and 1-3 % of these pass the predicate while
        # c/T^2 rounds to +-1/4
        a, b = _boosted_chord(rng, 10.0 ** rng.uniform(-1.0, 4.0))
        T = minkowski_iso.boost_to_axis(a, b)[2]
        k = int(rng.integers(-4, 5))  # ulps from 1/4, which are halved below it
        zt = rng.choice([-1.0, 1.0]) * (0.25 + k * math.ulp(0.125 if k < 0 else 0.25))
        yield Event(a, b, zt * (T * T))
        yield Event(a, b, zt * ((a - b) * (a + b)))
    for _ in range(50):  # null and spacelike endpoints, and the past
        s = rng.uniform(0.1, 2.0)
        a, b = _boosted_chord(rng, s)
        sign = rng.choice([-1.0, 1.0])
        yield Event(s, sign * s, 0.0)
        yield Event(a, b, sign * s * s / 4.0)
        yield Event(s, sign * 2.0 * s, rng.normal())
        yield Event(-a, b, 0.0)
        yield Event(a, b, sign * s * s)
    for _ in range(50):  # c != 0 where c/T^2 underflows to 0
        a, b = _boosted_chord(rng, 10.0 ** rng.uniform(8.0, 12.0))
        yield Event(a, b, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-323.0, -310.0))


def _boosted_chord(rng, T):
    eta = rng.uniform(-3.0, 3.0)
    return T * math.cosh(eta), T * math.sinh(eta)


def test_entry_points_agree_on_the_maximizer():
    # tau and solve give one length, bit for bit; log fails exactly where
    # solve finds no timelike maximizer, and geodesic_between returns a
    # Geodesic exactly where log succeeds
    for r in _agreement_draws(np.random.default_rng(35)):
        sol = minkowski_iso.solve(minkowski_iso.IsoProblem(*r))
        assert tau(ORIGIN, r) == sol.max_length, r
        try:
            log(r)
            chronological = True
        except NotChronologicalError:
            chronological = False
        null = sol.case in (minkowski_iso.CASE_EMPTY, minkowski_iso.CASE_BROKEN_NULL)
        assert chronological != null, (r, sol)
        try:
            geo = geodesic_between(ORIGIN, r, n=11)
        except NotCausalError:
            geo = None
        assert isinstance(geo, Geodesic) == chronological, r


@settings(max_examples=100, deadline=None)
@given(timelike_param, st.floats(0.05, 4.0))
def test_tau_homogeneous_under_dilation(param, lam):
    q = exp_point(param, 1.0)
    t0 = tau(ORIGIN, q)
    t1 = tau(ORIGIN, dilate(lam, q))
    # Rounding the endpoint (a, b, c) by eps moves T^2 = (a - b)(a + b) by
    # eps (a + |b|) / (a - |b|) relative, which is e^{|w|} (u + |v|) / (u - |v|)
    # on exp_point(param, 1), and c/T^2 ~ 1/4 by a quarter of that.  There
    # 1/4 - R(w) ~ (|w| - 1) e^{-|w|} / 2, so the bending moves by about
    # 2 e^{|w|} / |w| times as much, and tau by half the bending's move,
    # relative: eps e^{2|w|} (u + |v|) / (4 |w| (u - |v|)) in all.  For |w| >= 4
    # that is at most README's estimate eps e^{2|w|} / 16 times the boost
    # factor, cond below, and each of the two calls contributes it; for
    # |w| < 4, cond < 2e-12 and the 1e-10 dominates.
    u, v, w = param
    cond = math.ulp(1.0) * math.exp(2.0 * abs(w)) / 16.0 * (u + abs(v)) / (u - abs(v))
    assert abs(t1 - lam * t0) <= (1e-10 + 2.0 * cond) * lam * t0


@pytest.mark.parametrize("w", [2.2250738585e-313, 1e-200, 1e-9, -1e-9])
def test_tau_tiny_bending_is_the_chord(w):
    # (w/2) / sinh(w/2) rounds to 1, also where T w/2 is subnormal
    q = exp_point(GeoParam(0.125, 0.0625, w), 1.0)
    assert tau(ORIGIN, q) == math.sqrt(0.125 ** 2 - 0.0625 ** 2)
    assert tau(ORIGIN, dilate(2.0, q)) == 2.0 * tau(ORIGIN, q)


def test_geodesic_between_timelike():
    p = Event(0.2, -0.1, 0.05)
    q = group_mul(p, exp_point(GeoParam(1.0, 0.3, 1.5), 1.0))
    geo = geodesic_between(p, q)
    assert isinstance(geo, Geodesic)
    end = group_mul(geo.base, exp_point(geo.param, geo.t_max))
    assert np.allclose(end, q, atol=1e-9)


def test_geodesic_between_null_boundary():
    # broken-null target: the planar maximizer bends at (1, -1)
    curve = geodesic_between(ORIGIN, Event(2.0, 0.0, 1.0), n=1025)
    pts = np.asarray(curve.points)
    assert np.allclose(pts[0], (0.0, 0.0, 0.0), atol=1e-12)
    assert np.allclose(pts[-1], (2.0, 0.0, 1.0), atol=1e-9)
    mid = pts[512]
    assert np.allclose(mid[:2], (1.0, -1.0), atol=1e-9)


def test_geodesic_between_null_pairs_from_any_base():
    # q = p * e for a null e, straight (s, +-s, 0) or broken (T cosh h,
    # T sinh h, +-T^2/4): p^-1 q rounds off the cone's boundary by a few ulps,
    # (1, 1, 2.8e-17) for the first pair, and stays a null pair
    rng = np.random.default_rng(13)
    pairs = [(Event(0.1, 0.2, 0.3), Event(1.1, 1.2, 0.25))]
    for i in range(40):
        p = Event(*rng.normal(0.0, 1.0, 3))
        sign = rng.choice([-1.0, 1.0])
        if i % 2:
            T, h = rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0)
            e = Event(T * math.cosh(h), T * math.sinh(h), sign * T * T / 4.0)
        else:
            s = rng.uniform(0.1, 2.0)
            e = Event(s, sign * s, 0.0)
        pairs.append((p, group_mul(p, e)))
    for p, q in pairs:
        curve = geodesic_between(p, q, n=11)
        assert not isinstance(curve, Geodesic)
        assert np.allclose(curve.points[[0, -1]], [p, q], rtol=0.0, atol=1e-12)


def test_geodesic_between_errors():
    with pytest.raises(ValueError):
        geodesic_between(ORIGIN, ORIGIN)
    with pytest.raises(NotCausalError):
        geodesic_between(ORIGIN, Event(-1.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_coordinates_rejected(bad):
    q = Event(2.0, 0.0, 0.5)
    for k in range(3):
        wrong = Event(*(bad if i == k else c for i, c in enumerate(q)))
        for call in (
            lambda: tau(ORIGIN, wrong),
            lambda: tau(wrong, q),
            lambda: log(wrong),
            lambda: geodesic_between(ORIGIN, wrong),
            lambda: geodesic_between(wrong, q),
            lambda: sr_distance(wrong, q),
            lambda: sr_distance(ORIGIN, wrong),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                call()


def test_exp_point_past_branch():
    # t in [-1, 0] runs the geodesic backwards into the chronological past
    param = GeoParam(1.0, 0.2, 1.3)
    assert exp_point(param, 0.0) == ORIGIN
    p = exp_point(param, -1.0)
    assert in_chronological_future(p, ORIGIN)


@pytest.mark.parametrize(
    "x, z",
    [(1.0, 1e-30), (1.0, 1e-70), (1.0, 1e-200), (0.3, 1e-313)],
    ids=["1e-30", "1e-70", "1e-200", "x0.3-1e-313"],
)
def test_log_round_trip_tiny_bending(x, z):
    # below |z/x^2| = 1e-9 log takes the series root w = 12 z / x^2, and
    # u = x exactly, also where T w / 2 is subnormal
    q = Event(x, 0.0, z)
    param = log(q)
    assert param.w == 12.0 * (z / (x * x))
    assert param.u == x
    back = exp_point(param, 1.0)
    assert back.x == x and abs(back.y) <= 1e-15
    if z > 1e-300:
        assert abs(back.z - z) <= 4e-16 * z


def test_scalar_solvers_make_no_numpy_call(monkeypatch):
    # tau, log and solve work on floats alone: with numpy gone from both
    # modules, bar the ndarray type that the isinstance dispatch reads, a
    # boosted hyperbola endpoint gives the same results
    q = Event(2.0, 0.7, 0.3)
    prob = minkowski_iso.IsoProblem(*q)
    expected = (tau(ORIGIN, q), log(q), minkowski_iso.solve(prob))
    bare = types.SimpleNamespace(ndarray=np.ndarray)
    monkeypatch.setattr(geodesics, "np", bare)
    monkeypatch.setattr(minkowski_iso, "np", bare)
    assert (tau(ORIGIN, q), log(q), minkowski_iso.solve(prob)) == expected


def test_midpoint_map_axis():
    mid = midpoint_map(Event(1.0, 0.0, 0.0), Event(-1.0, 0.0, 0.0))
    assert np.allclose(mid, (0.0, 0.0, 0.0), atol=1e-12)
    with pytest.raises(NotChronologicalError):
        midpoint_map(Event(-1.0, 0.0, 0.0), Event(1.0, 0.0, 0.0))


def test_midpoint_map_tau_split():
    anchor = Event(2.0, 0.3, 0.1)
    p = Event(-0.5, 0.1, 0.0)
    mid = midpoint_map(anchor, p)
    t1 = tau(p, mid)
    t2 = tau(mid, anchor)
    assert abs(t1 - t2) < 1e-10 * t1
    assert abs(t1 + t2 - tau(p, anchor)) < 1e-10 * t1


def test_geodesic_inversion_involution_and_midpoint():
    center = Event(0.1, 0.05, 0.02)
    p = group_mul(center, exp_point(GeoParam(1.2, 0.4, -2.0), 1.0))
    img = geodesic_inversion(center, p)
    # center is the tau-midpoint
    assert abs(tau(img, center) - tau(center, p)) < 1e-9
    back = geodesic_inversion(center, img)
    assert np.allclose(back, p, atol=1e-8)
    with pytest.raises(NotChronologicalError):
        geodesic_inversion(center, group_mul(center, Event(1.0, 1.0, 0.0)))


def _rho(p):
    # the automorphism (x, y, z) -> (-x, -y, z), which reverses time orientation
    return Event(-p.x, -p.y, p.z)


def test_geodesic_inversion_commutes_with_time_reversal():
    rng = np.random.default_rng(32)
    for param in _banded_params(rng, 0.0, 12.0, 200):
        r = exp_point(param, 1.0)
        assert geodesic_inversion(ORIGIN, _rho(r)) == _rho(geodesic_inversion(ORIGIN, r))


def test_geodesic_inversion_of_past_points_against_mpmath():
    # the image of a past point r is exp(rot(log(r^-1)), 1), where rot is the
    # hyperbolic rotation by w of (u, v), against the 80-digit value of the
    # float r: x and y in ulps of max(|x|, |y|), z in ulps of |z|
    rng = np.random.default_rng(9)
    worst = 0.0
    with mp.workdps(80):
        for param in _banded_params(rng, 0.0, 9.0, 100):
            r = _rho(exp_point(param, 1.0))
            img = geodesic_inversion(ORIGIN, r)
            u, v, w = _mp_log(group_inv(r), -param.w)
            u, v = u * mp.cosh(w) + v * mp.sinh(w), u * mp.sinh(w) + v * mp.cosh(w)
            want = (
                (v * (mp.cosh(w) - 1) + u * mp.sinh(w)) / w,
                (v * mp.sinh(w) + u * (mp.cosh(w) - 1)) / w,
                (u * u - v * v) * (mp.sinh(w) - w) / (2 * w * w),
            )
            ulp = math.ulp(max(abs(float(want[0])), abs(float(want[1]))))
            err = max(abs(img.x - want[0]), abs(img.y - want[1])) / ulp
            worst = max(worst, float(err), float(abs(img.z - want[2])) / math.ulp(float(abs(want[2]))))
    assert worst <= 4e3, worst


def test_cut_additivity():
    assert cut_additivity_check(GeoParam(1.0, 0.3, 2.0), 0.1, 0.6, 1.3)
    with pytest.raises(ValueError):
        cut_additivity_check(GeoParam(1.0, 0.0, 0.0), 0.5, 0.4, 1.0)


def test_scalar_solver_outputs_are_bit_identical():
    # sha256 of the float.hex of tau, log's (u, v, w), solve's (case, T, y_c,
    # max_length) and geodesic_between's param on 3000 seeded timelike pairs:
    # a refactor of the scalar solvers that moves any of them by an ulp fails
    rng = np.random.default_rng(35)
    digest = hashlib.sha256()
    for _ in range(3000):
        u = rng.uniform(0.1, 10.0)
        param = GeoParam(u, u * rng.uniform(-0.95, 0.95), rng.uniform(-19.0, 19.0))
        p = Event(*rng.uniform(-2.0, 2.0, 3))
        q = group_mul(p, exp_point(param, 1.0))
        r = group_mul(group_inv(p), q)
        sol = minkowski_iso.solve(minkowski_iso.IsoProblem(*r))
        out = [tau(p, q), *log(r), sol.T, sol.y_c, sol.max_length, *geodesic_between(p, q).param]
        digest.update((sol.case + " " + " ".join(map(float.hex, out)) + "\n").encode())
    assert digest.hexdigest() == "aa886a91eea3b60215663851df0d9366d3fcc4f7394535141ee49760203974d5"
