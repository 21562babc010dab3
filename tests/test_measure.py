"""Diamond volumes, growth-ratio scan, Hausdorff measure bounds."""

import math

import mpmath as mp
import numpy as np
import pytest

from heislor import measure
from heislor.heisenberg_core import ORIGIN, Event, dilate, group_mul
from heislor.measure import (
    UNIT_DIAMOND_VOLUME,
    _entropy_term,
    _greedy_net,
    _half_ball_points,
    _net_indices,
    _omega,
    _unit_ball_volume,
    _unit_separation_volume,
    diamond_volume_closed,
    diamond_volume_mc,
    dimension_probe,
    growth_ratio_scan,
    hausdorff_bounds,
)
from heislor.sr_metric import _distance_from_origin, _solve_arc_angle, sr_distance, uniform_box


def test_unit_constant():
    assert abs(UNIT_DIAMOND_VOLUME - (2.0 * math.log(2.0) - 1.0) / 32.0) < 1e-18
    # unit diamond of 4-d Minkowski space: two cones of height 1/2 over the
    # 3-ball of radius 1/2, each (1/4) vol(B^3(1/2)) (1/2)
    cone = 0.25 * (4.0 / 3.0 * math.pi * 0.5 ** 3) * 0.5
    assert abs(_omega(4) - 2.0 * cone) <= 1e-16 * cone
    assert abs(_omega(4) - math.pi / 24.0) <= 1e-16 * cone


def test_axis_diamond_volume_scaling():
    # vol J(0, (T,0,0)) = T^4 K by the dilation scaling z -> lam^2 z
    base = diamond_volume_closed(ORIGIN, Event(1.0, 0.0, 0.0))
    assert abs(base - UNIT_DIAMOND_VOLUME) < 1e-15
    big = diamond_volume_closed(ORIGIN, Event(2.0, 0.0, 0.0))
    assert abs(big - 16.0 * base) < 1e-14


def test_volume_zero_outside_chronology():
    assert diamond_volume_closed(ORIGIN, Event(2.0, 0.0, 1.0)) == 0.0
    assert diamond_volume_closed(ORIGIN, Event(-1.0, 0.0, 0.0)) == 0.0
    assert diamond_volume_closed(ORIGIN, ORIGIN) == 0.0


def test_volume_left_invariant_and_dilation():
    p = Event(0.3, -0.2, 0.1)
    q = Event(2.0, 0.4, 0.25)
    v0 = diamond_volume_closed(ORIGIN, q)
    v1 = diamond_volume_closed(p, group_mul(p, q))
    assert abs(v0 - v1) < 1e-14
    v2 = diamond_volume_closed(ORIGIN, dilate(1.7, q))
    assert abs(v2 - 1.7 ** 4 * v0) < 1e-12


def test_volume_boost_invariant():
    # boosting the vertex with z fixed preserves the volume
    chi = 0.8
    a = 2.0 * math.cosh(chi)
    b = 2.0 * math.sinh(chi)
    v0 = diamond_volume_closed(ORIGIN, Event(2.0, 0.0, 0.3))
    v1 = diamond_volume_closed(ORIGIN, Event(a, b, 0.3))
    assert abs(v0 - v1) < 1e-13


def test_entropy_term_series_branch():
    # straddle the 1e-3 switch; both branches carry 12+ digits
    for s in (9e-4, 1.1e-3):
        direct = s * (1.0 - s) + s * s * math.log(s) + (1 - s) ** 2 * math.log1p(-s)
        # the direct form cancels ~2.5 digits here, hence the 1e-11 slack
        assert abs(_entropy_term(s, 1.0 - s) - direct) < 1e-11 * abs(direct)
    assert _entropy_term(0.0, 1.0) == 0.0


def test_volume_near_null_boundary_continuous():
    # c -> T^2/4: the volume vanishes continuously, no catastrophic digits
    vols = [
        diamond_volume_closed(ORIGIN, Event(2.0, 0.0, 1.0 - eps))
        for eps in (1e-2, 1e-4, 1e-6, 1e-8)
    ]
    assert all(v > 0.0 for v in vols)
    assert vols == sorted(vols, reverse=True)


def test_mc_matches_closed_form():
    p = Event(0.3, -0.1, 0.05)
    q = Event(2.1, 0.6, 0.4)
    est = diamond_volume_mc(p, q, 400000, seed=5)
    closed = diamond_volume_closed(p, q)
    assert abs(est.value - closed) <= 3.0 * est.stderr
    assert est.samples == 400000 and est.seed == 5


def test_mc_deterministic():
    p, q = ORIGIN, Event(2.0, 0.2, 0.1)
    a = diamond_volume_mc(p, q, 1500000, seed=9)
    b = diamond_volume_mc(p, q, 1500000, seed=9)
    assert a == b


def test_mc_degenerate_cases():
    # past vertex, T = 0 (p = q, or a null vertex) and |c| / T^2 = 1/4: no
    # volume, and no division by T^2
    p = Event(0.3, -0.2, 0.1)
    null = ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, -1.0, 0.0), (2.0, 0.0, 1.0), (2.0, 0.0, -1.0))
    for rel in ((-1.0, 0.0, 0.0), *null):
        with np.errstate(all="raise"):
            est = diamond_volume_mc(p, group_mul(p, Event(*rel)), 100, seed=0)
        assert est == (0.0, 0.0, 100, 0)
    with pytest.raises(ValueError):
        diamond_volume_mc(ORIGIN, Event(1.0, 0.0, 0.0), 0, seed=0)


@pytest.mark.parametrize("q", [Event(1.0, 0.0, 0.0), Event(2.1, 0.6, 0.4), Event(1.5, -0.4, -0.45)])
def test_mc_is_hit_or_miss(q):
    # B k / n for a whole number k of hits, B the volume the draws fill, no
    # less than the diamond's, and the binomial stderr.  The draws fill the
    # height T^2/8 - 2 c^2/T^2 over the strip 2 alpha gamma < eps =
    # T^2/4 - |c| of [0, T/2]^2, of area A = (eps/2)(1 + ln(T^2/(2 eps))),
    # which (alpha, beta) -> (x, y) doubles; less than the height over the
    # whole planar diamond, T^4/16 - c^2
    n = 100003
    est = diamond_volume_mc(ORIGIN, q, n, seed=2)
    T2 = (q.x - q.y) * (q.x + q.y)
    eps = T2 / 4.0 - abs(q.z)
    A = 0.5 * eps * (1.0 + math.log(T2 / (2.0 * eps)))
    B = 2.0 * (T2 / 8.0 - 2.0 * q.z * q.z / T2) * A
    k = est.value * n / B
    assert abs(k - round(k)) <= 1e-9 * k and 0 < round(k) < n
    assert diamond_volume_closed(ORIGIN, q) <= B < T2 * T2 / 16.0 - q.z * q.z
    phat = round(k) / n
    assert math.isclose(est.stderr, B * math.sqrt(phat * (1.0 - phat) / n), rel_tol=1e-12)


def test_mc_near_null_at_scale():
    # 1/4 - c/T^2 = 1e-9 at T = 1e6, both signs: a finite estimate within 6
    # stderr of the closed form
    T = 1e6
    for c in (0.25 * T * T - 1e3, 1e3 - 0.25 * T * T):
        q = Event(T, 0.0, c)
        est = diamond_volume_mc(ORIGIN, q, 200000, seed=4)
        closed = diamond_volume_closed(ORIGIN, q)
        assert math.isfinite(est.value) and est.stderr > 0.0
        assert abs(est.value - closed) <= 6.0 * est.stderr


def test_unit_separation_volume_frozen_values():
    # frozen scan oracle (independent quadruple-checked evaluation)
    expect = {
        0.0: 0.01207169878499658,
        1.0: 0.011954789164594,
        5.0: 0.009978125644704,
        10.0: 0.0073941755989534,
        50.0: 0.0021901047892847,
    }
    for w, v in expect.items():
        assert abs(_unit_separation_volume(w) - v) < 1e-12 * v


def test_unit_separation_volume_asymptotic_branch_continuous():
    # smooth monotone decay straddling the log-space branch switch at w = 250
    ws = [240.0, 245.0, 249.9, 250.1, 255.0, 260.0]
    vals = [_unit_separation_volume(w) for w in ws]
    assert vals == sorted(vals, reverse=True)
    # the step across the switch is the genuine d vol/dw, about vol/w
    assert abs(vals[2] - vals[3]) < 1e-3 * vals[2]


def test_growth_ratio_scan_even_and_peaked():
    ws = np.linspace(-50.0, 50.0, 201)
    scan = growth_ratio_scan(ws)
    vals = np.array([v for _, v in scan])
    assert np.allclose(vals, vals[::-1], rtol=1e-12)
    assert np.argmax(vals) == 100  # w = 0
    assert vals[100] == UNIT_DIAMOND_VOLUME
    # decays towards 0 as |w| grows
    assert np.all(np.diff(vals[100:]) < 0.0)


def test_hausdorff_bounds_ordering_and_scaling():
    lo1, up1 = hausdorff_bounds(ORIGIN, 1.0, 0.2, seed=0, n_samples=20000)
    assert 0.0 < lo1 <= up1
    # exact radius^4 scaling of both bounds
    lo2, up2 = hausdorff_bounds(ORIGIN, 2.0, 0.4, seed=0, n_samples=20000)
    assert abs(lo2 - 16.0 * lo1) < 1e-9 * lo2
    assert abs(up2 - 16.0 * up1) < 1e-9 * up2
    with pytest.raises(ValueError):
        hausdorff_bounds(ORIGIN, 1.0, 0.6, seed=0)
    with pytest.raises(ValueError):
        hausdorff_bounds(ORIGIN, -1.0, 0.1, seed=0)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_samples"):
            hausdorff_bounds(ORIGIN, 1.0, 0.1, seed=0, n_samples=n)
        with pytest.raises(ValueError, match="n_samples"):
            dimension_probe(ORIGIN, 1.0, [4], seed=0, n_samples=n)


def test_unit_ball_volume_matches_mpmath_quad():
    # the same profile, r = sin(phi/2)/(phi/2) and f = (phi - sin phi)/(2 phi^2),
    # integrated by mpmath at 30 digits
    with mp.workdps(30):

        def integrand(phi):
            h = phi / 2
            r = mp.sin(h) / h
            f = (phi - mp.sin(phi)) / (2 * phi * phi)
            return 4 * mp.pi * r * f * abs(mp.diff(lambda t: mp.sin(t / 2) / (t / 2), phi))

        exact = mp.quad(integrand, [0, mp.pi, 2 * mp.pi])
    assert abs(_unit_ball_volume() - float(exact)) <= 1e-14


def test_hausdorff_upper_is_the_d4_cover_sum():
    deltas = [0.4, 0.2, 0.1]
    rep = dimension_probe(ORIGIN, 1.0, [4], seed=1, n_samples=5000, deltas=deltas)
    lowers = {rep["lower"]}
    for delta, s4 in zip(deltas, rep["dims"][4.0]["sums"]):
        lower, upper = hausdorff_bounds(ORIGIN, 1.0, delta, seed=1, n_samples=5000)
        assert upper == s4
        lowers.add(lower)
    # the lower bound is the exact ball volume, the same for every seed
    lowers.add(hausdorff_bounds(ORIGIN, 1.0, 0.4, seed=2, n_samples=5000)[0])
    assert lowers == {_unit_ball_volume() / UNIT_DIAMOND_VOLUME}


def test_dimension_probe_trends_small():
    # 20k samples saturate the delta = 0.05 net, so probe the first three
    # scales only; the acceptance run uses the full resolution
    rep = dimension_probe(
        ORIGIN, 1.0, [3, 4, 5], seed=0, n_samples=20000, deltas=[0.4, 0.2, 0.1]
    )
    assert rep["deltas"] == [0.4, 0.2, 0.1]
    assert all(a < b for a, b in zip(rep["net_sizes"], rep["net_sizes"][1:]))
    assert rep["dims"][3.0]["trend"] == "diverging"
    assert rep["dims"][4.0]["trend"] == "stable"
    assert rep["dims"][5.0]["trend"] == "vanishing"


def _sequential_net(pts, delta):
    # point-by-point greedy in sample order with the net's pair test: chord
    # <= delta, then the exact distance of the displacement k^-1 c from each
    # kept point k <= delta.  The pairs of a run of 256 candidates with the
    # points kept before it and with each other are tested in one call.
    kept = []
    for b0 in range(0, len(pts), 256):
        run = np.arange(b0, min(len(pts), b0 + 256))
        c, k = (a.ravel() for a in np.meshgrid(run, np.array(kept + run.tolist(), dtype=np.intp)))
        c, k = c[k < c], k[k < c]
        cx, cy, cz = pts[c].T
        kx, ky, kz = pts[k].T
        dx = cx - kx
        dy = cy - ky
        near = dx * dx + dy * dy <= delta * delta
        zrel = cz[near] - kz[near] + 0.5 * (cx[near] * ky[near] - kx[near] * cy[near])
        rel = np.column_stack([dx[near], dy[near], zrel])
        within = _distance_from_origin(rel) <= delta
        partners = {}
        for i, j in zip(c[near][within].tolist(), k[near][within].tolist()):
            partners.setdefault(i, []).append(j)
        kept_set = set(kept)
        for i in run.tolist():
            if not any(j in kept_set for j in partners.get(i, ())):
                kept.append(i)
                kept_set.add(i)
    return np.array(kept, dtype=np.intp)


@pytest.mark.parametrize("delta", [0.4, 0.2, 0.1, 0.05, 0.02])
def test_blocked_net_matches_sequential_greedy(delta):
    pts = np.array(_half_ball_points(0, 3000))
    got = _net_indices(pts, delta)
    assert np.array_equal(got, _sequential_net(pts, delta))
    assert _greedy_net(pts, delta) == len(got)


def test_block_survivors_are_searched_through_the_windows(monkeypatch):
    # a first block of 512 points has 512 * 511 / 2 = 130,816 pairs; at
    # delta = 0.05 the windows hand _net_conflicts fewer than 1 % of them
    sent = []
    test = measure._net_conflicts

    def counted(x, y, z, ci, ki, delta):
        sent.append(len(ci))
        return test(x, y, z, ci, ki, delta)

    monkeypatch.setattr(measure, "_net_conflicts", counted)
    pts = np.array(_half_ball_points(0, 512))
    got = _net_indices(pts, 0.05)
    assert sum(sent) < 0.01 * 130816
    assert np.array_equal(got, _sequential_net(pts, 0.05))


@pytest.mark.parametrize("move", ["translated", "dilated"])
@pytest.mark.parametrize("delta", [0.4, 0.2, 0.1, 0.05, 0.02])
def test_blocked_net_matches_sequential_greedy_moved(delta, move):
    # the sample left-translated far from the origin, where the area
    # coordinate is about 1e6 and rounds by 1e-10, or dilated, with delta
    pts = np.array(_half_ball_points(0, 3000))
    if move == "translated":
        pts, lam = np.column_stack(group_mul(Event(1e3, -7e2, 5e5), pts.T)), 1.0
    else:
        pts, lam = np.column_stack(dilate(1e-3, pts.T)), 1e-3
    got = _net_indices(pts, lam * delta)
    assert np.array_equal(got, _sequential_net(pts, lam * delta))


def _unfiltered_half_ball(seed, n):
    # the half-ball rule without the pre-test: the exact distance on every draw
    out, got = [], 0
    for i in range(200):
        pts = uniform_box([seed, i], (-0.5, -0.5, -0.25), (0.5, 0.5, 0.25), max(2 * n, 65536))
        out.append(pts[_distance_from_origin(pts) <= 0.5])
        got += len(out[-1])
        if got >= n:
            break
    return np.concatenate(out)[:n]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_half_ball_pretest_keeps_the_exact_sample(seed):
    pts = _half_ball_points(seed, 5000)
    assert np.array_equal(pts, _unfiltered_half_ball(seed, 5000))


def test_half_ball_pretest_bounds_are_attained():
    # both bounds of the pre-test touch the sphere of radius 1/2: the segment
    # to a point of chord 1/2, and the semicircle of length 1/2, which ends
    # at chord 1/pi and encloses 1/(8 pi)
    theta = np.linspace(0.0, 2.0 * math.pi, 7)
    ends = [(0.5, 0.0), (1.0 / math.pi, 1.0 / (8.0 * math.pi))]
    pts = np.array([(c * np.cos(t), c * np.sin(t), z) for c, z in ends for t in theta])
    assert np.allclose(_distance_from_origin(pts), 0.5, rtol=1e-15, atol=0.0)


def _arc_ratio_and_stretch(h, ctx=mp):
    # m = |z| / chord^2 and H = (d / chord)^2 - 1 of the arc of half-turn h
    s = ctx.sin(h)
    return (2 * h - ctx.sin(2 * h)) / (8 * s * s), (h / s) ** 2 - 1


def _dido_bound(m, k, ctx=mp):
    return 12 * m * m / ctx.sqrt(1 + k * m * m)


def test_two_sided_dido_bound_at_50_digits():
    # 12 m^2 / sqrt(1 + 6 m^2) < H < 12 m^2 / sqrt(1 + 0.9 m^2), the bounds
    # of measure._ball_test, over h in (0, pi), dense at both ends
    with mp.workdps(50):
        ends = [mp.mpf(10) ** e for e in np.linspace(-10.0, 0.0, 201)]
        hs = ends + [mp.pi - e for e in ends] + [mp.pi * k / 1000 for k in range(1, 1000)]
        for h in hs:
            m, H = _arc_ratio_and_stretch(h)
            assert _dido_bound(m, 6) < H < _dido_bound(m, 0.9), h


def test_two_sided_dido_bound_in_interval_arithmetic():
    # A proof of both bounds for every h in (0, pi).  As m, H > 0 they say
    # 0.9 <= K <= 6, K = (144 m^4 / H^2 - 1) / m^2.  With s = sin h, N = 2h -
    # sin 2h = 8 m s^2 and D = h^2 - s^2 = H s^2, K = (9/4) N^2 / D^2 -
    # 64 s^4 / N^2, which interval arithmetic encloses tightly on [1.5, pi].
    # Below, both terms grow like 36 / h^2 and cancel.  There, with t =
    # (2h)^2, N = (2h)^3 sig(t), 2 s^2 = (2h)^2 gam(t) and 2 D = (2h)^4 eps(t)
    # for sig = sum (-t)^j / (2j + 3)!, gam = sum (-t)^j / (2j + 2)! and eps =
    # sum (-t)^j / (2j + 4)!, and K = phi (3 sig^2 + 4 gam eps) / (eps^2 sig^2)
    # with t phi = 3 sig^2 - 4 gam eps, whose constant terms cancel exactly.
    # The series are summed in rationals to t^(M-1), on t in [0, 9]; past it
    # each term is below half the one before, so twice the first one left
    # bounds the rest, and t^n in 3 sig^2 - 4 gam eps is at most 7 2^(2n+6)
    # / (2n+6)! (a sub-sum of the binomial expansion of 2^(2n+6) / (2n+6)!).
    from fractions import Fraction

    iv = mp.iv
    M, T = 30, 9.0

    def series(shift):
        return [Fraction((-1) ** j, math.factorial(2 * j + shift)) for j in range(M)]

    def times(p, q):
        return [sum(p[i] * q[n - i] for i in range(n + 1)) for n in range(M)]

    sig, gam, eps = series(3), series(2), series(4)
    diff = [3 * u - 4 * v for u, v in zip(times(sig, sig), times(gam, eps))]
    assert diff[0] == 0
    tail = {
        "sig": 2 * T ** M / math.factorial(2 * M + 3),
        "gam": 2 * T ** M / math.factorial(2 * M + 2),
        "eps": 2 * T ** M / math.factorial(2 * M + 4),
        "phi": 2 * 7 * 2 ** (2 * M + 6) * T ** (M - 1) / math.factorial(2 * M + 6),
    }

    def enclose(coefs, t, rest):
        acc = iv.mpf(0)
        for u in reversed(coefs):
            acc = acc * t + iv.mpf(u.numerator) / u.denominator
        return acc + iv.mpf([-rest, rest])

    def near(t):
        S, G, E = (enclose(c, t, tail[k]) for c, k in ((sig, "sig"), (gam, "gam"), (eps, "eps")))
        return enclose(diff[1:], t, tail["phi"]) * (3 * S * S + 4 * G * E) / (E * E * S * S)

    def far(h):
        s = iv.sin(h)
        N = 2 * h - iv.sin(2 * h)
        D = h * h - s * s
        return iv.mpf(9) / 4 * N * N / (D * D) - 64 * s ** 4 / (N * N)

    # h in [0, 1.5] is t in [0, 9]; pi.b is the upper end of pi's enclosure
    for f, a, b in ((near, 0.0, T), (far, 1.5, iv.pi.b)):
        todo = [(mp.mpf(a), mp.mpf(b))]
        while todo:
            a, b = todo.pop()
            k = f(iv.mpf([a, b]))
            if not (0.9 <= k.a and k.b <= 6):
                assert b - a > 1e-9, (a, b, k)
                todo += [(a, (a + b) / 2), ((a + b) / 2, b)]


def test_net_conflicts_decide_knife_edge_pairs_exactly():
    # pairs at exact distance delta (1 -+ 1e-10) from a point at the origin,
    # m = |z| / chord^2 over logspace(-6, 2), in turning directions and both
    # signs of z: each first one clashes and each second one does not
    delta = 0.1
    rows = [[0.0, 0.0, 0.0]]
    with mp.workdps(40):
        for i, m in enumerate(np.logspace(-6.0, 2.0, 161)):
            start = 0.5 * float(_solve_arc_angle(m))
            h = mp.findroot(lambda h: _arc_ratio_and_stretch(h)[0] - m, start)
            for side in (-1, 1):
                c = delta * (1 + side * mp.mpf(10) ** -10) * mp.sin(h) / h
                rows.append([c * mp.cos(i), c * mp.sin(i), (-1) ** i * m * c * c])
    x, y, z = (np.array([float(r[j]) for r in rows]) for j in range(3))
    ci = np.arange(1, len(rows))
    got = measure._net_conflicts(x, y, z, ci, np.zeros_like(ci), delta)
    assert np.array_equal(got, np.arange(0, len(ci), 2))


def test_net_pair_test_is_left_invariant():
    # d(k, c) = |k^-1 c| = 0.4659, while |c k^-1| = 0.1784: at delta = 0.4
    # both points are kept
    k, c = Event(0.3, 0.0, 0.01), Event(0.3, 0.1, 0.0)
    assert abs(sr_distance(k, c) - 0.4659) < 1e-4
    assert abs(sr_distance(ORIGIN, group_mul(c, Event(-0.3, 0.0, -0.01))) - 0.1784) < 1e-4
    pts = np.array([k, c])
    assert np.array_equal(_net_indices(pts, 0.4), [0, 1])
    assert np.array_equal(_sequential_net(pts, 0.4), [0, 1])


@pytest.mark.parametrize("delta", [0.4, 0.2, 0.1, 0.05])
def test_net_matches_greedy_on_sr_distance(delta):
    # a point-by-point greedy on the exact, left-invariant sr_distance, its
    # earlier kept points tried nearest chord first
    pts = np.array(_half_ball_points(0, 2000))
    kept = []
    for i, c in enumerate(pts):
        k = pts[kept]
        chord = np.hypot(k[:, 0] - c[0], k[:, 1] - c[1])
        near = np.flatnonzero(chord <= delta)
        if not any(sr_distance(pts[kept[j]], c) <= delta for j in near[np.argsort(chord[near])]):
            kept.append(i)
    assert np.array_equal(_net_indices(pts, delta), kept)


def test_blocked_net_duplicates_and_lattice_ties():
    rng = np.random.default_rng(4)
    delta = 0.1
    # points spaced exactly delta along grid lines, and a planar lattice of
    # spacing delta, so that chords sit on the threshold and on cell edges
    line = np.column_stack([-0.3 + delta * np.arange(12), np.zeros(12), np.zeros(12)])
    col = np.column_stack([np.full(12, 0.05), 0.7 - delta * np.arange(12), np.zeros(12)])
    gx, gy = np.meshgrid(delta * np.arange(25), delta * np.arange(25))
    lattice = np.column_stack([gx.ravel(), gy.ravel(), rng.uniform(-1e-3, 1e-3, 625)])
    base = np.concatenate([line, col, lattice, np.array(_half_ball_points(0, 600))])
    # every point twice, once next to itself and once far down the order
    pts = np.concatenate([np.repeat(base, 2, axis=0), base[rng.permutation(len(base))]])
    # and an empty sample, which keeps nothing
    for p in (pts, pts[rng.permutation(len(pts))], pts[:0]):
        assert np.array_equal(_net_indices(p, delta), _sequential_net(p, delta))
