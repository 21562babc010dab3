"""Acceptance criteria.

Each test evaluates one numbered criterion at its stated tolerance and prints
one line: "CRITERION n: PASS" or "CRITERION n: FAIL(reason)".  The criteria
are checked exactly as stated; two of them (1 and 11) demand accuracies that
float64 or the maths cannot give for this problem (see the Tests section of
README.md), and they are left to fail honestly rather than weakened.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from heislor import sr_metric
from heislor.curvature import (
    juillet_contradiction,
    midpoint_det_check,
    tmcp_violation_report,
)
from heislor.geodesics import (
    GeoParam,
    NotChronologicalError,
    cut_additivity_check,
    exp_jacobian_det,
    exp_point,
    log,
    tau,
)
from heislor.heisenberg_core import (
    ORIGIN,
    Event,
    dilate,
    group_mul,
    lorentzian_length,
    make_curve,
    signed_area,
)
from heislor.measure import (
    UNIT_DIAMOND_VOLUME,
    diamond_volume_closed,
    diamond_volume_mc,
    dimension_probe,
    growth_ratio_scan,
    hausdorff_bounds,
)
from heislor.minkowski_iso import (
    CASE_HYPERBOLA,
    IsoProblem,
    hyperbola_ordinate,
    sample_solution,
    solve,
)
from heislor.sr_metric import diamond_in_box_check


def report(n, ok, reason=""):
    line = f"CRITERION {n}: " + ("PASS" if ok else f"FAIL({reason})")
    print(line, flush=True)


def test_criterion_01_exponential_round_trip():
    # 1000 random params, u in [0.1, 10], |v| <= 0.99 u, |w| <= 20;
    # relative round-trip error <= 1e-8; runtime < 5 s
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    worst_param = None
    for _ in range(1000):
        u = rng.uniform(0.1, 10.0)
        v = rng.uniform(-0.99, 0.99) * u
        w = rng.uniform(-20.0, 20.0)
        param = GeoParam(u, v, w)
        scale = max(abs(u), abs(v), abs(w))
        try:
            back = log(exp_point(param, 1.0))
            err = max(abs(a - b) for a, b in zip(param, back)) / scale
        except NotChronologicalError:
            err = math.inf
        if err > worst:
            worst = err
            worst_param = param
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(1, ok, f"worst rel err {worst:.3g} at {worst_param}, {elapsed:.1f}s")
    assert elapsed < 5.0
    assert worst <= 1e-8


def _mp_exp(u, v, w, t):
    wt = w * t
    sh = mp.sinh(wt)
    c1 = mp.cosh(wt) - 1
    x = (v * c1 + u * sh) / w
    y = (v * sh + u * c1) / w
    z = (u * u - v * v) * (sh - wt) / (2 * w * w)
    return (x, y, z)


def _mp_fd_det(u, v, w, t):
    # central-difference Jacobian determinant at 50 significant digits; the
    # float64 version is hopeless here because the determinant's conditioning
    # grows like e^{2|wt|}
    with mp.workdps(50):
        u, v, w, t = map(mp.mpf, (u, v, w, t))
        h = mp.mpf(10) ** -20
        m = []
        for i in range(3):
            d = [mp.mpf(0)] * 3
            d[i] = h
            hi = _mp_exp(u + d[0], v + d[1], w + d[2], t)
            lo = _mp_exp(u - d[0], v - d[1], w - d[2], t)
            m.append([(a - b) / (2 * h) for a, b in zip(hi, lo)])
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[1][0] * (m[0][1] * m[2][2] - m[0][2] * m[2][1])
            + m[2][0] * (m[0][1] * m[1][2] - m[0][2] * m[1][1])
        )
        return float(det)


def test_criterion_02_jacobian_formula():
    # finite differences vs closed form, relative 1e-5, on the criterion-1
    # grid plus explicit series-branch points |wt| < 1e-3
    rng = np.random.default_rng(101)
    params = []
    for _ in range(1000):
        u = rng.uniform(0.1, 10.0)
        v = rng.uniform(-0.99, 0.99) * u
        w = rng.uniform(-20.0, 20.0)
        params.append((u, v, w))
    params += [(1.0, 0.3, 5e-4), (2.0, -0.5, -9e-4), (0.5, 0.1, 2e-4)]
    worst = 0.0
    for u, v, w in params:
        closed = exp_jacobian_det(GeoParam(u, v, w), 1.0)
        fd = _mp_fd_det(u, v, w, 1.0)
        worst = max(worst, abs(fd - closed) / abs(fd))
    ok = worst <= 1e-5
    report(2, ok, f"worst rel err {worst:.3g}")
    assert worst <= 1e-5


def test_criterion_03_diamond_volume_constant():
    closed = diamond_volume_closed(ORIGIN, Event(1.0, 0.0, 0.0))
    const_err = abs(closed - (2.0 * math.log(2.0) - 1.0) / 32.0)
    est = diamond_volume_mc(ORIGIN, Event(1.0, 0.0, 0.0), 1_000_000, seed=33)
    mc_dev = abs(est.value - closed)
    ok = const_err <= 1e-12 and mc_dev <= 3.0 * est.stderr
    report(3, ok, f"const err {const_err:.2g}, mc dev {mc_dev:.3g} vs 3se {3*est.stderr:.3g}")
    assert const_err <= 1e-12
    assert mc_dev <= 3.0 * est.stderr


def test_criterion_04_midpoint_determinant():
    numeric, analytic = midpoint_det_check()
    rep = juillet_contradiction()
    det_err = abs(numeric - 1.0 / 32.0)
    ok = (
        det_err <= 1e-4
        and rep["statement"] == "2^3 * (1/32) = 1/4 < 1"
        and rep["juillet_bound"] < rep["bm_rhs"]
    )
    report(4, ok, f"|det - 1/32| = {det_err:.3g}")
    assert det_err <= 1e-4
    assert analytic == 1.0 / 32.0
    assert rep["statement"] == "2^3 * (1/32) = 1/4 < 1"
    assert rep["juillet_bound"] < rep["bm_rhs"]


def test_criterion_05_tmcp_witnesses():
    t0 = time.time()
    missing = []
    for t in (0.25, 0.5, 0.75):
        for N in (1, 2, 5, 10):
            rep = tmcp_violation_report(t, N)
            if not rep.get("found"):
                missing.append((t, N))
            else:
                assert rep["ratio"] < rep["threshold"]
    elapsed = time.time() - t0
    ok = not missing and elapsed < 1.0
    report(5, ok, f"missing {missing}, {elapsed:.2f}s")
    assert not missing
    assert elapsed < 1.0


def test_criterion_06_isoperimetric_solver():
    # 500 random feasible problems: discrete area within 1e-6 T^2 at 1e4
    # samples; for hyperbola cases, 50 admissible perturbations each are
    # strictly shorter (1e-9 slack)
    rng = np.random.default_rng(66)
    n = 10000
    worst_area = 0.0
    worst_excess = -math.inf
    n_hyp = 0
    for _ in range(500):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(-0.9, 0.9) * a
        T2 = (a - b) * (a + b)
        c = rng.uniform(-0.999, 0.999) * T2 / 4.0
        prob = IsoProblem(a, b, c)
        sol = solve(prob)
        curve = sample_solution(sol, prob, n)
        area = signed_area(make_curve(curve.times, curve.points))
        worst_area = max(worst_area, abs(area - c) / T2)
        if sol.case != CASE_HYPERBOLA or n_hyp >= 40:
            continue
        n_hyp += 1
        # perturb the graph in the boosted frame by zero-mean sine modes,
        # slope-limited to stay causal; endpoints and enclosed area persist
        T = sol.T
        xs = np.linspace(0.0, T, n)
        f = -hyperbola_ordinate(sol.y_c, T, xs)
        fp_max = float(np.max(np.abs(np.diff(f) / np.diff(xs))))
        best_len = lorentzian_length(make_curve(curve.times, curve.points))
        for _k in range(50):
            coef = rng.uniform(-1.0, 1.0, 3)
            phi = sum(
                cj * np.sin(2.0 * math.pi * (j + 1) * xs / T)
                for j, cj in enumerate(coef)
            )
            dphi_max = float(
                np.max(np.abs(sum(
                    cj * 2.0 * math.pi * (j + 1) / T
                    * np.cos(2.0 * math.pi * (j + 1) * xs / T)
                    for j, cj in enumerate(coef)
                )))
            )
            s = 0.5 * (1.0 - fp_max) / max(dphi_max, 1e-12)
            pts_axis = np.column_stack([xs, f + s * phi])
            ch, sh = a / sol.T, b / sol.T  # the inverse boost of boost_to_axis
            pts = pts_axis @ np.array([[ch, sh], [sh, ch]]).T
            length = lorentzian_length(make_curve(xs, pts))
            worst_excess = max(worst_excess, length - best_len)
    ok = worst_area <= 1e-6 and worst_excess < -1e-9
    report(6, ok, f"worst area err {worst_area:.3g} T^2, worst length excess {worst_excess:.3g}")
    assert worst_area <= 1e-6
    assert worst_excess < -1e-9  # strictly shorter with slack


def test_criterion_07_tau_invariances():
    # reverse triangle inequality, left-invariance, dilation homogeneity on
    # 1e4 random configurations, tolerance 1e-10
    rng = np.random.default_rng(77)
    worst_tri = -math.inf
    worst_inv = 0.0
    worst_hom = 0.0
    for _ in range(10000):
        g = Event(*rng.normal(0.0, 2.0, 3))
        p = Event(*rng.normal(0.0, 2.0, 3))
        u1 = rng.uniform(0.1, 3.0)
        par1 = GeoParam(u1, rng.uniform(-0.95, 0.95) * u1, rng.uniform(-5.0, 5.0))
        u2 = rng.uniform(0.1, 3.0)
        par2 = GeoParam(u2, rng.uniform(-0.95, 0.95) * u2, rng.uniform(-5.0, 5.0))
        q = group_mul(p, exp_point(par1, 1.0))
        r = group_mul(q, exp_point(par2, 1.0))
        t_pq, t_qr, t_pr = tau(p, q), tau(q, r), tau(p, r)
        scale = max(t_pr, 1.0)
        # reverse triangle inequality: tau(p,r) >= tau(p,q) + tau(q,r)
        worst_tri = max(worst_tri, (t_pq + t_qr - t_pr) / scale)
        worst_inv = max(
            worst_inv, abs(tau(group_mul(g, p), group_mul(g, q)) - t_pq) / max(t_pq, 1.0)
        )
        lam = rng.uniform(0.2, 4.0)
        e1 = exp_point(par1, 1.0)
        t_e1 = tau(ORIGIN, e1)
        worst_hom = max(
            worst_hom,
            abs(tau(ORIGIN, dilate(lam, e1)) - lam * t_e1) / max(lam * t_e1, 1.0),
        )
    ok = worst_tri <= 1e-10 and worst_inv <= 1e-10 and worst_hom <= 1e-10
    report(7, ok, f"tri {worst_tri:.2g}, inv {worst_inv:.2g}, hom {worst_hom:.2g}")
    assert worst_tri <= 1e-10
    assert worst_inv <= 1e-10
    assert worst_hom <= 1e-10


def test_criterion_08_diamond_box():
    rng = np.random.default_rng(88)
    violations = 0
    total = 0
    for i in range(20):
        u = rng.uniform(0.3, 3.0)
        v = rng.uniform(-0.9, 0.9) * u
        w = rng.uniform(-4.0, 4.0)
        q = exp_point(GeoParam(u, v, w), 1.0)
        rep = diamond_in_box_check(ORIGIN, q, 100000, seed=1000 + i)
        total += rep["samples"]
        if not rep["inclusion_pass"]:
            violations += len(rep["violations"])
    ok = violations == 0 and total == 20 * 100000
    report(8, ok, f"{violations} violations over {total} samples")
    assert total == 20 * 100000
    assert violations == 0


def test_criterion_09_cut_additivity():
    rng = np.random.default_rng(99)
    failures = 0
    for _ in range(1000):
        u = rng.uniform(0.1, 5.0)
        v = rng.uniform(-0.95, 0.95) * u
        w = rng.uniform(-6.0, 6.0)
        t1, t2, t3 = np.sort(rng.uniform(0.0, 1.5, 3))
        if not t1 < t2 < t3:
            t1, t2, t3 = 0.1, 0.5, 1.0
        if not cut_additivity_check(GeoParam(u, v, w), t1, t2, t3):
            failures += 1
    ok = failures == 0
    report(9, ok, f"{failures} failing triples")
    assert failures == 0


def test_criterion_10_hausdorff_dimension_probe():
    # the same cold work in any test order: drop what earlier tests cached
    sr_metric.unit_diamond_inner_radius.cache_clear()
    t0 = time.perf_counter()
    probe = dimension_probe(ORIGIN, 1.0, [3, 4, 5], seed=0, n_samples=100000)
    s3 = probe["dims"][3.0]["sums"]
    s4 = probe["dims"][4.0]["sums"]
    s5 = probe["dims"][5.0]["sums"]
    # the upper bound at each delta is the probe's d = 4 cover sum, and
    # hausdorff_bounds reports the probe's lower bound and that sum
    bound_ok = all(probe["lower"] <= up for up in s4)
    first = hausdorff_bounds(ORIGIN, 1.0, probe["deltas"][0], seed=0, n_samples=100000)
    bound_ok = bound_ok and first == (probe["lower"], s4[0])
    elapsed = time.perf_counter() - t0
    r4 = probe["dims"][4.0]["ratios"]
    d4_ok = all(0.5 <= r <= 2.0 for r in r4)
    d3_ok = all(a < b for a, b in zip(s3, s3[1:]))
    d5_ok = all(a > b for a, b in zip(s5, s5[1:]))
    ok = d4_ok and d3_ok and d5_ok and bound_ok and elapsed < 60.0
    report(
        10,
        ok,
        f"d4 ratios {['%.3f' % r for r in r4]}, d3 up {d3_ok}, d5 down {d5_ok}, "
        f"bounds {bound_ok}, {elapsed:.1f}s",
    )
    assert d4_ok  # within a factor 2 across each of the three halvings
    assert d3_ok and d5_ok
    assert bound_ok
    assert elapsed < 60.0


def test_criterion_11_unit_diamond_volume_decay():
    ws = np.linspace(-50.0, 50.0, 401)
    scan = growth_ratio_scan(ws)
    vals = np.array([v for _, v in scan])
    even = bool(np.allclose(vals, vals[::-1], rtol=1e-12))
    peak_at_zero = int(np.argmax(vals)) == 200
    tail = max(vals[0], vals[-1])
    decay_ok = tail < 1e-6
    ok = even and peak_at_zero and decay_ok
    report(11, ok, f"even {even}, peak@0 {peak_at_zero}, vol(|w|=50) = {tail:.3g}")
    assert even
    assert peak_at_zero
    assert vals[200] == UNIT_DIAMOND_VOLUME
    assert decay_ok
