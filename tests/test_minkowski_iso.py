"""Planar Lorentzian isoperimetric solver."""

import math

import mpmath as mp
import numpy as np
import pytest

from heislor.geodesics import tau
from heislor.heisenberg_core import ORIGIN, Event, lorentzian_length, make_curve, signed_area
from heislor.minkowski_iso import (
    CASE_BROKEN_NULL,
    CASE_EMPTY,
    CASE_HYPERBOLA,
    CASE_TIMELIKE_LINE,
    IsoProblem,
    NoSolutionError,
    _dido_ratio,
    _odd_tail,
    _solve_bending,
    boost_to_axis,
    hyperbola_area,
    hyperbola_ordinate,
    sample_solution,
    solve,
)


def test_classify_cases():
    # the classification of the endpoint/area data is solve(prob).case
    assert solve(IsoProblem(-1.0, 0.0, 0.0)).case == CASE_EMPTY
    assert solve(IsoProblem(1.0, 2.0, 0.0)).case == CASE_EMPTY
    assert solve(IsoProblem(2.0, 0.0, 1.5)).case == CASE_EMPTY  # |c| > T^2/4
    assert solve(IsoProblem(2.0, 0.0, 0.0)).case == CASE_TIMELIKE_LINE
    assert solve(IsoProblem(2.0, 0.0, 1.0)).case == CASE_BROKEN_NULL
    assert solve(IsoProblem(2.0, 0.0, -1.0)).case == CASE_BROKEN_NULL
    assert solve(IsoProblem(2.0, 0.0, 0.5)).case == CASE_HYPERBOLA
    # null endpoint: only the zero-area straight null segment exists
    assert solve(IsoProblem(1.0, 1.0, 0.0)).case == CASE_BROKEN_NULL
    assert solve(IsoProblem(1.0, 1.0, 0.1)).case == CASE_EMPTY
    # an area within rounding of 0 is 0, as for the causal predicate, and the
    # zero endpoint is on the cone
    assert solve(IsoProblem(1.0, 1.0, 2.8e-17)).case == CASE_BROKEN_NULL
    assert solve(IsoProblem(0.0, 0.0, 0.0)).case == CASE_BROKEN_NULL


def _boost_matrices(ch, sh):
    # the boost of boost_to_axis and its stated inverse
    return np.array([[ch, -sh], [-sh, ch]]), np.array([[ch, sh], [sh, ch]])


def test_boost_to_axis_properties():
    ch, sh, T = boost_to_axis(2.0, 1.2)
    boost, inverse = _boost_matrices(ch, sh)
    assert abs(T - math.sqrt(4.0 - 1.44)) < 1e-15
    img = boost @ np.array([2.0, 1.2])
    assert abs(img[0] - T) < 1e-12 and abs(img[1]) < 1e-12
    assert abs(np.linalg.det(boost) - 1.0) < 1e-12
    # inverse really inverts
    assert np.allclose(inverse @ boost, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        boost_to_axis(1.0, 1.0)


def test_boost_preserves_quadratic_form():
    boost, _ = _boost_matrices(*boost_to_axis(3.0, -2.0)[:2])
    for xy in [(1.0, 0.3), (0.5, -2.0), (4.0, 4.0)]:
        u, v = boost @ np.array(xy)
        q0 = -xy[0] ** 2 + xy[1] ** 2
        q1 = -u * u + v * v
        assert abs(q0 - q1) < 1e-10


def test_hyperbola_ordinate_endpoints_and_vertex():
    T, y_c = 2.0, 1.5
    assert abs(hyperbola_ordinate(y_c, T, 0.0)) < 1e-12
    assert abs(hyperbola_ordinate(y_c, T, T)) < 1e-12
    k = math.sqrt(y_c * y_c - T * T / 4.0)
    assert abs(hyperbola_ordinate(y_c, T, T / 2.0) - (y_c - k)) < 1e-12
    with pytest.raises(ValueError):
        hyperbola_ordinate(0.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        hyperbola_ordinate(1.5, 2.0, 2.5)


def test_hyperbola_area_against_quadrature_oracle():
    # frozen values cross-checked against adaptive quadrature of the ordinate
    assert abs(hyperbola_area(1.5, 2.0) - 0.4941013047286873) < 1e-13
    assert abs(hyperbola_area(-1.2, 2.0) + 0.6724630399843586) < 1e-13
    assert abs(hyperbola_area(3.0, 1.0) - 0.027933964782193486) < 1e-14


def test_hyperbola_area_degenerate_limit():
    # y_c -> T/2: the arc degenerates to the broken line, area T^2/4
    T = 2.0
    assert abs(hyperbola_area(T / 2.0, T) - T * T / 4.0) < 1e-12
    assert abs(hyperbola_area(T / 2.0 * (1.0 + 1e-12), T) - T * T / 4.0) < 1e-9


def test_solve_vertex_oracle_and_residual():
    # frozen value confirmed by a 2e6-point scan of the closed-form area
    sol = solve(IsoProblem(2.0, 0.0, 0.5))
    assert abs(sol.y_c - 1.485948688399008) < 1e-9
    assert abs(hyperbola_area(sol.y_c, 2.0) - 0.5) < 1e-15
    # negative area mirrors the vertex
    assert solve(IsoProblem(2.0, 0.0, -0.5)).y_c == -sol.y_c


def test_solve_vertex_inverts_area():
    # the vertex encloses the target area to 1e-9 relative at every scale of
    # c / T^2, including areas far below the chord's square
    for ratio in [1e-12, 1e-10, 1e-9, 1e-7, 1e-5, 2.2e-5, 5e-5, 1e-4, 1e-2, 0.1, 0.24, 0.2499]:
        for c0 in (ratio, -ratio):
            for a, b in [(2.0, 0.0), (0.3, 0.1), (50.0, -41.0)]:
                sol = solve(IsoProblem(a, b, c0 * (a - b) * (a + b)))
                c = c0 * sol.T * sol.T
                assert sol.case == CASE_HYPERBOLA
                assert abs(hyperbola_area(sol.y_c, sol.T) - c) <= 1e-9 * abs(c), (ratio, a, b)


EPS = np.finfo(float).eps


@pytest.mark.parametrize("circ", [False, True])
def test_dido_kernel_matches_mpmath(circ):
    # the odd tail and the ratio, as floats and as arrays, to 4 eps of
    # 40-digit values; the circular reference is the hyperbolic formula at
    # i phi, R(i phi) = i R_circ(phi)
    x = np.logspace(-8.0, math.log10(6.0 if circ else 40.0), 600)
    if not circ:
        x = np.concatenate([-x, x])
    tails = _odd_tail(x, circ)
    ratios = _dido_ratio(x, circ)[0]
    with mp.workdps(40):
        for xi, tail_a, ratio_a in zip(x, tails, ratios):
            X = mp.mpf(float(xi))
            if circ:
                ratio = (mp.sinh(1j * X) - 1j * X) / (8 * mp.sinh(1j * X / 2) ** 2) / 1j
                assert abs(ratio.imag) <= 1e-35 * abs(ratio)
                ratio = ratio.real
                tail = X - mp.sin(X)
                assert abs(ratio - tail / (8 * mp.sin(X / 2) ** 2)) <= 1e-35 * ratio
            else:
                tail = mp.sinh(X) - X
                ratio = tail / (8 * mp.sinh(X / 2) ** 2)
            for t, r in [(_odd_tail(float(xi), circ), _dido_ratio(float(xi), circ)[0]), (tail_a, ratio_a)]:
                assert abs(t - tail) <= 4 * EPS * abs(tail), (xi, circ)
                assert abs(r - ratio) <= 4 * EPS * abs(ratio), (xi, circ)


def test_solve_bending_matches_40_digit_roots():
    # median and largest relative error against 40-digit roots of
    # R(w) = zt, |zt| <= 0.2, within those of the bisection this solve
    # replaced, on the same draws: 0.6744 and 4.5898 eps, rounded up (the
    # Newton solve: 0.5999 and 4.4910)
    rng = np.random.default_rng(1)
    zts = np.concatenate(
        [
            rng.uniform(-0.2, 0.2, 1000),
            rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-9.0, math.log10(0.2), 1000),
        ]
    )
    err = []
    with mp.workdps(40):
        for zt in zts:
            w = _solve_bending(float(zt))
            z, root = mp.mpf(float(zt)), mp.mpf(w)
            for _ in range(3):  # Newton on sinh w - w - 8 zt sinh^2(w/2)
                s, c = mp.sinh(root / 2), mp.cosh(root / 2)
                root -= (mp.sinh(root) - root - 8 * z * s * s) / (mp.cosh(root) - 1 - 8 * z * s * c)
            err.append(float(abs(w - root) / abs(root)) / EPS)
    assert np.median(err) <= 0.675 and max(err) <= 4.59


def test_solve_length_equals_tau():
    # the Dido maximizer lifts to the geodesic: one length, bit for bit
    rng = np.random.default_rng(3)
    for _ in range(500):
        T = 10.0 ** rng.uniform(-3.0, 3.0)
        eta = rng.uniform(-3.0, 3.0)
        a, b = T * math.cosh(eta), T * math.sinh(eta)
        c = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, math.log10(0.2499)) * T * T
        sol = solve(IsoProblem(a, b, c))
        assert sol.case == CASE_HYPERBOLA
        assert sol.max_length == tau(ORIGIN, Event(a, b, c))


def test_solve_timelike_line():
    prob = IsoProblem(2.0, 1.0, 0.0)
    sol = solve(prob)
    assert sol.case == CASE_TIMELIKE_LINE
    assert abs(sol.max_length - math.sqrt(3.0)) < 1e-12
    # sampled: the straight segment to (2, 1), of that length
    curve = make_curve(*sample_solution(sol, prob, 11))
    line = np.linspace(0.0, 1.0, 11)[:, None] * [2.0, 1.0]
    assert np.allclose(curve.points, line, rtol=0.0, atol=1e-15)
    assert abs(lorentzian_length(curve) - sol.max_length) < 1e-12


def test_solve_broken_null_zero_length():
    sol = solve(IsoProblem(2.0, 0.0, 1.0))
    assert sol.case == CASE_BROKEN_NULL
    assert sol.max_length == 0.0


def test_solve_empty_and_null_endpoint():
    assert solve(IsoProblem(1.0, 2.0, 0.0)).case == CASE_EMPTY
    sol = solve(IsoProblem(1.0, 1.0, 0.0))
    assert sol.case == CASE_BROKEN_NULL and sol.max_length == 0.0


def test_solve_follows_classify_near_a_null_endpoint():
    # a - |b| = 9e-13 is below NULL_TOL, but the predicate calls the endpoint
    # chronological: solve reports the hyperbola, of tau's length
    a, b, c = 1.0, 0.9999999999991, 1e-13
    sol = solve(IsoProblem(a, b, c))
    assert solve(IsoProblem(a, b, c)).case == sol.case == CASE_HYPERBOLA
    assert sol.max_length == tau(ORIGIN, Event(a, b, c)) > 0.0
    sol = solve(IsoProblem(0.0, 0.0, 0.0))
    assert sol.case == CASE_BROKEN_NULL and sol.T == 0.0 and sol.max_length == 0.0


def test_solve_hyperbola_length_between_extremes():
    sol = solve(IsoProblem(2.0, 0.0, 0.5))
    assert sol.case == CASE_HYPERBOLA
    # strictly between the broken-null length 0 and the straight-line length T
    assert 0.0 < sol.max_length < 2.0


def test_max_length_boost_invariant():
    # same area, boosted endpoint: length of the maximizer is unchanged
    base = solve(IsoProblem(2.0, 0.0, 0.5))
    chi = 0.7
    a = 2.0 * math.cosh(chi)
    b = 2.0 * math.sinh(chi)
    boosted = solve(IsoProblem(a, b, 0.5))
    assert abs(base.max_length - boosted.max_length) < 1e-12 * base.max_length


def test_sample_solution_endpoints_and_area():
    prob = IsoProblem(2.0, 0.3, 0.5)
    sol = solve(prob)
    curve = sample_solution(sol, prob, 20001)
    assert np.allclose(curve.points[0], (0.0, 0.0), atol=1e-12)
    assert np.allclose(curve.points[-1], (prob.a, prob.b), atol=1e-9)
    area = signed_area(make_curve(curve.times, curve.points))
    assert abs(area - prob.c) < 1e-7
    length = lorentzian_length(make_curve(curve.times, curve.points))
    assert abs(length - sol.max_length) < 1e-6


def test_sample_solution_negative_area():
    prob = IsoProblem(2.0, 0.0, -0.6)
    curve = sample_solution(solve(prob), prob, 20001)
    area = signed_area(make_curve(curve.times, curve.points))
    assert abs(area - prob.c) < 1e-7


@pytest.mark.parametrize("c", [1e-9, -1e-100, 1e-200])
def test_sample_solution_small_area(c):
    # the vertex lies about T^3 / (12 |c|) above the chord; the sampled arc
    # still encloses c
    prob = IsoProblem(2.0, 0.0, c)
    curve = sample_solution(solve(prob), prob, 20001)
    area = signed_area(make_curve(curve.times, curve.points))
    assert abs(area - c) <= 1e-8 * abs(c)


def test_sample_solution_broken_null_area():
    prob = IsoProblem(2.0, 0.0, 1.0)
    curve = sample_solution(solve(prob), prob, 4097)
    area = signed_area(make_curve(curve.times, curve.points))
    assert abs(area - 1.0) < 1e-9  # piecewise-linear maximizer is sampled exactly
    assert abs(lorentzian_length(make_curve(curve.times, curve.points))) < 1e-9


def test_sample_solution_null_endpoint_segment():
    prob = IsoProblem(1.0, 1.0, 0.0)
    curve = sample_solution(solve(prob), prob, 11)
    assert np.allclose(curve.points[-1], (1.0, 1.0), atol=1e-12)
    assert np.allclose(curve.points[:, 0], curve.points[:, 1], atol=1e-12)


def test_sample_solution_errors():
    prob = IsoProblem(1.0, 2.0, 0.0)
    with pytest.raises(NoSolutionError):
        sample_solution(solve(prob), prob, 11)
    good = IsoProblem(2.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        sample_solution(solve(good), good, 1)
