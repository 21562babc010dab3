"""Distortion coefficients, contraction ratios, Brunn-Minkowski arithmetic."""

import json
import math
import sys

import numpy as np
import pytest

from heislor import measure
from heislor.cli import run
from heislor.curvature import (
    BMReport,
    DistortionArgs,
    bm_inequality_eval,
    distortion_tau,
    juillet_contradiction,
    midpoint_det_check,
    tmcp_jacobian_ratio,
    tmcp_violation_report,
)


def test_distortion_tau_flat_case():
    assert distortion_tau(DistortionArgs(0.0, 3.0, 0.25, 1.7)) == 0.25
    assert distortion_tau(DistortionArgs(-1.0, 1.0, 0.4, 2.0)) == 0.4


def test_distortion_tau_positive_curvature():
    # K theta^2 below the conjugate threshold: sin-ratio formula
    K, N, t, theta = 1.0, 2.0, 0.5, 1.0
    x = theta * math.sqrt(K / (N - 1.0))
    expect = t ** 0.5 * (math.sin(t * x) / math.sin(x)) ** 0.5
    assert abs(distortion_tau(DistortionArgs(K, N, t, theta)) - expect) < 1e-15
    # at or beyond the threshold the coefficient blows up
    assert distortion_tau(DistortionArgs(1.0, 2.0, 0.5, math.pi)) == math.inf
    assert distortion_tau(DistortionArgs(1.0, 2.0, 0.5, 4.0)) == math.inf


def test_distortion_tau_negative_curvature():
    K, N, t, theta = -2.0, 3.0, 0.3, 1.5
    x = theta * math.sqrt(-K / (N - 1.0))
    expect = t ** (1.0 / 3.0) * (math.sinh(t * x) / math.sinh(x)) ** (2.0 / 3.0)
    assert abs(distortion_tau(DistortionArgs(K, N, t, theta)) - expect) < 1e-15
    # negative curvature contracts below the flat coefficient t
    assert distortion_tau(DistortionArgs(K, N, t, theta)) < t


def test_distortion_tau_infinite_theta():
    assert distortion_tau(DistortionArgs(1.0, 2.0, 0.5, math.inf)) == math.inf
    assert distortion_tau(DistortionArgs(0.0, 2.0, 0.5, math.inf)) == 0.5
    assert distortion_tau(DistortionArgs(-1.0, 2.0, 0.5, math.inf)) == 0.0
    assert distortion_tau(DistortionArgs(-1.0, 2.0, 1.0, math.inf)) == 1.0


def test_distortion_tau_domain_errors():
    with pytest.raises(ValueError):
        distortion_tau(DistortionArgs(0.0, 2.0, 1.5, 1.0))
    with pytest.raises(ValueError):
        distortion_tau(DistortionArgs(0.0, 0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        distortion_tau(DistortionArgs(0.0, math.inf, 0.5, 1.0))
    with pytest.raises(ValueError):
        distortion_tau(DistortionArgs(0.0, 2.0, 0.5, -1.0))


def test_tmcp_ratio_small_w_limit():
    # w -> 0: the ratio is (1-t)^5, the flat 5-homogeneous contraction
    for t in (0.25, 0.5, 0.75):
        assert abs(tmcp_jacobian_ratio(t, 1e-8) - (1.0 - t) ** 5) < 1e-12
    # series and closed form agree across the 1e-3 switch; the residual
    # 1.3e-9 step is the genuine w^2 variation between the two arguments
    a = tmcp_jacobian_ratio(0.4, 9e-4)
    b = tmcp_jacobian_ratio(0.4, 1.1e-3)
    assert abs(a - b) < 5e-9


def test_tmcp_ratio_decay_and_symmetry():
    # even in w, strictly decaying towards 0 for growing |w|
    assert abs(tmcp_jacobian_ratio(0.5, 5.0) - tmcp_jacobian_ratio(0.5, -5.0)) < 1e-15
    vals = [tmcp_jacobian_ratio(0.5, w) for w in (1.0, 5.0, 20.0, 60.0, 120.0)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] < 1e-12
    with pytest.raises(ValueError):
        tmcp_jacobian_ratio(0.0, 1.0)
    with pytest.raises(ValueError):
        tmcp_jacobian_ratio(1.0, 1.0)


def test_tmcp_ratio_log_branch_continuity():
    # asymptotic log-space branch engages at |w s / 2| = 30
    t = 0.25  # s = -0.75, switch near w = 80
    a = tmcp_jacobian_ratio(t, 79.9)
    b = tmcp_jacobian_ratio(t, 80.1)
    assert abs(a - b) < 0.3 * max(a, b)  # same order, smooth decay


def test_tmcp_violation_report_finds_witness():
    rep = tmcp_violation_report(0.25, 10.0)
    assert rep["found"] is True
    assert rep["witness_w"] < 0.0
    assert rep["ratio"] < rep["threshold"]
    # the certificate is checkable
    assert tmcp_jacobian_ratio(0.25, rep["witness_w"]) == rep["ratio"]
    assert rep["threshold"] == 0.25 ** 10


def test_tmcp_witness_matches_scan():
    # the solved witness is the first integer w = -1, -2, ... a plain scan
    # finds, with the same ratio and threshold bits, on a seeded grid with
    # t out to 0.01 and 0.99 and fractional N
    rng = np.random.default_rng(30)
    ts = [0.01, 0.99, *rng.uniform(0.01, 0.99, 10)]
    Ns = [1.0, 2.5, *rng.uniform(1.0, 20.0, 6)]
    for t in ts:
        for N in Ns:
            threshold = t ** N
            w = -1.0
            while not tmcp_jacobian_ratio(t, w) < threshold:
                w -= 1.0
            rep = tmcp_violation_report(t, N)
            assert rep["found"] is True
            assert (rep["witness_w"], rep["ratio"], rep["threshold"]) == (
                w, tmcp_jacobian_ratio(t, w), threshold
            )
    # a witness past |w| = 200
    assert tmcp_violation_report(0.01, 1.0)["witness_w"] == -459.0


@pytest.mark.parametrize(
    "t, N",
    [
        (0.5, 0.5),  # N below 1
        (0.5, math.inf),  # no finite threshold
        (0.5, math.nan),
        (0.5, 2000.0),  # t^N underflows to 0
        (0.01, 154.0),  # t^N = 1e-308 is subnormal
        (1e-9, 1.0),  # the witness lies past |w| = t/(64 eps)
    ],
)
def test_tmcp_violation_report_input_checks(t, N):
    with pytest.raises(ValueError):
        tmcp_violation_report(t, N)


def test_tmcp_violation_report_cap_holds_at_the_doubling_step():
    # the doubling steps 2^26 <= k_max < 2^27 here: a witness between k_max
    # and 2^27 raises, and one just below k_max is still solved
    t = 1e-6
    k_max = math.floor(t / (64.0 * sys.float_info.epsilon))
    assert 2 ** 26 <= k_max < 2 ** 27
    N_past = math.log(tmcp_jacobian_ratio(t, -1.5 * k_max)) / math.log(t)
    with pytest.raises(ValueError):
        tmcp_violation_report(t, N_past)
    N_within = math.log(tmcp_jacobian_ratio(t, -0.99 * k_max)) / math.log(t)
    rep = tmcp_violation_report(t, N_within)
    assert -k_max <= rep["witness_w"] < -2 ** 26
    assert rep["ratio"] < rep["threshold"]
    assert not tmcp_jacobian_ratio(t, rep["witness_w"] + 1.0) < rep["threshold"]


def test_midpoint_det_check():
    numeric, analytic = midpoint_det_check()
    assert analytic == 1.0 / 32.0
    assert abs(numeric - 1.0 / 32.0) < 1e-6


def test_juillet_contradiction_report():
    rep = juillet_contradiction()
    assert rep["juillet_bound"] == 0.25
    assert rep["bm_rhs"] == 1.0
    assert rep["contradiction"] is True
    assert "1/4 < 1" in rep["statement"]


def test_bm_inequality_eval_finite_n():
    # flat coefficients: rhs = (1-t) v0^(1/N) + t v1^(1/N)
    rep = bm_inequality_eval(1.0, 1.0, 1.0, 0.0, 2.0, 0.5, 1.0)
    assert isinstance(rep, BMReport)
    assert abs(rep.rhs - 1.0) < 1e-15
    assert rep.satisfied
    # a midpoint volume of 1/32 against unit endpoints violates every N
    rep2 = bm_inequality_eval(1.0, 1.0, 1.0 / 32.0, 0.0, 3.0, 0.5, 1.0)
    assert not rep2.satisfied


def test_appendix_limit_scan_matches_measure(capsys):
    # the appendix scan that curvature-check reports is measure's unit-diamond scan
    assert run(["curvature-check", "--t", "0.5", "--N", "2"]) == 0
    reported = json.loads(capsys.readouterr().out)["appendix_scan"]
    ws = [w for w, _ in reported]
    assert ws == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    assert reported == [[w, v] for w, v in measure.growth_ratio_scan(ws)]
    scan = measure.growth_ratio_scan([0.0, 10.0, 50.0])
    assert abs(scan[0][1] - (2.0 * math.log(2.0) - 1.0) / 32.0) < 1e-15
    assert scan[1][1] < scan[0][1]
    assert scan[2][1] < scan[1][1]


def test_bm_inequality_eval_entropic():
    rep = bm_inequality_eval(1.0, 1.0, 0.9, -1.0, math.inf, 0.5, 1.0)
    expect = math.exp(-0.125)
    assert abs(rep.rhs - expect) < 1e-15
    assert rep.satisfied
    with pytest.raises(ValueError):
        bm_inequality_eval(0.0, 1.0, 1.0, 0.0, 2.0, 0.5, 1.0)
