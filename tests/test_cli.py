"""Command-line interface: subcommands, formats, exit codes, determinism."""

import io
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import heislor
from heislor import measure, sr_metric
from heislor.cli import _BALL_BOX_CONSTANT, run
from heislor.curvature import tmcp_jacobian_ratio
from heislor.sr_metric import _distance_from_origin

SCHEMA = json.load(
    open(os.path.join(os.path.dirname(__file__), "..", "schemas", "report.json"))
)


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def check_json(out):
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_iso_solve_json(capsys):
    code, out = invoke(capsys, ["iso-solve", "2", "0", "0.5"])
    assert code == 0
    payload = check_json(out)
    assert payload["case"] == "hyperbola"
    assert abs(payload["T"] - 2.0) < 1e-12
    assert payload["max_length"] > 0.0


def test_iso_solve_empty_json_and_csv(capsys):
    code, out = invoke(capsys, ["iso-solve", "1", "2", "0"])
    assert code == 0
    assert check_json(out)["case"] == "empty"
    code, _ = invoke(capsys, ["iso-solve", "1", "2", "0", "--format", "csv"])
    assert code == 1  # nothing to sample


def test_iso_solve_csv(capsys):
    code, out = invoke(capsys, ["iso-solve", "2", "0", "0.5", "--format", "csv", "--samples", "21"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x,y"
    assert len(lines) == 22
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[1] - 2.0) < 1e-9 and abs(last[2]) < 1e-9


def test_tau_output(capsys):
    code, out = invoke(capsys, ["tau", "0", "0", "0", "2", "0", "0"])
    assert code == 0
    assert float(out) == 2.0


def test_geodesic_json_timelike_and_null(capsys):
    code, out = invoke(capsys, ["geodesic", "0", "0", "0", "2", "0", "0.5"])
    assert code == 0
    payload = check_json(out)
    assert payload["type"] == "timelike" and payload["tau"] > 0.0
    code, out = invoke(capsys, ["geodesic", "0", "0", "0", "2", "0", "1"])
    assert code == 0
    payload = check_json(out)
    assert payload["type"] == "null" and payload["tau"] == 0.0


def test_geodesic_csv(capsys):
    code, out = invoke(
        capsys, ["geodesic", "0", "0", "0", "2", "0", "0.5", "--format", "csv", "--samples", "11"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 12
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[1] - 2.0) < 1e-9 and abs(last[3] - 0.5) < 1e-9
    # a null pair: the broken null line, bending at its middle sample
    code, out = invoke(
        capsys, ["geodesic", "0", "0", "0", "2", "0", "1", "--format", "csv", "--samples", "11"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x,y,z" and len(lines) == 12
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(rows[[5, 10], 1:], [(1.0, -1.0, 0.0), (2.0, 0.0, 1.0)], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "q",
    [
        ("676.6669605390703", "-611.8954584837733", "20865.53084302914"),
        ("1565.9851864023294", "-844.1827751465735", "-434916.26154434204"),
    ],
    ids=["chronological-predicate", "causal-predicate"],
)
def test_pairs_within_rounding_of_the_cone_are_null(capsys, q):
    # c/T^2 rounds to +-1/4: tau prints 0, and geodesic and iso-solve give
    # the null line of length 0 with it, also where the chronological
    # predicate passes
    code, out = invoke(capsys, ["tau", "0", "0", "0", *q])
    assert code == 0 and float(out) == 0.0
    code, out = invoke(capsys, ["geodesic", "0", "0", "0", *q])
    assert code == 0
    payload = check_json(out)
    assert payload["type"] == "null" and payload["tau"] == 0.0
    code, out = invoke(capsys, ["iso-solve", *q])
    assert code == 0
    payload = check_json(out)
    assert payload["case"] == "broken_null" and payload["max_length"] == 0.0


def test_iso_solve_area_ratio_underflow_is_the_line(capsys):
    # c != 0, but c/T^2 underflows to 0 and so does the bending: the
    # straight line, of tau's length
    code, out = invoke(capsys, ["iso-solve", "1e10", "0", "1e-310"])
    assert code == 0
    payload = check_json(out)
    assert payload["case"] == "timelike_line" and payload["max_length"] == 1e10
    code, out = invoke(capsys, ["tau", "0", "0", "0", "1e10", "0", "1e-310"])
    assert code == 0 and float(out) == 1e10


def test_geodesic_error_exit(capsys):
    code, _ = invoke(capsys, ["geodesic", "0", "0", "0", "-1", "0", "0"])
    assert code == 1


def test_diamond_volume_json(capsys):
    code, out = invoke(
        capsys,
        ["diamond-volume", "0", "0", "0", "2", "0", "0", "--mc", "100000", "--seed", "3"],
    )
    assert code == 0
    payload = check_json(out)
    assert abs(payload["closed"] - payload["mc"]) <= 3.0 * payload["stderr"]
    assert payload["samples"] == 100000 and payload["seed"] == 3


def test_diamond_box_json(capsys):
    code, out = invoke(
        capsys,
        ["diamond-box", "0", "0", "0", "2", "0", "0", "--samples", "20000", "--seed", "1"],
    )
    assert code == 0
    payload = check_json(out)
    assert payload["inclusion_pass"] is True
    assert payload["samples"] == 20000
    assert abs(payload["rho"] * payload["D"] - 1.0) < 1e-12
    assert payload["C_estimate"] == 2.0 * math.sqrt(math.pi)
    # a null vertex bounds no interior to sample
    assert invoke(capsys, ["diamond-box", "0", "0", "0", "1", "0", "0.25"])[0] == 1


def test_ball_box_constant_bounds_box_faces():
    # d(0, p) over the faces of the box max(|x|, |y|, sqrt|z|) = 1, on a
    # 401 x 401 grid each: never above 2 sqrt(pi), which the poles attain
    g = np.linspace(-1.0, 1.0, 401)
    a, b = (t.ravel() for t in np.meshgrid(g, g))
    one = np.ones_like(a)
    faces = []
    for sign in (1.0, -1.0):
        faces += [(sign * one, a, b), (a, sign * one, b), (a, b, sign * one)]
    d = _distance_from_origin(np.vstack([np.column_stack(f) for f in faces]))
    assert np.max(d) == _BALL_BOX_CONSTANT == 2.0 * math.sqrt(math.pi)
    assert d[200 * 401 + 200 + 2 * len(a)] == _BALL_BOX_CONSTANT  # (0, 0, 1)


def test_nonfinite_input_and_output_exit_1(capsys):
    for argv in (
        ["tau", "nan", "0", "0", "1", "0", "0"],
        ["tau", "0", "0", "0", "inf", "0", "0"],
        ["geodesic", "0", "0", "0", "2", "nan", "0.5"],
        # the vertex ordinate (T/2) coth(6 c / T^2) overflows
        ["iso-solve", "2", "0", "1e-310"],
    ):
        code, out = invoke(capsys, argv)
        assert code == 1 and out == ""


def test_curvature_check_json(capsys):
    code, out = invoke(capsys, ["curvature-check", "--t", "0.5", "--N", "2"])
    assert code == 0
    payload = check_json(out)
    assert payload["midpoint_det_analytic"] == 1.0 / 32.0
    assert payload["juillet_bound"] == 0.25 and payload["bm_rhs"] == 1.0
    assert len(payload["tmcp_witnesses"]) == 1
    assert payload["tmcp_witnesses"][0]["found"] is True
    assert payload["appendix_scan"][0] == [0.0, (2.0 * __import__("math").log(2.0) - 1.0) / 32.0]


def test_hausdorff_rejects_bad_samples(capsys):
    # no slice from the end of the sample, no division by zero
    for n in ("-3", "0"):
        code = run(["hausdorff", "--radius", "1", "--delta", "0.4", "--samples", n])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and "n_samples" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--center", "nan", "0", "0", "--radius", "1", "--delta", "0.4"],
        ["--radius", "inf", "--delta", "0.4"],
        # radius ** 4 overflows
        ["--radius", "1e200", "--delta", "1e199"],
        # the cover sums underflow to 0
        ["--radius", "1e-200", "--delta", "1e-201"],
    ],
)
def test_hausdorff_bad_input_exits_1(capsys, argv):
    code = run(["hausdorff", *argv, "--samples", "1000"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["--radius", "1e200", "--delta", "1e199"], ["--radius", "1e-200", "--delta", "1e-201"]]
)
def test_hausdorff_checks_lower_before_sampling(capsys, monkeypatch, argv):
    # radius^4, the factor of lower that the input sets, needs no sample: a
    # radius where it overflows or underflows draws none
    def unexpected(*args):
        raise AssertionError("the half-ball sample was drawn")

    monkeypatch.setattr(measure, "_half_ball_points", unexpected)
    code = run(["hausdorff", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # a^2 - b^2 overflows
        ["iso-solve", "1e200", "0", "1e300"],
        ["diamond-box", "0", "0", "0", "1e160", "0", "1e300", "--samples", "100"],
        ["tau", "0", "0", "0", "1e200", "0", "0"],
        # a^2 - b^2 underflows to 0 on a broken_null endpoint
        ["iso-solve", "1e-170", "0", "1e-341"],
    ],
)
def test_squared_chord_out_of_range_exits_1(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["--t", "0.01", "--N", "3"], ["--N", "3"], ["--t", "0.5", "--N", "2.5"]]
)
def test_curvature_check_off_grid_is_solved(capsys, argv):
    # a --t or --N off the grid gets its witness computed, and each is the
    # first integer w whose ratio falls below t^N
    given = dict(zip(argv[::2], map(float, argv[1::2])))
    code, out = invoke(capsys, ["curvature-check", *argv])
    assert code == 0
    witnesses = check_json(out)["tmcp_witnesses"]
    assert len(witnesses) == (1 if "--t" in given else 3)
    for rep in witnesses:
        t, N, w = rep["t"], rep["N"], rep["witness_w"]
        assert t == given.get("--t", t) and N == given["--N"]
        assert rep["found"] is True and rep["threshold"] == t ** N
        assert rep["ratio"] == tmcp_jacobian_ratio(t, w) < t ** N
        assert w == -1.0 or t ** N <= tmcp_jacobian_ratio(t, w + 1.0)
    if argv[:2] == ["--t", "0.01"]:
        assert witnesses[0]["witness_w"] == -1380.0


def test_curvature_check_rejects_infinite_n_and_wmax(capsys):
    # N = inf has no finite threshold t^N to solve for, and --wmax is no option
    code = run(["curvature-check", "--N", "inf"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert invoke(capsys, ["curvature-check", "--wmax", "5"]) == (2, "")


def test_usage_errors(capsys):
    assert invoke(capsys, ["nonsense"])[0] == 2
    assert invoke(capsys, ["iso-solve"])[0] == 2


def test_module_entry_point_exit_codes():
    # python -m heislor.cli, in a process of its own: the exit status is run()'s
    src = os.path.dirname(os.path.dirname(heislor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, code, out in (
        (["tau", "0", "0", "0", "2", "0", "0"], 0, "2.0\n"),
        (["geodesic", "0", "0", "0", "-1", "0", "0"], 1, ""),
        (["nonsense"], 2, ""),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "heislor.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (code, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "0", "0", "0", "2", "0", "0.5", "--format", "json"],
        ["diamond-volume", "0", "0", "0", "1", "0", "0", "--format", "json"],
        ["hausdorff", "--radius", "1", "--delta", "0.4", "--samples", "500", "--format", "csv"],
        ["diamond-box", "0", "0", "0", "2", "0", "0", "--samples", "10", "--format", "json"],
        ["curvature-check", "--t", "0.5", "--N", "2", "--format", "json"],
        ["iso-solve", "2", "0", "0.5", "--seed", "1"],
        ["tau", "0", "0", "0", "2", "0", "0.5", "--seed", "1"],
        ["geodesic", "0", "0", "0", "2", "0", "0.5", "--seed", "1"],
        ["curvature-check", "--t", "0.5", "--N", "2", "--seed", "1"],
    ],
)
def test_options_a_subcommand_ignores_are_usage_errors(capsys, argv):
    # each subcommand accepts only the options it reads
    assert invoke(capsys, argv) == (2, "")


def test_output_file_and_determinism(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = [
        "diamond-volume", "0", "0", "0", "2", "0.2", "0.1",
        "--mc", "200000", "--seed", "7", "--output", str(path),
    ]
    assert run(argv) == 0
    first = path.read_bytes()
    assert run(argv) == 0
    assert path.read_bytes() == first
    capsys.readouterr()


def test_near_null_draws_are_bounded(capsys, monkeypatch):
    # at 1/4 - c/T^2 = 1e-8 the fibre strip keeps about 0.45 of the draws:
    # a thousand points take one chunk of draws, and a million volume draws
    # take their ceil(1e6 / FIBRE_CHUNK) chunks, with hits
    calls = []
    draw = sr_metric.fibre_hits

    def counted(*args):
        calls.append(args)
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} calls of fibre_hits")
        return draw(*args)

    monkeypatch.setattr(sr_metric, "fibre_hits", counted)
    limit = 50
    argv = ["diamond-box", "0", "0", "0", "1", "0", "0.24999999", "--samples", "1000"]
    code, out = invoke(capsys, argv)
    assert code == 0 and json.loads(out)["samples"] == 1000
    calls.clear()
    limit = -(-1000000 // sr_metric.FIBRE_CHUNK)
    argv = ["diamond-volume", "0", "0", "0", "1", "0", "0.24999999", "--mc", "1000000"]
    code, out = invoke(capsys, argv)
    payload = json.loads(out)
    assert code == 0 and len(calls) == limit and payload["stderr"] > 0.0
    assert abs(payload["mc"] - payload["closed"]) <= 6.0 * payload["stderr"]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# Exact stdout of the fast README examples.  The iso-solve files hold the
# vertex y_c = sgn(c) (T/2) coth(|w|/2) of the bending solve; for c = 1e-9 it
# is T^3 / (12 c) to float precision.  The hausdorff and diamond-box files pin
# the inner radius rho, the unit-ball volume behind `lower` and C_estimate;
# diamond-volume-mc pins the Monte Carlo draw stream.
@pytest.mark.parametrize(
    "name, argv",
    [
        ("tau", ["tau", "0", "0", "0", "2", "0", "0.5"]),
        ("geodesic.json", ["geodesic", "0", "0", "0", "2", "0", "0.5"]),
        (
            "geodesic.csv",
            ["geodesic", "0", "0", "0", "2", "0", "0.5", "--format", "csv", "--samples", "101"],
        ),
        ("diamond-volume.json", ["diamond-volume", "0", "0", "0", "1", "0", "0"]),
        ("curvature-check.json", ["curvature-check"]),
        ("iso-solve.json", ["iso-solve", "2", "0", "0.5"]),
        ("iso-solve-small-area.json", ["iso-solve", "2", "0", "1e-9"]),
        ("hausdorff.csv", ["hausdorff", "--radius", "1", "--delta", "0.4", "--samples", "5000"]),
        ("diamond-box.json", ["diamond-box", "0", "0", "0", "2", "0", "0", "--samples", "2000"]),
        (
            "diamond-volume-mc.json",
            ["diamond-volume", "0", "0", "0", "1", "0", "0", "--mc", "100000", "--seed", "1"],
        ),
    ],
)
def test_golden_stdout(capsys, name, argv):
    code, out = invoke(capsys, argv)
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".txt")) as fh:
        assert out == fh.read()
