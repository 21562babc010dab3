"""Command-line interface: subcommands, formats, exit codes, determinism."""

import io
import json
import os

import jsonschema
import pytest

from heislor.cli import run

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
    assert payload["C_estimate"] > 1.0


def test_curvature_check_json(capsys):
    code, out = invoke(capsys, ["curvature-check", "--t", "0.5", "--N", "2"])
    assert code == 0
    payload = check_json(out)
    assert payload["midpoint_det_analytic"] == 1.0 / 32.0
    assert payload["juillet_bound"] == 0.25 and payload["bm_rhs"] == 1.0
    assert len(payload["tmcp_witnesses"]) == 1
    assert payload["tmcp_witnesses"][0]["found"] is True
    assert payload["appendix_scan"][0] == [0.0, (2.0 * __import__("math").log(2.0) - 1.0) / 32.0]


def test_usage_errors(capsys):
    assert invoke(capsys, ["nonsense"])[0] == 2
    assert invoke(capsys, ["iso-solve"])[0] == 2


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


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# Exact stdout of the fast README examples.  The iso-solve files hold the
# vertex y_c = sgn(c) (T/2) coth(|w|/2) of the bending solve; for c = 1e-9 it
# is T^3 / (12 c) to float precision.
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
    ],
)
def test_golden_stdout(capsys, name, argv):
    code, out = invoke(capsys, argv)
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".txt")) as fh:
        assert out == fh.read()
