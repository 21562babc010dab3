"""Command-line front end.

Subcommands run the solvers and experiments and emit machine-readable output:
JSON reports (validating against schemas/report.json) or CSV curve samples.
Exit codes: 0 success, 1 domain error (not causal, infeasible), 2 usage error.
All output is a deterministic function of the arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from heislor import curvature, geodesics, measure, minkowski_iso, sr_metric
from heislor.heisenberg_core import Event, group_mul
from heislor.minkowski_iso import IsoProblem, NoSolutionError


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload: dict, path):
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError("the result is not finite, and JSON cannot hold it") from None
    _emit(text + "\n", path)


def _csv(header, rows, path):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    _emit("\n".join(lines) + "\n", path)


def _curve_rows(curve):
    pts = np.asarray(curve.points)
    return [(t, *pt) for t, pt in zip(curve.times, pts)]


def _cmd_iso_solve(args) -> int:
    prob = IsoProblem(args.a, args.b, args.c)
    sol = minkowski_iso.solve(prob)
    if args.format == "csv":
        if sol.case == minkowski_iso.CASE_EMPTY:
            raise NoSolutionError("no admissible curve to sample")
        curve = minkowski_iso.sample_solution(sol, prob, args.samples)
        _csv(("t", "x", "y"), _curve_rows(curve), args.output)
        return 0
    payload = {
        "kind": "iso-solve",
        "case": sol.case,
        "T": sol.T,
        "max_length": sol.max_length,
    }
    if sol.y_c is not None:
        payload["y_c"] = sol.y_c
    _json(payload, args.output)
    return 0


def _cmd_tau(args) -> int:
    value = geodesics.tau(Event(args.px, args.py, args.pz), Event(args.qx, args.qy, args.qz))
    _emit(repr(value) + "\n", args.output)
    return 0


def _cmd_geodesic(args) -> int:
    p = Event(args.px, args.py, args.pz)
    q = Event(args.qx, args.qy, args.qz)
    geo = geodesics.geodesic_between(p, q, n=args.samples)
    if isinstance(geo, geodesics.Geodesic):
        if args.format == "csv":
            ts = np.linspace(0.0, geo.t_max, args.samples)
            rows = [(t, *group_mul(geo.base, geodesics.exp_point(geo.param, t))) for t in ts]
            _csv(("t", "x", "y", "z"), rows, args.output)
        else:
            payload = {
                "kind": "geodesic",
                "type": "timelike",
                "u": geo.param.u,
                "v": geo.param.v,
                "w": geo.param.w,
                "tau": geodesics.tau(p, q),
            }
            _json(payload, args.output)
        return 0
    # null case: sampled curve
    if args.format == "csv":
        _csv(("t", "x", "y", "z"), _curve_rows(geo), args.output)
    else:
        payload = {
            "kind": "geodesic",
            "type": "null",
            "tau": 0.0,
            "samples": int(len(geo.times)),
        }
        _json(payload, args.output)
    return 0


def _cmd_diamond_volume(args) -> int:
    p = Event(args.px, args.py, args.pz)
    q = Event(args.qx, args.qy, args.qz)
    payload = {
        "kind": "diamond-volume",
        "closed": measure.diamond_volume_closed(p, q),
    }
    if args.mc:
        est = measure.diamond_volume_mc(p, q, args.mc, args.seed)
        payload.update(mc=est.value, stderr=est.stderr, samples=est.samples, seed=est.seed)
    _json(payload, args.output)
    return 0


def _cmd_hausdorff(args) -> int:
    center = Event(*args.center)
    deltas = [args.delta, args.delta / 2.0, args.delta / 4.0]
    probe = measure.dimension_probe(center, args.radius, (3, 4, 5), args.seed, args.samples, deltas)
    # the upper bound is the d = 4 cover sum
    sums = (probe["dims"][d]["sums"] for d in (3.0, 4.0, 5.0))
    rows = [
        (delta, probe["lower"], s4, s3, s4, s5)
        for delta, s3, s4, s5 in zip(probe["deltas"], *sums)
    ]
    _csv(("delta", "lower", "upper", "sum_d3", "sum_d4", "sum_d5"), rows, args.output)
    return 0


# The upper ball-box constant sup d(0, p) / max(|x|, |y|, sqrt|z|) is 2 sqrt(pi),
# attained at (0, 0, +-1).  By homogeneity it is the least C with the box
# [-1, 1]^2 x [-1, 1] inside B(0, C): with a = 1/C, the box [-a, a]^2 x
# [-a^2, a^2] inside B(0, 1) = {|z| <= f(r)}, f as in measure._unit_ball_volume.
# There r <= sqrt(2) a = 0.399 and |z| <= 1/(4 pi) <= f(r), which holds for
# r <= 0.958; the poles (0, 0, +-1/(4 pi)) are on the ball's boundary.
_BALL_BOX_CONSTANT = 2.0 * math.sqrt(math.pi)


def _cmd_diamond_box(args) -> int:
    p = Event(args.px, args.py, args.pz)
    q = Event(args.qx, args.qy, args.qz)
    report = sr_metric.diamond_in_box_check(p, q, args.samples, args.seed)
    rho = sr_metric.unit_diamond_inner_radius()
    payload = {
        "kind": "diamond-box",
        "inclusion_pass": bool(report["inclusion_pass"]),
        "samples": int(report["samples"]),
        "rho": rho,
        "D": 1.0 / rho,
        "C_estimate": _BALL_BOX_CONSTANT,
    }
    _json(payload, args.output)
    return 0


def _cmd_curvature_check(args) -> int:
    contradiction = curvature.juillet_contradiction()
    # the grid, or the one value given when it is off the grid
    ts = [t for t in (0.25, 0.5, 0.75) if args.t in (None, t)] or [args.t]
    Ns = [N for N in (1, 2, 5, 10) if args.N in (None, N)] or [args.N]
    witnesses = [curvature.tmcp_violation_report(t, N) for t in ts for N in Ns]
    scan = measure.growth_ratio_scan([0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
    payload = {
        "kind": "curvature-check",
        "midpoint_det": contradiction["midpoint_det"],
        "midpoint_det_analytic": contradiction["midpoint_det_analytic"],
        "juillet_bound": contradiction["juillet_bound"],
        "bm_rhs": contradiction["bm_rhs"],
        "contradiction": contradiction["statement"],
        "tmcp_witnesses": witnesses,
        "appendix_scan": [[w, v] for w, v in scan],
    }
    _json(payload, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heislor",
        description="sub-Lorentzian Heisenberg geometry: solvers and experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--output", default=None, help="write to file instead of stdout")

    sp = sub.add_parser("iso-solve", help="planar Lorentzian isoperimetric solver")
    sp.add_argument("a", type=float)
    sp.add_argument("b", type=float)
    sp.add_argument("c", type=float)
    sp.add_argument("--samples", type=int, default=1001)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(sp)
    sp.set_defaults(func=_cmd_iso_solve)

    sp = sub.add_parser("tau", help="time separation between two points")
    for name in ("px", "py", "pz", "qx", "qy", "qz"):
        sp.add_argument(name, type=float)
    add_common(sp)
    sp.set_defaults(func=_cmd_tau)

    sp = sub.add_parser("geodesic", help="maximizing geodesic between two points")
    for name in ("px", "py", "pz", "qx", "qy", "qz"):
        sp.add_argument(name, type=float)
    sp.add_argument("--samples", type=int, default=1001)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(sp)
    sp.set_defaults(func=_cmd_geodesic)

    sp = sub.add_parser("diamond-volume", help="volume of a causal diamond")
    for name in ("px", "py", "pz", "qx", "qy", "qz"):
        sp.add_argument(name, type=float)
    sp.add_argument("--mc", type=int, default=0, help="Monte Carlo sample count")
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp)
    sp.set_defaults(func=_cmd_diamond_volume)

    sp = sub.add_parser("hausdorff", help="Hausdorff measure bounds for a CC ball")
    sp.add_argument("--center", type=float, nargs=3, default=(0.0, 0.0, 0.0))
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp)
    sp.set_defaults(func=_cmd_hausdorff)

    sp = sub.add_parser("diamond-box", help="diamond-in-box inclusion check")
    for name in ("px", "py", "pz", "qx", "qy", "qz"):
        sp.add_argument(name, type=float)
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp)
    sp.set_defaults(func=_cmd_diamond_box)

    sp = sub.add_parser("curvature-check", help="curvature-condition failure report")
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--N", type=float, default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_curvature_check)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:  # the domain errors all derive from it
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
