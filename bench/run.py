"""Benchmark of heislor: geodesic queries, Monte Carlo diamonds, Hausdorff probe.

    python3 bench/run.py --workload geodesic-queries --seed 1 --seconds 6 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 6 --record BENCH_local.json

Run from the repository root; heislor is imported from ./src.  The last
line of output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics (--trace 0) or the per-layer metrics
of a traced run (--trace 1).  See bench/README.md for the workloads, the
metrics, the checks and how a run is laid out.

A run of any workload executes all three phases, in worker.py processes,
interleaved over the run: the workload's own phase for --seconds, and
fixed-size side probes of the two others, because every run reports every
end-to-end metric.  attempted/failed count the workload's own phase only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

WORKLOADS = {
    "geodesic-queries": "geodesic",
    "mc-diamonds": "mc",
    "hausdorff-probe": "hausdorff",
}
PHASES = ("geodesic", "mc", "hausdorff")
# The rounds of a run come in cycles, each a set-up timing, then geodesic,
# mc volume and mc sampling rounds, each kind in a worker process that
# lives for the whole run; the Hausdorff CLI run, one fresh interpreter,
# sits after the middle cycle.  Every run reports every end-to-end metric,
# so each cycle also runs the phases that are not the workload's own, and
# every metric draws on the whole run rather than on one stretch of it:
# the speed of the shared machine this was written on drifts by up to 2x
# over seconds to minutes.
CYCLES = 8
TRACE_CYCLES = 4
# Rounds per cycle of a phase that is not the workload's own; the own phase
# runs for its share of --seconds and at least as many.  A geodesic round
# takes about 0.15 s, a volume round 0.3 s, a sampling round about 1 s.
SIDE_ROUNDS = {"geodesic": 3, "volume": 1, "box": 1}
PART_PHASE = {"geodesic": "geodesic", "volume": "mc", "box": "mc"}
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("queries_per_s", "1/s"),
    ("diamond_sample.points_per_s", "1/s"),
    ("volume_mc.s_to_rse_1e-3", "s"),
    ("hausdorff.wall_s", "s"),
)


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("HEIS_SLOR_THREADS", None)  # the package default: one worker
    env["PYTHONPATH"] = str(SRC)
    return env


class Worker:
    """A worker.py process that runs the jobs sent to it one at a time,
    each answered by one JSON line; its stderr is passed through."""

    def __init__(self, *args: str):
        self.args = args
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_env(),
            cwd=ROOT,
        )
        self._buf = b""

    def readline(self) -> str:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError(f"worker {self.args} gave no answer in {CHILD_TIMEOUT_S} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError(f"worker {self.args} exited {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def call(self, job: dict) -> dict:
        try:
            self.proc.stdin.write((json.dumps(job) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise BenchError(f"worker {self.args} exited {self.proc.wait()}") from exc
        return json.loads(self.readline())

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def setup_time() -> float:
    t0 = time.monotonic()
    with Worker("setup", repr(t0)) as w:
        return float(w.readline())


def once(job: dict) -> dict:
    """Run one job in a fresh interpreter."""
    with Worker() as w:
        return w.call(job)


def _job(part: str, payload, own: bool, share: float, trace: bool, spans_path) -> dict:
    return {
        "phase": PART_PHASE[part],
        "part": part,
        "payload": payload,
        "budget_s": share if own else 0.0,
        # a traced own round set needs an untraced and a traced round
        "min_rounds": max(SIDE_ROUNDS[part], 2 if trace and own else 1),
        "trace": ("alternate" if own else "on") if trace else "off",
        "spans_path": spans_path,
    }


def _hausdorff_jobs(seed: int, own: bool, trace: bool) -> list:
    samples = inputs.HAUSDORFF_SAMPLES if own else inputs.HAUSDORFF_SIDE_SAMPLES
    job = {
        "phase": "hausdorff",
        "payload": {
            "argv": inputs.hausdorff_args(seed, samples),
            "radius": 1.0,
            "delta": inputs.HAUSDORFF_DELTA,
            "trends": own,
        },
        "spans_path": None,
    }
    # the traced run times the own CLI run once untraced, once traced
    if not trace:
        return [dict(job, trace="off")]
    return [dict(job, trace=mode) for mode in (["off", "on"] if own else ["on"])]


def run_phases(own_phase: str, seed: int, seconds: float, trace: bool, spans_dir):
    """Set-up timings and the worker results of every phase, in run order."""
    payload = {"geodesic": inputs.geodesic_round(seed), "volume": inputs.diamond_set(seed)}
    payload["box"] = payload["volume"]
    cycles = TRACE_CYCLES if trace else CYCLES
    setup, results = [], {phase: [] for phase in PHASES}
    with contextlib.ExitStack() as stack:
        workers = {part: stack.enter_context(Worker()) for part in SIDE_ROUNDS}
        for c in range(cycles):
            if not trace:
                setup.append(setup_time())
            for part, worker in workers.items():
                phase = PART_PHASE[part]
                own = phase == own_phase
                share = seconds / cycles / (2 if phase == "mc" else 1)
                spans = None
                if spans_dir and c == 0:
                    tag = "own" if own else "side"
                    spans = str(Path(spans_dir) / f"{part}-{tag}.jsonl")
                job = _job(part, payload[part], own, share, trace, spans)
                results[phase].append(worker.call(job))
            if c == (cycles - 1) // 2:
                # one CLI run per interpreter, so its lru caches start cold
                for job in _hausdorff_jobs(seed, own_phase == "hausdorff", trace):
                    if spans_dir and job["trace"] == "on":
                        job["spans_path"] = str(Path(spans_dir) / "hausdorff.jsonl")
                    results["hausdorff"].append(once(job))
    if own_phase == "mc":
        # the sampler's points are checked once, on a larger draw, in an
        # interpreter of its own so that the draw does not count in
        # peak_rss_mb
        results["mc"].append(once({"phase": "mc", "part": "points", "payload": payload["box"]}))
    return setup, results


def _median_each(rows: list) -> list:
    """Per column (operation or diamond): the median over all rows.

    Not the fastest: on the shared machine this was written on, the speed
    of code drifts up to 2x over seconds to minutes.  In a six-minute
    series of rounds cut into 35 s stretches, the per-diamond median of 12
    mc rounds moved by 10-12 % between stretches and the fastest by 18-24 %
    (a fastest memory-bound call is a rare event); for geodesic rounds the
    two moved alike, 12-15 %."""
    return [statistics.median(col) for col in zip(*rows)]


def _of_kind(results: list, kind: str) -> list:
    return [r for r in results if r["kind"] == kind]


def end_to_end(setup: list, own_phase: str, results: dict) -> dict:
    geo = results["geodesic"]
    volume = _of_kind(results["mc"], "volume")
    box = _of_kind(results["mc"], "box")
    # every job of a phase runs the same inputs, so the per-round counts
    # (ok operations, points, relative errors) are the same in each
    op_s = _median_each([t for r in geo for t in r["op_s"]])
    box_s = _median_each([t for r in box for t in r["box_s"]])
    volume_s = _median_each([t for r in volume for t in r["volume_s"]])
    values = {
        "setup_s": statistics.median(setup),
        # of the timed workers (the one-off point check is left out)
        "peak_rss_mb": max(r["rss_mb"] for r in results[own_phase] if r["kind"] != "points"),
        "queries_per_s": geo[0]["ok_per_round"] / sum(op_s),
        "diamond_sample.points_per_s": sum(box[0]["points"]) / sum(box_s),
        "volume_mc.s_to_rse_1e-3": sum(t * f for t, f in zip(volume_s, volume[0]["rse2"])),
        "hausdorff.wall_s": statistics.median(r["wall_s"] for r in results["hausdorff"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _unit_averages(units: list) -> dict:
    """The average per unit of a list of alike units (one kind of round):
    span [calls, seconds, self seconds], counts, rows and passed rows."""
    spans, tallies = {}, ({}, {}, {})
    for u in units:
        for name, vals in u["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for j, x in enumerate(vals):
                acc[j] += x
        for src, dst in zip((u["counts"], u["rows"], u["passed"]), tallies):
            for key, x in src.items():
                dst[key] = dst.get(key, 0) + x
    # sum first and divide once, so that whole counts average exactly
    n = len(units)
    out = {"spans": {k: [x / n for x in v] for k, v in spans.items()}}
    for key, tally in zip(("counts", "rows", "passed"), tallies):
        out[key] = {k: x / n for k, x in tally.items()}
    return out


def per_layer(own_phase: str, results: dict) -> dict:
    """The per-layer metrics: for each kind of round (geodesic, mc volume,
    mc sampling, Hausdorff CLI run), the average traced unit of that kind,
    summed over the kinds."""
    units = {}
    for res in results.values():
        for r in res:
            for u in r.get("units", []):
                units.setdefault(u["kind"], []).append(u)
    by_kind = {kind: _unit_averages(us) for kind, us in units.items()}
    spans, counts, rows, passed = {}, {}, {}, {}
    for avg in by_kind.values():
        for name, vals in avg["spans"].items():
            acc = spans.setdefault(name, [0.0, 0.0, 0.0])
            for j, x in enumerate(vals):
                acc[j] += x
        for key, dst in (("counts", counts), ("rows", rows), ("passed", passed)):
            for k, x in avg[key].items():
                dst[k] = dst.get(k, 0.0) + x

    def calls(name):
        return spans.get(name, [0.0])[0]

    def seconds(name):
        return spans.get(name, [0.0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    def self_s(module):
        return sum(v[2] for k, v in spans.items() if k.startswith(module + "."))

    def points(name):
        return sum(x for k, x in rows.items() if k.split("|")[0] == name)

    def acceptance(key):
        return ratio(passed.get(key, 0.0), rows.get(key, 0.0))

    exact = "sr_metric._distance_from_origin"
    fast = "sr_metric._distance_fast"
    member = "sr_metric._diamond_membership"
    # heisenberg_core calls of the geodesic rounds only: the mc and Hausdorff
    # phases also call it, but not per query
    geo_spans = by_kind.get("geodesic", {"spans": {}})["spans"]
    core_calls = sum(v[0] for k, v in geo_spans.items() if k.startswith("heisenberg_core."))
    queries = results["geodesic"][0]["queries"]
    traced, untraced = {}, {}
    for r in results[own_phase]:
        traced.setdefault(r["kind"], []).extend(r.get("traced_s", []))
        untraced.setdefault(r["kind"], []).extend(r.get("untraced_s", []))
    kinds = [k for k in traced if traced[k] and untraced[k]]
    overhead = ratio(
        sum(statistics.median(traced[k]) for k in kinds),
        sum(statistics.median(untraced[k]) for k in kinds),
    )
    metrics = [
        ("geodesics.self_s", "s", self_s("geodesics")),
        ("geodesics.tau.us_per_call", "us", 1e6 * ratio(seconds("geodesics.tau"), calls("geodesics.tau"))),
        ("geodesics.log.us_per_call", "us", 1e6 * ratio(seconds("geodesics.log"), calls("geodesics.log"))),
        ("geodesics.bending.evals_per_solve", "count",
         ratio(counts.get("geodesics._vertical_ratio", 0.0), calls("geodesics._solve_bending"))),
        ("minkowski_iso.self_s", "s", self_s("minkowski_iso")),
        ("minkowski_iso.solve.us_per_call", "us",
         1e6 * ratio(seconds("minkowski_iso.solve"), calls("minkowski_iso.solve"))),
        ("minkowski_iso.area.evals_per_solve", "count",
         ratio(counts.get("minkowski_iso.hyperbola_area", 0.0), calls("minkowski_iso.solve_vertex"))),
        ("heisenberg_core.self_s", "s", self_s("heisenberg_core")),
        ("heisenberg_core.calls_per_query", "count", core_calls / queries),
        ("sr_metric.exact_distance.points", "count", points(exact)),
        ("sr_metric.exact_distance.ns_per_point", "ns", 1e9 * ratio(seconds(exact), points(exact))),
        ("sr_metric.arc_angle.evals_per_solve", "count",
         ratio(counts.get("sr_metric._arc_ratio", 0.0), calls("sr_metric._solve_arc_angle"))),
        ("sr_metric.fast_distance.points", "count", points(fast)),
        ("sr_metric.fast_distance.ns_per_point", "ns", 1e9 * ratio(seconds(fast), points(fast))),
        ("measure.greedy_net_s", "s", seconds("measure._greedy_net")),
        ("measure.greedy_net.pairs_tested", "count", rows.get(f"{fast}|measure._greedy_net", 0.0)),
        ("sr_metric.inner_radius_s", "s", seconds("sr_metric.unit_diamond_inner_radius")),
        ("measure.half_ball_s", "s", seconds("measure._half_ball_points")),
        ("measure.half_ball.acceptance", "ratio", acceptance(f"{exact}|measure._half_ball_points")),
        ("measure.unit_ball_volume_s", "s", seconds("measure._unit_ball_volume")),
        ("sr_metric.membership.points", "count", points(member)),
        ("sr_metric.membership.ns_per_point", "ns", 1e9 * ratio(seconds(member), points(member))),
        ("sr_metric.sample_diamond.acceptance", "ratio", acceptance(f"{member}|sr_metric.sample_diamond")),
        ("measure.volume_mc.acceptance", "ratio", acceptance(f"{member}|measure.diamond_volume_mc")),
        ("measure.volume_mc_s", "s", seconds("measure.diamond_volume_mc")),
        ("sr_metric.self_s", "s", self_s("sr_metric")),
        ("measure.self_s", "s", self_s("measure")),
        ("curvature.self_s", "s", self_s("curvature")),
        ("cli.self_s", "s", self_s("cli")),
        ("trace.overhead_ratio", "ratio", overhead),
    ]
    return {name: {"value": float(value), "unit": unit} for name, unit, value in metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spans_dir=None):
    own_phase = WORKLOADS[name]
    setup, results = run_phases(own_phase, seed, seconds, trace, spans_dir)
    # attempted/failed count the own phase: a side probe's geodesic rounds
    # hold the same fault operations, and a failed mc or Hausdorff call is
    # also flagged as wrong by the worker
    own =[r for r in results[own_phase] if r["kind"] != "points"]
    wrong = [f"{phase}:{w}" for phase, res in results.items() for r in res for w in r["wrong"]]
    if trace:
        metrics = per_layer(own_phase, results)
    else:
        metrics = end_to_end(setup, own_phase, results)
    result = {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in own),
        "failed": sum(r["failed"] for r in own),
        "metrics": metrics,
    }
    absent = sorted({a for res in results.values() for r in res for a in r.get("absent", [])})
    return result, wrong, absent


def _record(path: str, args, results: dict):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        ).stdout.strip() or None
    except OSError:
        sha = None
    record = {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": results,
    }
    Path(path).write_text(json.dumps(record, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the results and run facts as JSON here")
    parser.add_argument("--spans", help="directory for the span records of each traced phase")
    args = parser.parse_args(argv)
    if not (SRC / "heislor" / "__init__.py").is_file():
        print(f"error: no heislor sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.spans:
        Path(args.spans).mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, wrong, absent = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.spans
            )
            results[name] = result
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            if wrong:
                print(f"  wrong outputs: {', '.join(wrong)}", file=sys.stderr)
            if absent:
                print(f"  absent from heislor: {', '.join(absent)}", file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record:
        _record(args.record, args, results)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
