"""Phases of a workload, run in a worker process.

    python worker.py setup T0     time from T0 (time.monotonic() taken by the
                                  parent just before starting this process)
                                  until heislor.cli is imported and the lazy
                                  stretch table is built
    python worker.py              read geodesic, mc or hausdorff jobs from
                                  stdin, one JSON line each, and answer each
                                  with one JSON line, until stdin closes

A job holds the generated inputs only; the worker calls heislor on them,
times the calls and checks the outputs with checks.py.  A phase runs whole
rounds of the same operations until `budget_s` has passed and at least
`min_rounds` are done.  With
"trace": "alternate" every second round runs under the tracer, so the
same process also gives the untraced time the tracing overhead is taken
against; "on" traces every round.  Each traced round leaves one unit of
span totals (tracer.Tracer.flush).

Every result has the fields of Phase.result; each phase adds its own:
geodesic "op_s", "ok_per_round", "queries"; mc volume "volume_s",
"rse2"; mc box "box_s", "points"; hausdorff "wall_s".  Per-operation and
per-diamond lists are in input order, so run.py can take the median of
each across rounds and workers.
"""

import sys
import time

if __name__ == "__main__" and sys.argv[1:2] == ["setup"]:
    t0 = float(sys.argv[2])
    import heislor.cli  # noqa: F401
    from heislor import sr_metric

    table = getattr(sr_metric, "_stretch_table", None)
    if table is not None:
        table()
    print(time.monotonic() - t0)
    sys.exit(0)

import contextlib
import io
import json
from time import perf_counter

import checks
import oracles
from tracer import Tracer


def _geodesic_calls(ops: list) -> list:
    from heislor import curvature, geodesics, heisenberg_core, minkowski_iso, sr_metric

    Event = heisenberg_core.Event
    GeoParam = geodesics.GeoParam
    origin = Event(0.0, 0.0, 0.0)

    def ev(p):
        return Event(*(float(c) for c in p))

    def bind(op):
        kind = op["kind"]
        if kind == "tau" or kind == "fault_nonfinite":
            p, q = ev(op["p"]), ev(op["q"])
            return lambda: geodesics.tau(p, q)
        if kind == "log_exp":
            par = GeoParam(*op["param"])
            return lambda: geodesics.log(geodesics.exp_point(par, 1.0))
        if kind == "geodesic":
            p, q = ev(op["p"]), ev(op["q"])
            return lambda: geodesics.geodesic_between(p, q)
        if kind == "geodesic_null":
            from inputs import NULL_GEODESIC_SAMPLES as n

            p, q = ev(op["p"]), ev(op["q"])
            return lambda: geodesics.geodesic_between(p, q, n=n)
        if kind == "midpoint":
            anchor, p = ev(op["anchor"]), ev(op["p"])
            return lambda: geodesics.midpoint_map(anchor, p)
        if kind == "inversion":
            center, x = ev(op["center"]), ev(op["x"])
            return lambda: geodesics.geodesic_inversion(center, x)
        if kind == "cut_additivity":
            par, ts = GeoParam(*op["param"]), op["t"]
            return lambda: geodesics.cut_additivity_check(par, *ts)
        if kind == "iso_solve":
            prob = minkowski_iso.IsoProblem(*op["q"])
            return lambda: minkowski_iso.solve(prob)
        if kind == "sr_distance":
            p, q = ev(op["p"]), ev(op["q"])
            return lambda: sr_metric.sr_distance(p, q)
        if kind == "tmcp":
            t, N = op["t"], op["N"]
            return lambda: curvature.tmcp_violation_report(t, N)
        if kind == "midpoint_det":
            return curvature.midpoint_det_check
        if kind == "fault_dilation":
            lam = op["lam"]
            from inputs import DILATION_BASE as base

            return lambda: (
                geodesics.tau(origin, heisenberg_core.dilate(lam, base)) / lam,
                geodesics.tau(origin, base),
            )
        raise ValueError(f"unknown operation kind {kind!r}")

    return [bind(op) for op in ops]


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started the worker.

    ru_maxrss is not used: Linux carries the parent's peak over into a child
    through fork and exec, so it reads at least run.py's own peak.  VmHWM
    belongs to the address space exec made.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def write_spans(path: str, records: list):
    """One span per line: [name, start, end, parent index, query id]."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


_warm = False  # whether this process has run a round


class Phase:
    """Round bookkeeping shared by the geodesic and mc phases."""

    def __init__(self, job: dict):
        self.job = job
        self.tracer = Tracer() if job["trace"] != "off" else None
        # units and round times are keyed by the kind of round, so that
        # averages never mix, say, volume rounds with sampling rounds
        self.kind = job.get("part", job["phase"])
        self.units: list = []
        self.traced_s: list = []
        self.untraced_s: list = []
        self.round_s: list = []
        self.verdicts: dict = {}
        self.wrong: list = []
        self.spans = None
        self._t_end = perf_counter() + job["budget_s"]

    def more(self) -> bool:
        k = len(self.round_s)
        return k < self.job["min_rounds"] or perf_counter() < self._t_end

    def begin(self) -> bool:
        """Start a round; returns whether it runs under the tracer."""
        mode = self.job["trace"]
        on = mode == "on" or (mode == "alternate" and len(self.round_s) % 2 == 1)
        if on:
            self.tracer.install()
        return on

    def end(self, on: bool, seconds: float):
        # the process's first round pays its first allocations, so it does
        # not count towards the tracing overhead
        global _warm
        if on:
            self.traced_s.append(seconds)
        elif _warm:
            self.untraced_s.append(seconds)
        _warm = True
        self.round_s.append(seconds)
        if on:
            self.tracer.uninstall()
            if self.spans is None and self.job.get("spans_path"):
                self.spans = self.tracer.span_records()
            self.units.append(dict(self.tracer.flush(), kind=self.kind))

    def verdict(self, what: str, v: str):
        # every round runs the same operations: the first round's verdicts
        # are the round's, and later rounds must agree with them
        if len(self.round_s) == 1:
            self.verdicts[what] = v
        elif self.verdicts.get(what) != v:
            self.verdicts[what] = v = "wrong"
        if v == "wrong":
            self.flag(what)

    def flag(self, what: str):
        if what not in self.wrong:
            self.wrong.append(what)

    def result(self, **extra) -> dict:
        if self.spans is not None:
            write_spans(self.job["spans_path"], self.spans)
        verdicts = list(self.verdicts.values())
        return dict(
            kind=self.kind,
            attempted=len(verdicts) * len(self.round_s),
            failed=verdicts.count("fail") * len(self.round_s),
            wrong=self.wrong[:5],
            traced_s=self.traced_s,
            untraced_s=self.untraced_s,
            units=self.units,
            absent=self.tracer.absent if self.tracer else [],
            rss_mb=peak_rss_mb(),
            **extra,
        )


def run_geodesic(job: dict) -> dict:
    ops = job["payload"]
    calls = _geodesic_calls(ops)
    phase = Phase(job)
    times = []  # per untraced round, per operation
    while phase.more():
        on = phase.begin()
        tracer = phase.tracer
        outs, op_s = [], []
        t0 = perf_counter()
        for i, call in enumerate(calls):
            if on:
                tracer.query = i
            t1 = perf_counter()
            try:
                outs.append((False, call()))
            except Exception as exc:  # an operation that fails is counted
                outs.append((True, exc))
            op_s.append(perf_counter() - t1)
        phase.end(on, perf_counter() - t0)
        if not on:
            times.append(op_s)
        for i, (op, (raised, out)) in enumerate(zip(ops, outs)):
            phase.verdict(f"{i}:{op['kind']}", checks.geodesic_op(op, raised, out))
    return phase.result(
        queries=len(ops),
        ok_per_round=list(phase.verdicts.values()).count("pass"),
        op_s=times,
    )


def check_points(job: dict) -> dict:
    """The sampler's points for each diamond, drawn once, untimed, in a
    worker of its own so that the draw does not count in peak_rss_mb."""
    from heislor import sr_metric

    wrong = []
    for i, d in enumerate(job["payload"]):
        rel = oracles.mul(oracles.inv(d["p"]), d["q"])
        pts = sr_metric.sample_diamond(rel, d["check_points"], d["seed"])
        if not checks.diamond_points(d, rel, pts):
            wrong.append(f"{i}:points")
    return dict(kind="points", wrong=wrong)


def run_mc(job: dict) -> dict:
    """Rounds of diamond_volume_mc ("part": "volume") or of
    diamond_in_box_check ("part": "box") over the diamond set."""
    from heislor import measure, sr_metric
    from heislor.heisenberg_core import Event

    if job["part"] == "points":
        return check_points(job)
    diamonds = job["payload"]
    prepared = [(Event(*d["p"]), Event(*d["q"]), d) for d in diamonds]
    volume = job["part"] == "volume"
    phase = Phase(job)
    times = []  # per round, per diamond
    points, rse2 = [], []
    while phase.more():
        on = phase.begin()
        outs, t_op = [], []
        t0 = perf_counter()
        for i, (p, q, d) in enumerate(prepared):
            if on:
                phase.tracer.query = i
            t1 = perf_counter()
            try:
                if volume:
                    outs.append(measure.diamond_volume_mc(p, q, d["draws"], d["seed"]))
                else:
                    outs.append(sr_metric.diamond_in_box_check(p, q, d["points"], d["seed"]))
            except Exception as exc:
                outs.append(exc)
            t_op.append(perf_counter() - t1)
        phase.end(on, perf_counter() - t0)
        if not on:
            times.append(t_op)
        check = checks.volume_estimate if volume else checks.box_report
        points, rse2 = [], []
        for i, ((p, q, d), out) in enumerate(zip(prepared, outs)):
            rel = oracles.mul(oracles.inv(p), q)
            what = f"{i}:{job['part']}"
            if isinstance(out, Exception):
                # counted as failed, and the run is incorrect: the metric
                # sums over every diamond, and a missing term would read
                # as a speed-up
                phase.verdict(what, "fail")
                phase.flag(f"{what} raised {type(out).__name__}")
                continue
            phase.verdict(what, "pass" if check(d, rel, out) else "wrong")
            if volume:
                rse2.append((out.stderr / out.value / 1e-3) ** 2)
            else:
                points.append(out["samples"])
    if volume:
        return phase.result(volume_s=times, rse2=rse2)
    return phase.result(box_s=times, points=points)


def run_hausdorff(job: dict) -> dict:
    from heislor import cli

    spec = job["payload"]
    tracer = Tracer() if job["trace"] != "off" else None
    if tracer:
        tracer.install()
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(spec["argv"])
    wall = perf_counter() - t0
    units = []
    if tracer:
        tracer.uninstall()
        if job.get("spans_path"):
            write_spans(job["spans_path"], tracer.span_records())
        units.append(dict(tracer.flush(), kind="hausdorff"))
    # a run that fails leaves hausdorff.wall_s undefined, so it also makes
    # the run incorrect
    if rc != 0:
        wrong = [f"hausdorff exited {rc}"]
    elif checks.hausdorff_table(buf.getvalue(), spec["radius"], spec["delta"], spec["trends"]):
        wrong = []
    else:
        wrong = ["hausdorff table"]
    return dict(
        kind="hausdorff",
        attempted=1,
        failed=int(rc != 0),
        wrong=wrong,
        traced_s=[wall] if tracer else [],
        untraced_s=[] if tracer else [wall],
        units=units,
        absent=tracer.absent if tracer else [],
        rss_mb=peak_rss_mb(),
        wall_s=wall,
    )


PHASES = {"geodesic": run_geodesic, "mc": run_mc, "hausdorff": run_hausdorff}


def main() -> None:
    out = sys.stdout
    sys.stdout = sys.stderr  # anything heislor prints stays out of the answers
    for line in sys.stdin:
        job = json.loads(line)
        out.write(json.dumps(PHASES[job["phase"]](job)) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
