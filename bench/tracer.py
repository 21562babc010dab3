"""Spans and counters around heislor's module boundaries, from outside.

install() replaces module attributes with wrappers; nothing in heislor is
edited.  A span records (name, start, end, parent, query id) for one call of
a boundary function; counted functions, the inner steps of the scalar
solvers, only bump a counter because a span per step would cost more than
the step.  A name listed here that heislor no longer has is reported as
absent.  Spans stay in memory until flush(), which the worker calls once per
unit of work (a round, or one CLI run) to turn them into per-unit totals.
The span stack is shared, so tracing assumes heislor runs one thread, as it
does with HEIS_SLOR_THREADS unset.
"""

from __future__ import annotations

import collections
import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "heisenberg_core",
    "minkowski_iso",
    "geodesics",
    "sr_metric",
    "measure",
    "curvature",
    "cli",
)

SPANS = {
    "heisenberg_core": (
        "make_curve", "group_mul", "group_inv", "dilate", "causal_class",
        "in_causal_future", "in_chronological_future", "signed_area", "lift",
        "lorentzian_length",
    ),
    "minkowski_iso": (
        "classify", "boost_to_axis", "hyperbola_ordinate", "solve_vertex",
        "solve", "sample_solution",
    ),
    "geodesics": (
        "exp_point", "exp_jacobian_det", "log", "tau", "geodesic_between",
        "past_exp", "midpoint_map", "geodesic_inversion",
        "cut_additivity_check", "_solve_bending",
    ),
    "sr_metric": (
        "sr_distance", "box_contains", "sample_diamond", "diamond_in_box_check",
        "unit_diamond_inner_radius", "ball_in_diamond", "_solve_arc_angle",
        "_stretch_table", "_distance_from_origin", "_distance_fast",
        "_diamond_membership",
    ),
    "measure": (
        "diamond_volume_closed", "diamond_volume_mc", "growth_ratio_scan",
        "hausdorff_bounds", "dimension_probe", "_unit_ball_volume",
        "_half_ball_points", "_greedy_net", "_net_size",
    ),
    "curvature": (
        "distortion_tau", "tmcp_jacobian_ratio", "tmcp_violation_report",
        "midpoint_det_check", "juillet_contradiction", "bm_inequality_eval",
        "appendix_limit_scan",
    ),
    "cli": ("run", "build_parser"),
}

# scalar solver steps: counted, not timed
COUNTED = {
    "geodesics": ("_vertical_ratio",),
    "minkowski_iso": ("hyperbola_area",),
    "sr_metric": ("_arc_ratio",),
}


def _rows(a) -> int:
    shape = np.shape(a)
    return shape[0] if len(shape) == 2 else 1


# Bulk kernels: the span also records rows in, and rows that passed, keyed
# by the nearest enclosing caller in CONTEXTS.  For the exact distance a row
# passes when it lies in B(0, 1/2), the set _half_ball_points samples.
SIZED = {
    "sr_metric._distance_from_origin": lambda out: int(np.count_nonzero(out <= 0.5)),
    "sr_metric._distance_fast": lambda out: 0,
    "sr_metric._diamond_membership": lambda out: int(np.count_nonzero(out)),
}
CONTEXTS = (
    "sr_metric.sample_diamond",
    "measure.diamond_volume_mc",
    "measure._half_ball_points",
    "measure._greedy_net",
)


class Tracer:
    def __init__(self):
        self.query = -1  # id of the operation being run, set by the worker
        self.names: list = []
        self._ids: dict = {}
        self._stack = [-1]
        self._patched: list = []
        self.absent: list = []
        self._clear()

    def _clear(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.qid = array("i")
        self.counts = collections.Counter()
        self.rows = collections.Counter()
        self.passed = collections.Counter()

    def _context(self, stack) -> str:
        for i in reversed(stack[1:]):
            name = self.names[self.name[i]]
            if name in CONTEXTS:
                return name
        return ""

    def _span(self, fn, label: str):
        nid = self._ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        passes = SIZED.get(label)

        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.qid.append(self.query)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if passes is not None:
                key = (label, self._context(stack))
                self.rows[key] += _rows(args[0])
                self.passed[key] += passes(out)
            return out

        return wrapper

    def _counter(self, fn, label: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed name, in every heislor namespace that holds it
        (modules import each other's functions by name)."""
        mods = {m: importlib.import_module(f"heislor.{m}") for m in MODULES}
        wrappers = {}
        for kinds, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for mod, names in kinds.items():
                for name in names:
                    fn = getattr(mods[mod], name, None)
                    label = f"{mod}.{name}"
                    if fn is None:
                        self.absent.append(label)
                        continue
                    wrappers[id(fn)] = make(fn, label)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def flush(self) -> dict:
        """Totals of the spans and counters since the last flush, then clear.

        Per span name: calls, inclusive seconds and self seconds (duration
        minus the part covered by child spans).
        """
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        dur = np.frombuffer(self.end, dtype=float, count=n) - start
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        spans = {
            label: [int(calls[i]), float(total[i]), float(own[i])]
            for i, label in enumerate(self.names)
            if calls[i]
        }
        out = {
            "spans": spans,
            "counts": dict(self.counts),
            "rows": {"|".join(key): v for key, v in self.rows.items()},
            "passed": {"|".join(key): v for key, v in self.passed.items()},
        }
        self._clear()
        return out

    def span_records(self) -> list:
        """The spans held now, as (name, start, end, parent, query id)."""
        return [
            (self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.qid[i])
            for i in range(len(self.start))
        ]
