"""Seeded inputs for the three workloads.

Each generator turns a workload seed into plain data (floats, ints, strings)
that the worker hands to heislor.  The mixes are stratified: every seed
draws the same number of operations of each kind from the same strata of
bending, tilt and scale, so seeds change the points but not the make-up of
the work, and a round costs about the same on every seed.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

# operations per geodesic-queries round, by kind
GEODESIC_MIX = (
    ("tau", 160),
    ("log_exp", 80),
    ("geodesic", 40),
    ("geodesic_null", 10),
    ("midpoint", 40),
    ("inversion", 40),
    ("cut_additivity", 30),
    ("iso_solve", 60),
    ("sr_distance", 20),
    ("curvature", 10),
)

# Operations that fail on the current code, with fixed inputs so that every
# round holds the same number of them: 10 of 500 operations, 2 %.
# - dilation homogeneity tau(0, d_lam q) / lam = tau(0, q) at lam <= 1e-6,
#   where the absolute null tolerance in heisenberg_core swallows the cone;
# - non-finite coordinates, which tau answers with 0.0 instead of an error.
DILATION_BASE = (1.0, 0.2, 0.05)
DILATION_LAMBDAS = (1e-8, 3e-8, 1e-7, 3e-7, 1e-6)
NONFINITE_PAIRS = (
    (("nan", 0.0, 0.0), (1.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), ("inf", 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (1.0, "nan", 0.0)),
    ((0.0, 0.0, 0.0), (1.0, 0.0, "inf")),
    (("-inf", 0.0, 0.0), (0.0, 0.0, 0.0)),
)
NULL_GEODESIC_SAMPLES = 129

# mc-diamonds: one diamond per stratum of (|bending w|, |rapidity|) of its
# vertex; the first three are axis diamonds, the rest are boosted
DIAMOND_STRATA = (
    ((0.0, 0.0), (0.0, 0.0)),
    ((1.95, 2.05), (0.0, 0.0)),
    ((2.95, 3.05), (0.0, 0.0)),
    ((0.0, 0.0), (0.40, 0.42)),
    ((0.95, 1.05), (0.25, 0.27)),
    ((2.45, 2.55), (0.50, 0.52)),
    ((3.85, 3.95), (0.15, 0.17)),
    ((0.45, 0.55), (0.60, 0.62)),
)
DIAMOND_POINTS = 4000
# the sampler's points are checked on one larger draw per run
CHECK_POINTS = 12000
VOLUME_DRAWS = 1 << 19

HAUSDORFF_DELTA = 0.4
HAUSDORFF_SAMPLES = 50000
# The other workloads time the same pipeline (half ball, unit-ball volume,
# inner radius, three nets) on a tenth of the sample, about 7 s instead of
# 25 s, to keep a run of them near 30 s; the cover-sum trends in d need the
# full sample and are checked only there.
HAUSDORFF_SIDE_SAMPLES = 5000


def _signed_bendings(rng, n: int, lo_exp: float, hi: float) -> list:
    # one |w| per stratum of log10|w| over [lo_exp, log10 hi], random sign:
    # spreads bending from the series branch (|w| < 1e-4) to large |w|
    edges = np.linspace(lo_exp, math.log10(hi), n + 1)
    logs = edges[:-1] + rng.uniform(0.0, 1.0, n) * np.diff(edges)
    signs = rng.choice((-1.0, 1.0), n)
    return [float(s * 10.0 ** e) for s, e in zip(signs, logs)]


def _velocity(rng):
    u = float(rng.uniform(0.3, 3.0))
    return u, float(rng.uniform(-0.9, 0.9) * u)


def _point(rng, sd: float = 1.0):
    return tuple(float(c) for c in rng.normal(0.0, sd, 3))


def _geodesic_ops(rng, kind: str, n: int) -> list:
    wmax = 6.0 if kind == "cut_additivity" else 8.0
    ops = []
    for w in _signed_bendings(rng, n, -6.0, wmax):
        u, v = _velocity(rng)
        p = _point(rng)
        op = {"kind": kind, "param": (u, v, w)}
        if kind in ("tau", "geodesic"):
            op.update(p=p, q=oracles.mul(p, oracles.exp_point(u, v, w)))
        elif kind == "midpoint":
            op.update(p=p, anchor=oracles.mul(p, oracles.exp_point(u, v, w)))
        elif kind == "inversion":
            t = 1.0 if len(ops) % 2 == 0 else -1.0
            op.update(center=p, x=oracles.mul(p, oracles.exp_point(u, v, w, t)), t=t)
        elif kind == "cut_additivity":
            # one t in each of three separated strata: two t closer than
            # about 1e-6 make tau(g(t1), g(t2)) fall under heislor's absolute
            # null tolerance, the fault the fixed dilation operations count
            lo, hi = np.array([0.0, 0.55, 1.05]), np.array([0.45, 0.95, 1.5])
            op.update(t=tuple(float(t) for t in rng.uniform(lo, hi)))
        elif kind == "iso_solve":
            op.update(q=oracles.exp_point(u, v, w))
        elif kind == "geodesic_null":
            # endpoint on the null boundary -a^2 + b^2 + 4|c| = 0
            c = math.copysign(0.25 * (u - v) * (u + v), w)
            op.update(p=p, q=oracles.mul(p, (u, v, c)))
        elif kind == "sr_distance":
            phi = float(rng.uniform(0.01, 5.5))
            r, length = oracles.arc_endpoint(
                float(rng.uniform(0.2, 2.0)),
                float(rng.uniform(0.0, 2.0 * math.pi)),
                phi,
                math.copysign(1.0, w),
            )
            op.update(p=p, q=oracles.mul(p, r), length=length)
        elif kind == "curvature":
            if len(ops) % 5 == 4:
                op = {"kind": "midpoint_det"}
            else:
                op = {
                    "kind": "tmcp",
                    "t": float(rng.choice((0.25, 0.5, 0.75))),
                    "N": float(rng.uniform(1.0, 10.0)),
                }
        ops.append(op)
    return ops


def geodesic_round(seed: int) -> list:
    """One round of geodesic-queries: 490 seeded queries and the 10 fixed
    fault operations, in shuffled order."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for kind, n in GEODESIC_MIX:
        ops.extend(_geodesic_ops(rng, kind, n))
    ops.extend({"kind": "fault_dilation", "lam": lam} for lam in DILATION_LAMBDAS)
    ops.extend({"kind": "fault_nonfinite", "p": p, "q": q} for p, q in NONFINITE_PAIRS)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _axis_velocity(T: float, w: float, eta: float):
    # initial velocity of the geodesic with bending w from 0 to the vertex
    # (T, 0, c), boosted by rapidity eta; boosts fix z and commute with exp
    if w == 0.0:
        ua, va = T, 0.0
    else:
        ua, va = 0.5 * T * w / math.tanh(0.5 * w), -0.5 * T * w
    ch, sh = math.cosh(eta), math.sinh(eta)
    return ua * ch + va * sh, ua * sh + va * ch


def diamond_set(seed: int) -> list:
    """The mc-diamonds round: one diamond J(p, p * exp(u, v, w)) per stratum,
    of time separation T in [0.5, 2], translated by a random p, with the RNG
    seeds heislor samples with."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for i, ((w_lo, w_hi), (e_lo, e_hi)) in enumerate(DIAMOND_STRATA):
        T = float(rng.uniform(0.5, 2.0))
        w = float(rng.choice((-1.0, 1.0)) * rng.uniform(w_lo, w_hi))
        eta = float(rng.choice((-1.0, 1.0)) * rng.uniform(e_lo, e_hi))
        u, v = _axis_velocity(T, w, eta)
        p = _point(rng)
        out.append(
            {
                "param": (u, v, w),
                "p": p,
                "q": oracles.mul(p, oracles.exp_point(u, v, w)),
                "points": DIAMOND_POINTS,
                "check_points": CHECK_POINTS,
                "draws": VOLUME_DRAWS,
                "seed": int(rng.integers(0, 2 ** 31)) + i,
            }
        )
    return out


def hausdorff_args(seed: int, samples: int = HAUSDORFF_SAMPLES) -> list:
    """Arguments of `heislor hausdorff` for one seed: a random centre (the
    cover sums are left-invariant), unit radius and delta 0.4."""
    rng = np.random.default_rng([seed, 3])
    center = [repr(float(c)) for c in rng.normal(0.0, 1.0, 3)]
    return [
        "hausdorff",
        "--center",
        *center,
        "--radius",
        "1.0",
        "--delta",
        repr(HAUSDORFF_DELTA),
        "--samples",
        str(samples),
        "--seed",
        str(int(rng.integers(0, 2 ** 31))),
    ]
