"""Numerical sub-Lorentzian geometry of the Heisenberg group.

Causal structure, length-maximizing geodesics through the planar Lorentzian
isoperimetric problem, the exponential map and its inverse (time separation),
diamond volumes, Lorentzian Hausdorff measure bounds, and evaluators for the
synthetic curvature-dimension inequalities that fail on this space.
"""

from heislor.heisenberg_core import (
    Event,
    CausalClass,
    SampledCurve,
    Diamond,
    NULL_TOL,
    NotCausalError,
    group_mul,
    group_inv,
    dilate,
    causal_class,
    in_causal_future,
    in_chronological_future,
    signed_area,
    lift,
    lorentzian_length,
)

__version__ = "0.1.0"

__all__ = [
    "Event",
    "CausalClass",
    "SampledCurve",
    "Diamond",
    "NULL_TOL",
    "NotCausalError",
    "group_mul",
    "group_inv",
    "dilate",
    "causal_class",
    "in_causal_future",
    "in_chronological_future",
    "signed_area",
    "lift",
    "lorentzian_length",
]
