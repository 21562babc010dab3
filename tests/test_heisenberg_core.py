"""Group structure, causal predicates, curve primitives."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislor.heisenberg_core import (
    NULL_TOL,
    ORIGIN,
    Event,
    NotCausalError,
    NotChronologicalError,
    causal_class,
    dilate,
    group_inv,
    group_mul,
    in_causal_future,
    in_chronological_future,
    lift,
    lorentzian_length,
    make_curve,
    signed_area,
)
from heislor.sr_metric import BoxSpec, box_contains

coord = st.floats(-50.0, 50.0)
point = st.tuples(coord, coord, coord).map(lambda t: Event(*t))


def test_group_identity_and_inverse():
    p = Event(1.2, -0.7, 0.3)
    assert group_mul(p, ORIGIN) == p
    assert group_mul(ORIGIN, p) == p
    q = group_mul(p, group_inv(p))
    assert q == ORIGIN


def test_group_product_twist_term():
    # (1,0,0)*(0,1,0) = (1,1,1/2) while the reversed product flips the z sign
    a = group_mul(Event(1, 0, 0), Event(0, 1, 0))
    b = group_mul(Event(0, 1, 0), Event(1, 0, 0))
    assert a == Event(1.0, 1.0, 0.5)
    assert b == Event(1.0, 1.0, -0.5)


@settings(max_examples=100, deadline=None)
@given(point, point, point)
def test_group_associative(p, q, r):
    left = group_mul(group_mul(p, q), r)
    right = group_mul(p, group_mul(q, r))
    assert np.allclose(left, right, rtol=0.0, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(point, point, st.floats(0.01, 10.0))
def test_dilation_is_automorphism(p, q, lam):
    left = dilate(lam, group_mul(p, q))
    right = group_mul(dilate(lam, p), dilate(lam, q))
    assert np.allclose(left, right, rtol=1e-12, atol=1e-9)


def test_dilate_rejects_nonpositive():
    with pytest.raises(ValueError):
        dilate(0.0, ORIGIN)
    with pytest.raises(ValueError):
        dilate(-1.0, Event(1, 0, 0))


def test_causal_class_tags():
    assert causal_class((1.0, 0.2)) == ("timelike", True)
    assert causal_class((-1.0, 0.2)) == ("timelike", False)
    assert causal_class((1.0, 1.0)) == ("null", True)
    assert causal_class((0.5, 0.9)) == ("spacelike", False)
    assert causal_class((0.0, 0.0)).tag == "zero"


def test_causal_future_basic_membership():
    # defect -x^2 + y^2 + 4|z| decides membership in J+(0)
    assert in_causal_future(ORIGIN, Event(2, 0, 1))  # null boundary
    assert in_causal_future(ORIGIN, Event(2, 0, 0.5))
    assert in_chronological_future(ORIGIN, Event(2, 0, 0.5))
    assert not in_chronological_future(ORIGIN, Event(2, 0, 1))
    assert not in_causal_future(ORIGIN, Event(2, 0, 1.001))
    assert not in_causal_future(ORIGIN, Event(-2, 0, 0))
    assert not in_causal_future(ORIGIN, Event(1, 2, 0))


def test_causal_defect_stability_near_null():
    # x and y agreeing to 12+ digits must not produce false positives
    eps = 1e-13
    assert in_causal_future(ORIGIN, Event(1.0 + eps, 1.0, 0.0))
    assert not in_chronological_future(ORIGIN, Event(1.0 + eps, 1.0, 0.0))


@settings(max_examples=100, deadline=None)
@given(point, point, point)
def test_causal_future_left_invariant(g, p, q):
    fwd = in_causal_future(p, q)
    shifted = in_causal_future(group_mul(g, p), group_mul(g, q))
    assert fwd == shifted


def test_make_curve_validation():
    with pytest.raises(ValueError):
        make_curve([0.0], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        make_curve([0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        make_curve([0.0, 1.0], [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


def test_signed_area_unit_square_ccw():
    c = make_curve(
        [0, 1, 2, 3, 4],
        [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]],
    )
    assert abs(signed_area(c) - 1.0) < 1e-15


def test_signed_area_up_peak_is_negative():
    # broken line (0,0)->(T/2,T/2)->(T,0), closed by the chord back to 0:
    # traversed clockwise, so the shoelace area is -T^2/4
    T = 2.0
    c = make_curve([0, 1, 2], [[0, 0], [T / 2, T / 2], [T, 0]])
    assert abs(signed_area(c) + T * T / 4.0) < 1e-15


def test_signed_area_sampled_circle():
    th = np.linspace(0.0, 2.0 * math.pi, 20001)
    c = make_curve(th, np.column_stack([np.cos(th), np.sin(th)]))
    assert abs(signed_area(c) - math.pi) < 1e-6


def test_lift_matches_area_for_closed_loop():
    th = np.linspace(0.0, 2.0 * math.pi, 5001)
    pts = np.column_stack([np.cos(th) - 1.0, np.sin(th)])
    c = make_curve(th, pts)
    lifted = lift(c, Event(0.0, 0.0, 0.25))
    assert lifted.points.shape == (5001, 3)
    assert abs(lifted.points[0, 2] - 0.25) < 1e-15
    # closed loop: z gain equals the enclosed signed area
    gain = lifted.points[-1, 2] - lifted.points[0, 2]
    assert abs(gain - signed_area(c)) < 1e-9


def test_lift_start_mismatch_raises():
    c = make_curve([0, 1], [[0.5, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        lift(c, ORIGIN)


def test_lift_segment_exact():
    # single straight segment from (0,0) to (1,2): z gain (x dy - y dx)/2 = 0
    c = make_curve([0, 1], [[0.0, 0.0], [1.0, 2.0]])
    lifted = lift(c, ORIGIN)
    assert abs(lifted.points[-1, 2]) < 1e-15
    # shifted segment from (1,0) to (2,0): z gain is zero too (y = 0)
    c2 = make_curve([0, 1], [[1.0, 0.0], [2.0, 0.0]])
    lifted2 = lift(c2, Event(1.0, 0.0, 0.0))
    assert abs(lifted2.points[-1, 2]) < 1e-15


def test_lorentzian_length_straight_and_null():
    c = make_curve([0, 1], [[0.0, 0.0], [2.0, 0.0]])
    assert abs(lorentzian_length(c) - 2.0) < 1e-15
    null = make_curve([0, 1], [[0.0, 0.0], [1.0, 1.0]])
    assert lorentzian_length(null) == 0.0
    bad = make_curve([0, 1], [[0.0, 0.0], [0.5, 1.0]])
    with pytest.raises(NotCausalError):
        lorentzian_length(bad)


def test_lorentzian_length_reverse_triangle_discrete():
    # a dog-leg is shorter than the straight chord (reverse triangle inequality)
    chord = make_curve([0, 1], [[0.0, 0.0], [2.0, 0.4]])
    dogleg = make_curve([0, 0.5, 1], [[0.0, 0.0], [1.0, 0.8], [2.0, 0.4]])
    assert lorentzian_length(dogleg) < lorentzian_length(chord)


def test_predicates_on_arrays_match_float_calls():
    # events near the cone of a random base point, and points near the faces
    # of a box, at scales 1e-8 to 1e8: the array call of each predicate is
    # its float call row by row
    rng = np.random.default_rng(12)
    n = 400
    hits = {in_causal_future: 0, in_chronological_future: 0, box_contains: 0}
    for scale in 10.0 ** np.arange(-8.0, 9.0):
        p = rng.normal(0.0, scale, (n, 3)) * [1.0, 1.0, scale]
        a = scale * rng.uniform(0.0, 2.0, n)
        b = a * rng.choice([-1.0, 1.0], n) * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0, n))
        b[: n // 8] = a[: n // 8] * (1.0 + rng.uniform(-1e-15, 1e-15, n // 8))
        edge = 0.25 * (a - b) * (a + b) * (1.0 + rng.uniform(-1e-12, 1e-12, n))
        r = np.column_stack([a, b, rng.choice([-1.0, 1.0], n) * edge])
        q = np.column_stack(group_mul(p.T, r.T))
        for pred in (in_causal_future, in_chronological_future):
            arr = pred(Event(*p.T), Event(*q.T))
            one = [pred(Event(*u), Event(*v)) for u, v in zip(p.tolist(), q.tolist())]
            assert arr.tolist() == one
            hits[pred] += np.count_nonzero(arr)
        box = BoxSpec(scale)
        pts = rng.choice([-1.0, 1.0], (n, 3)) * [scale, scale, scale * scale]
        pts *= 1.0 + rng.uniform(-1e-13, 1e-13, (n, 3))
        arr = box_contains(box, pts.T)
        assert arr.tolist() == [box_contains(box, u) for u in pts.tolist()]
        hits[box_contains] += np.count_nonzero(arr)
    # the sweep straddles each boundary
    assert all(0.1 < k / (17 * n) < 0.9 for k in hits.values()), hits


def test_not_chronological_message_and_pickle():
    # the message, formatted when read, in each of its shapes, and a pickle
    # round trip that keeps it with the defect and c/T^2
    prefix = "point not in the chronological future"
    shapes = [
        ((0.5, 0.375), prefix + ": defect -a^2 + b^2 + 4|c| = 0.5, c/T^2 = 0.375"),
        ((5.0, None), prefix + ": defect -a^2 + b^2 + 4|c| = 5.0"),
        ((-1e-13, 0.25), prefix + ": defect -a^2 + b^2 + 4|c| = -1e-13, c/T^2 = 0.25"),
        ((None, None), prefix),
    ]
    for (defect, zt), message in shapes:
        err = NotChronologicalError(prefix, defect, zt)
        assert str(err) == message and (err.defect, err.zt) == (defect, zt)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is NotChronologicalError and str(back) == message
        assert (back.defect, back.zt) == (defect, zt)
