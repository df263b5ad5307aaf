import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locus.channel import PathLossParams, expected_rssi
from locus.environment import Anchor, Environment, Point2D, make_environment, true_aoa, true_distance
from locus.trilat import DistanceVector, hybrid_position, trilaterate


def _env(l=13.0, w=13.0):
    return make_environment("room", l, w)


def _fix(anchor, d, theta_deg):
    """The sign-frame fix written out: a + frame * d * (sin theta, cos theta)."""
    sx, sy = anchor.frame
    t = math.radians(theta_deg)
    return anchor.position.x + sx * d * math.sin(t), anchor.position.y + sy * d * math.cos(t)


def test_anchor_estimate_known_values():
    """Hand-worked sign-frame fixes for each anchor.

    The other two anchors get distance 0, so their fixes are their own
    positions and the mean isolates the tested anchor's fix.
    """
    env = _env(10.0, 10.0)
    cases = [
        # anchor 1 at origin, frame (+1, +1): d=5 at 36.87 deg -> (3, 4)
        (1, math.degrees(math.atan2(3.0, 4.0)), (3.0, 4.0)),
        # anchor 2 at (10, 0), frame (+1, -1): the point (7, 4) lies at
        # dx=-3, dy=4; theta = atan2(-3, -4)
        (2, math.degrees(math.atan2(-3.0, -4.0)), (7.0, 4.0)),
        # anchor 3 at (0, 10), frame (-1, -1): point (3, 6), dx=3, dy=-4
        (3, math.degrees(math.atan2(-3.0, 4.0)), (3.0, 6.0)),
    ]
    for anchor_id, theta, (x, y) in cases:
        d = [0.0, 0.0, 0.0]
        d[anchor_id - 1] = 5.0
        thetas = [0.0, 0.0, 0.0]
        thetas[anchor_id - 1] = theta
        est = hybrid_position(env, DistanceVector(tuple(d)), thetas)
        others = [a.position for a in env.anchors if a.id != anchor_id]
        assert 3.0 * est.p.x - sum(o.x for o in others) == pytest.approx(x, abs=1e-12)
        assert 3.0 * est.p.y - sum(o.y for o in others) == pytest.approx(y, abs=1e-12)


def test_anchor_estimate_validation():
    env = _env()
    with pytest.raises(ValueError):
        hybrid_position(env, DistanceVector((-1.0, 1.0, 1.0)), [10.0, 10.0, 10.0])
    with pytest.raises(ValueError):
        hybrid_position(env, DistanceVector((float("nan"), 1.0, 1.0)), [10.0, 10.0, 10.0])
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="angle must be finite"):
            hybrid_position(env, DistanceVector((1.0, 1.0, 1.0)), [10.0, bad, 10.0])


def test_hybrid_position_exact_on_truth():
    env = _env()
    p = Point2D(4.2, 9.1)
    d = DistanceVector(tuple(true_distance(env, i, p) for i in (1, 2, 3)))
    thetas = [true_aoa(env, i, p) for i in (1, 2, 3)]
    est = hybrid_position(env, d, thetas)
    assert p.distance_to(est.p) < 1e-9
    assert est.residual < 1e-9


def test_hybrid_position_residual_is_max_pairwise_spread():
    env = _env()
    p = Point2D(6.0, 6.0)
    d = DistanceVector(tuple(true_distance(env, i, p) for i in (1, 2, 3)))
    thetas = [true_aoa(env, i, p) for i in (1, 2, 3)]
    thetas[0] += 5.0  # push anchor 1's fix away from the others
    est = hybrid_position(env, d, thetas)
    # recompute the three single-anchor fixes and their spread by hand
    fixes = [_fix(env.anchor(i), d.d[i - 1], thetas[i - 1]) for i in (1, 2, 3)]
    spread = max(math.dist(fixes[a], fixes[b]) for a in range(3) for b in range(a + 1, 3))
    assert est.residual == pytest.approx(spread, abs=1e-12)
    mean_x = sum(f[0] for f in fixes) / 3.0
    mean_y = sum(f[1] for f in fixes) / 3.0
    assert est.p.x == pytest.approx(mean_x, abs=1e-12)
    assert est.p.y == pytest.approx(mean_y, abs=1e-12)


def test_hybrid_position_input_validation():
    env = _env()
    d = DistanceVector((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        hybrid_position(env, d, [0.0, 10.0])


@settings(max_examples=200)
@given(
    x=st.floats(0.05, 12.95),
    y=st.floats(0.05, 12.95),
)
def test_hybrid_roundtrip_property(x, y):
    """True distances plus true angles recover any interior point."""
    env = _env()
    p = Point2D(x, y)
    d = DistanceVector(tuple(true_distance(env, i, p) for i in (1, 2, 3)))
    thetas = [true_aoa(env, i, p) for i in (1, 2, 3)]
    est = hybrid_position(env, d, thetas)
    assert p.distance_to(est.p) < 1e-9


@settings(max_examples=100)
@given(
    x=st.floats(0.5, 11.5),
    y=st.floats(0.5, 3.5),
)
def test_hybrid_roundtrip_non_square_room(x, y):
    env = _env(12.0, 4.0)
    p = Point2D(x, y)
    d = DistanceVector(tuple(true_distance(env, i, p) for i in (1, 2, 3)))
    thetas = [true_aoa(env, i, p) for i in (1, 2, 3)]
    est = hybrid_position(env, d, thetas)
    assert p.distance_to(est.p) < 1e-9


_COORD = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    length=st.floats(2.0, 20.0),
    width=st.floats(2.0, 20.0),
    anchors=st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=3),
    frames=st.lists(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]), min_size=3, max_size=3),
    point=st.tuples(_COORD, _COORD),
)
def test_closed_form_fixes_on_custom_layouts(length, width, anchors, frames, point):
    """Noise-free RSSI trilateration and true distance+angle fusion both
    recover the point for any non-degenerate anchor triangle and any frames."""
    pos = [Point2D(u * length, v * width) for u, v in anchors]
    twice_area = abs((pos[1].x - pos[0].x) * (pos[2].y - pos[0].y) - (pos[1].y - pos[0].y) * (pos[2].x - pos[0].x))
    assume(twice_area >= 0.1 * length * width)
    p = Point2D(point[0] * length, point[1] * width)
    assume(min(p.distance_to(a) for a in pos) >= 0.1)
    env = Environment("custom", length, width, tuple(Anchor(i + 1, pos[i].x, pos[i].y, *frames[i]) for i in range(3)), (p,))
    params = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0, d0=0.1)
    d = [true_distance(env, i, p) for i in (1, 2, 3)]
    est = trilaterate(env, (params,) * 3, [expected_rssi(params, di) for di in d])
    assert p.distance_to(est.p) < 1e-9
    est = hybrid_position(env, DistanceVector(tuple(d)), [true_aoa(env, i, p) for i in (1, 2, 3)])
    assert p.distance_to(est.p) < 1e-9
