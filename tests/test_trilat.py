import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus.channel import PathLossParams, expected_rssi
from locus.environment import Anchor, Environment, Point2D, make_environment, true_distance
from locus.trilat import MAX_CONDITION, DistanceVector, _condition_2x2, rssi_distances, rssi_to_distance, trilaterate


def _env(l=13.0, w=13.0):
    return make_environment("room", l, w)


def test_rssi_to_distance_inverts_expected():
    p = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0)
    for d in [1.0, 2.5, 7.0, 18.0]:
        assert rssi_to_distance(p, expected_rssi(p, d)) == pytest.approx(d, rel=1e-12)


def test_rssi_to_distance_clamps_at_reference():
    p = PathLossParams(gamma=2.0, sigma=0.0, p_r_d0=-40.0, d0=1.0)
    # louder than the reference power implies d < d0; clamp to d0
    assert rssi_to_distance(p, -35.0) == 1.0


@settings(max_examples=100)
@given(rssi=st.floats(-120.0, -40.0), gamma=st.floats(1.0, 5.0))
def test_rssi_to_distance_monotone(rssi, gamma):
    p = PathLossParams(gamma=gamma, sigma=0.0, p_r_d0=-40.0)
    d1 = rssi_to_distance(p, rssi)
    d2 = rssi_to_distance(p, rssi - 1.0)  # weaker signal, farther away
    assert d2 >= d1
    assert d1 >= p.d0


def test_linearize_rows_against_symbolic_oracle():
    """The fix must solve circles 1 and 2 minus circle 3 exactly.

    Symbolic route: expand (x-xi)^2 + (y-yi)^2 = di^2 minus the third
    equation with sympy and solve the two linear equations exactly. The
    distances are mutually inconsistent, so no point lies on all three
    circles and only the linearized system fixes the answer. No anchor
    coordinate is zero, so every term of the system counts.
    """
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    anchors = [(1.5, 0.5), (11.0, 2.0), (3.0, 12.5)]
    env = Environment("room", 13.0, 13.0, tuple(Anchor(i + 1, *anchors[i], 1, 1) for i in range(3)), ())
    d = [5.0, 11.0, 9.5]
    exprs = [
        (x - sympy.Rational(ax)) ** 2 + (y - sympy.Rational(ay)) ** 2 - sympy.Rational(di) ** 2
        for (ax, ay), di in zip(anchors, d)
    ]
    exact = sympy.solve([sympy.expand(exprs[i] - exprs[2]) for i in range(2)], [x, y])
    params = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0)
    est = trilaterate(env, params, [expected_rssi(params, di) for di in d])
    assert est.p.x == pytest.approx(float(exact[x]), abs=1e-9)
    assert est.p.y == pytest.approx(float(exact[y]), abs=1e-9)


def test_trilaterate_noiseless_recovery():
    env = _env()
    params = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0)
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = Point2D(rng.uniform(1.5, 12.0), rng.uniform(1.5, 12.0))
        rssi = [expected_rssi(params, true_distance(env, i, p)) for i in (1, 2, 3)]
        est = trilaterate(env, params, rssi)
        assert p.distance_to(est.p) < 1e-6
        assert est.residual < 1e-6


def test_trilaterate_per_anchor_params():
    env = _env()
    plist = [
        PathLossParams(gamma=2.2, sigma=0.0, p_r_d0=-39.0),
        PathLossParams(gamma=2.8, sigma=0.0, p_r_d0=-41.0),
        PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0),
    ]
    p = Point2D(6.0, 3.0)
    rssi = [expected_rssi(plist[i - 1], true_distance(env, i, p)) for i in (1, 2, 3)]
    est = trilaterate(env, plist, rssi)
    assert p.distance_to(est.p) < 1e-6


def test_trilaterate_residual_reflects_noise():
    env = _env()
    params = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0)
    p = Point2D(5.0, 5.0)
    rssi = [expected_rssi(params, true_distance(env, i, p)) for i in (1, 2, 3)]
    noisy = [r + delta for r, delta in zip(rssi, (2.0, -1.0, 0.5))]
    est = trilaterate(env, params, noisy)
    assert est.residual > 0.01


def test_distance_vector_validation():
    with pytest.raises(ValueError):
        DistanceVector((1.0, 2.0))
    with pytest.raises(ValueError):
        DistanceVector((1.0, -2.0, 3.0))
    with pytest.raises(ValueError):
        DistanceVector((1.0, float("nan"), 3.0))


@settings(max_examples=150, deadline=None)
@given(
    x=st.floats(1.5, 11.5),
    y=st.floats(1.5, 11.5),
    gamma=st.floats(1.5, 4.0),
)
def test_trilaterate_roundtrip_property(x, y, gamma):
    env = _env()
    params = PathLossParams(gamma=gamma, sigma=0.0, p_r_d0=-40.0)
    p = Point2D(x, y)
    rssi = [expected_rssi(params, true_distance(env, i, p)) for i in (1, 2, 3)]
    est = trilaterate(env, params, rssi)
    assert p.distance_to(est.p) < 1e-6


def test_condition_2x2_matches_svd_condition_number():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        a = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 3)
        assert _condition_2x2(a) == pytest.approx(np.linalg.cond(a), rel=1e-9)
    assert _condition_2x2(np.eye(2)) == 1.0
    assert _condition_2x2(np.array([[1.0, 2.0], [2.0, 4.0]])) == math.inf


def test_trilaterate_refuses_a_near_singular_system():
    """A thin anchor triangle that the room accepts (area 5e-6 m^2) still gives
    a system whose condition number is above MAX_CONDITION."""
    anchors = [(0.0, 0.0), (1e4, 0.0), (2e4, 1e-9)]
    env = Environment("thin", 3e4, 1.0, tuple(Anchor(i + 1, *anchors[i], 1, 1) for i in range(3)), ())
    # The system's rows are twice anchor 3 minus anchors 1 and 2.
    assert np.linalg.cond(2.0 * np.array([[2e4, 1e-9], [1e4, 1e-9]])) > MAX_CONDITION
    params = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0)
    with pytest.raises(ValueError, match=r"condition number .* too large"):
        trilaterate(env, params, [-60.0, -60.0, -60.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rssi_distances_refuses_a_non_finite_reading(bad):
    p = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0)
    with pytest.raises(ValueError, match=f"rssi readings must be finite, got {bad}"):
        rssi_distances(p, [-50.0, bad, -60.0])
    with pytest.raises(ValueError, match=f"rssi readings must be finite, got {bad}"):
        trilaterate(_env(), p, [-50.0, -55.0, bad])


def test_rssi_to_distance_refuses_a_reading_whose_distance_overflows():
    """Both the power's OverflowError and a product past the float range name the reading."""
    p = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0)
    with pytest.raises(ValueError, match=r"^rssi reading -100000.0 implies a distance beyond the float range$"):
        rssi_to_distance(p, -100000.0)
    with pytest.raises(ValueError, match=r"^rssi reading -60.0 implies a distance beyond the float range$"):
        rssi_to_distance(PathLossParams(gamma=1e-4, sigma=0.0, p_r_d0=-40.0), -60.0)
    with pytest.raises(ValueError, match=r"^rssi reading -60.0 implies a distance beyond the float range$"):
        rssi_to_distance(PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0, d0=1e308), -60.0)
