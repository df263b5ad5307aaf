import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus.channel import json_form, read_section
from locus.environment import (
    Anchor,
    Environment,
    Point2D,
    STANDARD_ROOMS,
    jittered_grid,
    make_environment,
    standard_environment,
    true_aoa,
    true_distance,
)


def test_point_distance():
    assert Point2D(0.0, 0.0).distance_to(Point2D(3.0, 4.0)) == 5.0


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point2D(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2D(0.0, float("inf"))


def test_default_layout_positions_and_frames():
    env = make_environment("room", 12.0, 4.0)
    a1, a2, a3 = (env.anchor(i) for i in (1, 2, 3))
    assert (a1.position.x, a1.position.y) == (0.0, 0.0)
    assert (a2.position.x, a2.position.y) == (12.0, 0.0)
    assert (a3.position.x, a3.position.y) == (0.0, 4.0)
    assert a1.frame == (1, 1)
    assert a2.frame == (1, -1)
    assert a3.frame == (-1, -1)


def test_anchor_id_validation():
    with pytest.raises(ValueError, match=r"^id must be 1, 2 or 3, got 4$"):
        Anchor(4, 0, 0, 1, 1)
    with pytest.raises(ValueError, match=r"^sx must be -1 or \+1, got 0$"):
        Anchor(1, 0, 0, 0, 1)


def test_environment_validation():
    with pytest.raises(ValueError, match="^length_m must be positive and finite"):
        make_environment("bad", -1.0, 4.0)
    # collinear anchors
    anchors = (Anchor(1, 0, 0, 1, 1), Anchor(2, 1, 0, 1, -1), Anchor(3, 2, 0, -1, -1))
    with pytest.raises(ValueError, match="^anchors are collinear"):
        Environment("line", 4.0, 4.0, anchors, ())
    # duplicate ids
    anchors = (Anchor(1, 0, 0, 1, 1), Anchor(1, 4, 0, 1, -1), Anchor(3, 0, 4, -1, -1))
    with pytest.raises(ValueError, match="^anchors must have the ids 1, 2 and 3"):
        Environment("dup", 4.0, 4.0, anchors, ())
    with pytest.raises(ValueError, match=r"^test_points\[0\] \(5.0, 1.0\) lies outside the room$"):
        make_environment("outside", 4.0, 4.0, (Point2D(5.0, 1.0),))


def test_true_distance_simple():
    env = make_environment("room", 13.0, 13.0)
    # 3-4-5 triangle from the origin anchor
    assert true_distance(env, 1, Point2D(3.0, 4.0)) == 5.0
    assert true_distance(env, 2, Point2D(13.0, 13.0)) == 13.0


def test_true_aoa_known_directions():
    """Angles worked out by hand from the sign-frame definition."""
    env = make_environment("room", 10.0, 10.0)
    # anchor 1 at origin, frame (+1, +1): straight up the y axis is 0 deg,
    # along x is 90 deg, diagonal is 45 deg
    assert true_aoa(env, 1, Point2D(0.0, 5.0)) == pytest.approx(0.0)
    assert true_aoa(env, 1, Point2D(5.0, 0.0)) == pytest.approx(90.0)
    assert true_aoa(env, 1, Point2D(5.0, 5.0)) == pytest.approx(45.0)
    # anchor 2 at (10, 0), frame (+1, -1): dx<0, dy>0 for in-room points
    assert true_aoa(env, 2, Point2D(5.0, 5.0)) == pytest.approx(-135.0)
    # anchor 3 at (0, 10), frame (-1, -1): atan2(-5, +5) = -45
    assert true_aoa(env, 3, Point2D(5.0, 5.0)) == pytest.approx(-45.0)


def test_true_aoa_range_and_coincidence():
    env = make_environment("room", 8.0, 6.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = Point2D(rng.uniform(0, 8), rng.uniform(0, 6))
        for i in (1, 2, 3):
            a = true_aoa(env, i, p)
            assert -180.0 < a <= 180.0
    with pytest.raises(ValueError):
        true_aoa(env, 1, Point2D(0.0, 0.0))


@settings(max_examples=200)
@given(
    x=st.floats(0.01, 9.99),
    y=st.floats(0.01, 7.99),
    anchor_id=st.sampled_from([1, 2, 3]),
)
def test_aoa_distance_reconstruct_point(x, y, anchor_id):
    """distance + angle from any anchor reconstructs the point exactly."""
    env = make_environment("room", 10.0, 8.0)
    p = Point2D(x, y)
    a = env.anchor(anchor_id)
    d = true_distance(env, anchor_id, p)
    th = math.radians(true_aoa(env, anchor_id, p))
    sx, sy = a.frame
    rx = a.position.x + sx * d * math.sin(th)
    ry = a.position.y + sy * d * math.cos(th)
    assert math.hypot(rx - x, ry - y) < 1e-9


def test_jittered_grid_count_bounds_determinism():
    pts = jittered_grid(13.0, 13.0, n=10, seed=11)
    assert len(pts) == 10
    for p in pts:
        assert 0.0 < p.x < 13.0 and 0.0 < p.y < 13.0
    again = jittered_grid(13.0, 13.0, n=10, seed=11)
    assert all(a.x == b.x and a.y == b.y for a, b in zip(pts, again))
    different = jittered_grid(13.0, 13.0, n=10, seed=12)
    assert any(a.x != b.x for a, b in zip(pts, different))


def _jittered_grid_loop(length, width, n, seed, margin_frac=0.12, jitter_frac=0.3):
    """The cell-by-cell loop: row-major cells, one jitter pair each."""
    rows = max(1, int(round(math.sqrt(n * width / length))))
    cols = int(math.ceil(n / rows))
    mx, my = margin_frac * length, margin_frac * width
    cw, ch = (length - 2 * mx) / cols, (width - 2 * my) / rows
    jit = np.random.default_rng(seed).uniform(-jitter_frac, jitter_frac, size=(rows * cols, 2))
    points = [Point2D(mx + (c + 0.5 + jit[r * cols + c, 0]) * cw, my + (r + 0.5 + jit[r * cols + c, 1]) * ch)
              for r in range(rows) for c in range(cols)]
    return points[:n]


@pytest.mark.parametrize("length,width", [(13.0, 13.0), (12.0, 4.0), (9.0, 7.0), (3.0, 30.0)])
def test_jittered_grid_matches_the_cell_loop(length, width):
    for n in (1, 7, 10, 25):
        for seed in range(3):
            assert jittered_grid(length, width, n, seed) == _jittered_grid_loop(length, width, n, seed)


def test_jittered_grid_margin():
    """Points stay clear of the walls by the margin even at max jitter."""
    for seed in range(20):
        for L, W in [(13.0, 13.0), (12.0, 4.0), (9.0, 7.0)]:
            for p in jittered_grid(L, W, n=10, seed=seed):
                assert 0.12 * L - 0.3 * L <= p.x  # loose lower sanity
                assert p.x >= 0.0 and p.y >= 0.0
                assert 1.0 < true_distance(make_environment("r", L, W), 1, p)


def test_standard_environments():
    for name, room in STANDARD_ROOMS.items():
        assert room.name == standard_environment(name).name == name
    big = standard_environment("big_classroom")
    assert (big.length_m, big.width_m) == (13.0, 13.0)
    assert len(big.test_points) == 10
    cor = standard_environment("corridor")
    assert (cor.length_m, cor.width_m) == (12.0, 4.0)
    small = standard_environment("small_classroom")
    assert (small.length_m, small.width_m) == (9.0, 7.0)
    with pytest.raises(ValueError):
        standard_environment("gym")


def test_environment_dict_roundtrip(tmp_path):
    env = standard_environment("corridor")
    d = json_form(env)
    back = read_section(Environment, json.loads(json.dumps(d)), "")
    assert back == env


def test_room_file_layout_is_pinned():
    """The key order and number forms of a room, as room, dataset and report files write it."""
    anchors = (Anchor(1, 0, 0, 1, 1), Anchor(2, 6, 0.5, -1, 1), Anchor(3, 0, 4, -1, -1))
    env = Environment("lab", 6.0, 4.0, anchors, (Point2D(1.5, 2),))
    assert json.dumps(json_form(env)) == (
        '{"name": "lab", "length_m": 6.0, "width_m": 4.0, "anchors": ['
        '{"id": 1, "x": 0.0, "y": 0.0, "sx": 1, "sy": 1}, '
        '{"id": 2, "x": 6.0, "y": 0.5, "sx": -1, "sy": 1}, '
        '{"id": 3, "x": 0.0, "y": 4.0, "sx": -1, "sy": -1}], '
        '"test_points": [{"x": 1.5, "y": 2.0}]}'
    )


@pytest.mark.parametrize(
    "path,value,words",
    [
        (("anchors", 0, "zz"), 1, "unknown config key anchors[0].zz"),
        (("test_points", 2, "zz"), 1, "unknown config key test_points[2].zz"),
        (("zz",), 1, "unknown config key zz"),
        (("anchors", 1, "x"), "12.0", "anchors[1].x must be a finite number"),
        (("test_points", 0, "y"), True, "test_points[0].y must be a finite number"),
        (("anchors", 2, "sy"), 1.5, "anchors[2].sy must be an integer"),
        (("anchors", 0, "id"), False, "anchors[0].id must be an integer"),
        (("length_m",), "12", "length_m must be a finite number"),
        (("name",), 3, "name must be a string"),
        (("anchors", 1, "sx"), None, "anchors[1].sx must be an integer"),
        (("anchors", 0, "id"), 4, "anchors[0].id must be 1, 2 or 3, got 4"),
        (("anchors", 2, "sx"), 2, "anchors[2].sx must be -1 or +1, got 2"),
        (("anchors", 1, "id"), 1, "anchors must have the ids 1, 2 and 3, got [1, 1, 3]"),
        (("length_m",), -1, "length_m must be positive and finite, got -1.0"),
        (("test_points", 4, "x"), 50.0, "test_points[4] (50.0, "),
        (("anchors", 2), {"id": 3, "x": 6.0, "y": 0.0, "sx": -1, "sy": -1}, "anchors are collinear: their triangle's area"),
    ],
)
def test_environment_dict_is_read_strictly(path, value, words):
    d = json_form(standard_environment("corridor"))
    *keys, last = path
    entry = d
    for key in keys:
        entry = entry[key]
    entry[last] = value
    with pytest.raises(ValueError) as e:
        read_section(Environment, d, "")
    assert str(e.value).startswith(words), str(e.value)
    if last != "zz" and isinstance(last, str):
        del entry[last]
        with pytest.raises(ValueError) as e:
            read_section(Environment, d, "")
        assert str(e.value) == "missing config key " + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)[1:]


def test_anchor_lookup_error():
    env = make_environment("room", 5.0, 5.0)
    with pytest.raises(ValueError):
        env.anchor(9)
