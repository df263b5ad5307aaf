"""Room geometry: anchor layout, test points, ground-truth distances and angles.

Rooms are axis-aligned rectangles with the origin at one corner. Three fixed
anchors (transmitters) sit in the room, by default on the corners (0, 0),
(length, 0) and (0, width). Each anchor carries a sign frame (sx, sy) that
fixes how its bearing angle maps back to cartesian offsets:

    x = ax + sx * d * sin(theta),   y = ay + sy * d * cos(theta)

true_aoa() below is the exact inverse of that map, so distance + angle from
any single anchor reconstructs the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import check_bound

# Default sign frames per anchor id. Anchor 1 adds both offsets, anchor 2
# flips the y offset, anchor 3 flips both.
DEFAULT_FRAMES = {1: (1, 1), 2: (1, -1), 3: (-1, -1)}

# Anchors must span a real triangle (square meters).
MIN_TRIANGLE_AREA = 1e-6


@dataclass(frozen=True)
class Point2D:
    """A position in meters."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Anchor:
    """A fixed transmitter: its id, its position (x, y) and its sign frame
    (sx, sy). The fields are the keys of an anchor in a room file."""

    id: int
    x: float
    y: float
    sx: int
    sy: int

    def __post_init__(self):
        if self.id not in (1, 2, 3):
            raise ValueError(f"id must be 1, 2 or 3, got {self.id}")
        for name in ("sx", "sy"):
            if getattr(self, name) not in (-1, 1):
                raise ValueError(f"{name} must be -1 or +1, got {getattr(self, name)}")
        object.__setattr__(self, "position", Point2D(self.x, self.y))
        object.__setattr__(self, "x", self.position.x)
        object.__setattr__(self, "y", self.position.y)
        object.__setattr__(self, "frame", (self.sx, self.sy))


@dataclass(frozen=True)
class Environment:
    """A rectangular room with exactly three anchors and a set of test points.
    The fields are the keys of a room file, read by read_section and written
    by json_form."""

    name: str
    length_m: float
    width_m: float
    anchors: tuple[Anchor, ...]
    test_points: tuple[Point2D, ...]

    def __post_init__(self):
        for name in ("length_m", "width_m"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if len(self.anchors) != 3:
            raise ValueError(f"anchors must hold exactly 3 anchors, got {len(self.anchors)}")
        if sorted(a.id for a in self.anchors) != [1, 2, 3]:
            raise ValueError(f"anchors must have the ids 1, 2 and 3, got {[a.id for a in self.anchors]}")
        pos = [a.position for a in self.anchors]
        if len(set(pos)) < 3:
            raise ValueError("anchors must stand at pairwise distinct positions")
        # Twice the signed triangle area.
        cross = (pos[1].x - pos[0].x) * (pos[2].y - pos[0].y) - (pos[1].y - pos[0].y) * (
            pos[2].x - pos[0].x
        )
        if abs(cross) / 2.0 <= MIN_TRIANGLE_AREA:
            raise ValueError(f"anchors are collinear: their triangle's area, {abs(cross) / 2.0} m^2, "
                             f"is at most {MIN_TRIANGLE_AREA}")
        for i, p in enumerate(self.test_points):
            if not (0.0 <= p.x <= self.length_m and 0.0 <= p.y <= self.width_m):
                raise ValueError(f"test_points[{i}] ({p.x}, {p.y}) lies outside the room")

    def anchor(self, anchor_id: int) -> Anchor:
        for a in self.anchors:
            if a.id == anchor_id:
                return a
        raise ValueError(f"unknown anchor id {anchor_id}")


def make_environment(name, length, width, test_points=()) -> Environment:
    """Build a room with the default corner anchor layout.

    Anchor 1 sits at (0, 0), anchor 2 at (length, 0), anchor 3 at (0, width),
    each with its default sign frame.
    """
    corners = {1: (0.0, 0.0), 2: (length, 0.0), 3: (0.0, width)}
    anchors = tuple(Anchor(i, *corners[i], *DEFAULT_FRAMES[i]) for i in (1, 2, 3))
    return Environment(str(name), float(length), float(width), anchors, tuple(test_points))


def true_distance(env: Environment, anchor_id: int, p: Point2D) -> float:
    """Euclidean distance from anchor to p. Zero when p sits on the anchor."""
    return env.anchor(anchor_id).position.distance_to(p)


def true_aoa(env: Environment, anchor_id: int, p: Point2D) -> float:
    """Bearing angle of p seen from an anchor, in degrees within (-180, 180].

    Defined as atan2(sx * (p.x - ax), sy * (p.y - ay)), which makes the
    anchor's sign-frame reconstruction an exact identity.
    """
    a = env.anchor(anchor_id)
    dx = p.x - a.position.x
    dy = p.y - a.position.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError(f"point coincides with anchor {anchor_id}; angle undefined")
    sx, sy = a.frame
    deg = math.degrees(math.atan2(sx * dx, sy * dy))
    if deg <= -180.0:
        deg += 360.0
    return deg


def jittered_grid(length, width, n, seed):
    """n interior points on a jittered grid, rows x cols chosen by aspect ratio.

    Points sit within 0.3 cell of their cell's center; margins of 0.12 room keep
    them away from the walls (and the corner anchors) even at maximum jitter.
    """
    if n < 1:
        raise ValueError("need at least one point")
    rows = max(1, int(round(math.sqrt(n * width / length))))
    cols = int(math.ceil(n / rows))
    mx, my = 0.12 * length, 0.12 * width
    cw = (length - 2 * mx) / cols
    ch = (width - 2 * my) / rows
    rng = np.random.default_rng(seed)
    jit = rng.uniform(-0.3, 0.3, size=(rows * cols, 2))[:n]
    # Row-major cells: point i sits in row i // cols, column i % cols.
    r, c = np.divmod(np.arange(n), cols)
    px, py = mx + (c + 0.5 + jit[:, 0]) * cw, my + (r + 0.5 + jit[:, 1]) * ch
    return [Point2D(x, y) for x, y in zip(px.tolist(), py.tolist())]


@dataclass(frozen=True)
class GridRoom:
    """A room given by its size, with n_points test points on a jittered grid
    drawn from test_point_seed. Its fields are the keys of a room in the
    experiment config."""

    name: str
    length_m: float
    width_m: float
    n_points: int = 10
    test_point_seed: int = 0

    def __post_init__(self):
        check_bound(self, 0, "length_m", "width_m", strict=True)
        check_bound(self, 1, "n_points")
        check_bound(self, 0, "test_point_seed")

    def environment(self) -> Environment:
        points = jittered_grid(self.length_m, self.width_m, self.n_points, self.test_point_seed)
        return make_environment(self.name, self.length_m, self.width_m, points)


# The built-in rooms; fixed jitter seeds keep their test points stable across runs.
STANDARD_ROOMS = {
    "big_classroom": GridRoom("big_classroom", 13.0, 13.0, test_point_seed=11),
    "corridor": GridRoom("corridor", 12.0, 4.0, test_point_seed=12),
    "small_classroom": GridRoom("small_classroom", 9.0, 7.0, test_point_seed=13),
}


def standard_environment(name: str) -> Environment:
    """One of the built-in rooms with its default jittered test points."""
    if name not in STANDARD_ROOMS:
        raise ValueError(f"unknown room {name!r}; choices: {sorted(STANDARD_ROOMS)}")
    return STANDARD_ROOMS[name].environment()

