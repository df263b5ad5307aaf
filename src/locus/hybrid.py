"""Hybrid localization from per-anchor distance plus bearing angle.

Each anchor's sign frame turns one (distance, angle) pair into a full
position fix:

    x = ax + sx * d * sin(theta),   y = ay + sy * d * cos(theta)

The final estimate averages the three single-anchor fixes; the spread of
those fixes (max pairwise distance) is reported as the residual.
"""

from __future__ import annotations

import math

from .environment import Environment, Point2D
from .trilat import DistanceVector, PositionEstimate


def hybrid_position(env: Environment, d: DistanceVector, thetas_deg) -> PositionEstimate:
    """Average the three single-anchor fixes.

    thetas_deg: bearing angles in anchor id order (1, 2, 3). The residual is
    the maximum pairwise distance among the three fixes; it is zero exactly
    when distances and angles are mutually consistent.
    """
    thetas = list(thetas_deg)
    if len(thetas) != 3:
        raise ValueError("exactly three angles required")
    fixes = []
    for i in range(3):
        if not math.isfinite(thetas[i]):
            raise ValueError("angle must be finite")
        anchor = env.anchor(i + 1)
        sx, sy = anchor.frame
        t = math.radians(thetas[i])
        fixes.append((anchor.position.x + sx * d.d[i] * math.sin(t), anchor.position.y + sy * d.d[i] * math.cos(t)))
    (x1, y1), (x2, y2), (x3, y3) = fixes
    residual = max(math.hypot(x1 - x2, y1 - y2), math.hypot(x1 - x3, y1 - y3), math.hypot(x2 - x3, y2 - y3))
    return PositionEstimate(p=Point2D((x1 + x2 + x3) / 3.0, (y1 + y2 + y3) / 3.0), residual=residual)
