"""The closed-form position fixes: RSSI trilateration and the hybrid RSSI+AoA fix.

Both recover anchor distances by inverting the log-distance model.
Trilateration then linearizes the three circle equations

    (x - xi)^2 + (y - yi)^2 = di^2        i = 1, 2, 3

by subtracting the third from the first two, giving a square 2x2 system
A [x y]^T = b, solved by Cramer's rule: for n = 2 it is forward stable
(Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., section
1.10.1).

The hybrid fix turns each anchor's (distance, angle) pair into a full
position fix through the anchor's sign frame,

    x = ax + sx * d * sin(theta),   y = ay + sy * d * cos(theta)

and averages the three; the spread of those fixes (max pairwise distance) is
reported as the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import PathLossParams, per_anchor_params
from .environment import Environment, Point2D

# Reject nearly-singular linear systems. Environment only refuses degenerate
# anchor triangles, so a thin but valid one can still reach this limit.
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class DistanceVector:
    """Anchor-ordered distances in meters (anchor ids 1, 2, 3)."""

    d: tuple[float, float, float]

    def __post_init__(self):
        if len(self.d) != 3:
            raise ValueError("exactly three distances required")
        for v in self.d:
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"distances must be finite and nonnegative, got {v}")


@dataclass(frozen=True)
class PositionEstimate:
    p: Point2D
    residual: float


def rssi_to_distance(params: PathLossParams, rssi: float) -> float:
    """Invert the mean path loss law; clamped below at d0.

    Clamping keeps very strong readings (receiver closer than the reference
    distance, or positive noise spikes) from mapping to d < d0.
    """
    rssi = float(rssi)
    try:
        d = params.d0 * 10.0 ** ((params.p_r_d0 - rssi) / (10.0 * params.gamma))
    except OverflowError:
        d = math.inf
    if d == math.inf:
        raise ValueError(f"rssi reading {rssi} implies a distance beyond the float range")
    return max(d, params.d0)


def rssi_distances(params, rssi) -> DistanceVector:
    """Anchor distances implied by three RSSI readings.

    params: one PathLossParams per anchor (anchor id order), or a single
    set shared by all three. rssi: three finite readings in the same order.
    """
    params3 = per_anchor_params(params)
    if len(rssi) != 3:
        raise ValueError("exactly three rssi readings required")
    for r in rssi:
        if not math.isfinite(r):
            raise ValueError(f"rssi readings must be finite, got {r}")
    return DistanceVector(tuple(rssi_to_distance(p, r) for p, r in zip(params3, rssi)))


def _condition_2x2(a) -> float:
    """The 2-norm condition number of a 2x2 matrix ((p, q), (r, s)), in closed form.

    The singular values satisfy sigma_max^2 + sigma_min^2 = F, the squared
    Frobenius norm, and sigma_max * sigma_min = |det|. So with
    t = F / (2 |det|), cond = sigma_max / sigma_min = t + sqrt(t^2 - 1), the
    value of np.linalg.cond(a) without its SVD. A zero determinant gives inf.
    """
    (p, q), (r, s) = a
    det = abs(p * s - q * r)
    if det == 0.0:
        return math.inf
    t = (p * p + q * q + r * r + s * s) / (2.0 * det)
    return t + math.sqrt(max(t * t - 1.0, 0.0))


def trilaterate(env: Environment, params, rssi) -> PositionEstimate:
    """Estimate a position from three RSSI readings (see rssi_distances).

    Row i of the system subtracts circle 3 from circle i:
        2(x3 - xi) x + 2(y3 - yi) y = di^2 - d3^2 - xi^2 + x3^2 - yi^2 + y3^2
    The residual is the RMS mismatch between anchor distances implied by the
    estimate and the RSSI-derived distances.
    """
    d = rssi_distances(params, rssi)
    positions = [env.anchor(i).position for i in (1, 2, 3)]
    (x1, y1), (x2, y2), (x3, y3) = [(pos.x, pos.y) for pos in positions]
    d1, d2, d3 = d.d
    p, q = 2.0 * (x3 - x1), 2.0 * (y3 - y1)
    r, s = 2.0 * (x3 - x2), 2.0 * (y3 - y2)
    b1 = d1**2 - d3**2 - x1**2 + x3**2 - y1**2 + y3**2
    b2 = d2**2 - d3**2 - x2**2 + x3**2 - y2**2 + y3**2
    cond = _condition_2x2(((p, q), (r, s)))
    if not math.isfinite(cond) or cond > MAX_CONDITION:
        raise ValueError(f"linear system condition number {cond:.3e} too large")
    det = p * s - q * r
    est = Point2D((b1 * s - q * b2) / det, (p * b2 - r * b1) / det)
    mism = [est.distance_to(positions[i]) - d.d[i] for i in range(3)]
    residual = math.sqrt(sum(m * m for m in mism) / 3.0)
    return PositionEstimate(p=est, residual=residual)


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
