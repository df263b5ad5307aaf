"""Independent reference computations for sampled calls of the traced run.

Each oracle recomputes a program result from the same inputs with its own
formulas: MUSIC with numpy.linalg.eigh over the same scan grid, and the
closed-form trilateration and hybrid fixes written out directly.
"""

from __future__ import annotations

import math

import numpy as np

POSITION_TOL_M = 1e-9


def music_angles(data: np.ndarray, spacing: float, k: int, step_deg: float) -> list[float]:
    """The k largest pseudo-spectrum peaks on the grid -90:step:90, ascending."""
    m, t = data.shape
    r = data @ data.conj().T / t
    _, vecs = np.linalg.eigh((r + r.conj().T) / 2.0)
    noise = vecs[:, : m - k]  # eigh sorts eigenvalues ascending
    grid = -90.0 + step_deg * np.arange(int(round(180.0 / step_deg)) + 1)
    steer = np.exp(-2j * np.pi * spacing * np.arange(m)[:, None] * np.sin(np.radians(grid))[None, :])
    power = 1.0 / np.maximum(np.sum(np.abs(noise.conj().T @ steer) ** 2, axis=0), 1e-15)
    padded = np.concatenate([[-np.inf], power, [-np.inf]])
    peaks = np.flatnonzero((power > padded[:-2]) & (power >= padded[2:]))
    top = peaks[np.argsort(-power[peaks], kind="stable")[:k]]
    return sorted(float(grid[i]) for i in top)


def trilateration(anchors, params, rssi) -> tuple[float, float]:
    """Invert the path-loss law per anchor, then solve circles 1, 2 minus circle 3."""
    d = []
    for p, v in zip(params, rssi):
        d.append(max(p.d0 * 10.0 ** ((p.p_r_d0 - float(v)) / (10.0 * p.gamma)), p.d0))
    (x1, y1), (x2, y2), (x3, y3) = anchors
    a = np.array([[x3 - x1, y3 - y1], [x3 - x2, y3 - y2]]) * 2.0
    b = np.array([
        d[0] ** 2 - d[2] ** 2 - x1 ** 2 + x3 ** 2 - y1 ** 2 + y3 ** 2,
        d[1] ** 2 - d[2] ** 2 - x2 ** 2 + x3 ** 2 - y2 ** 2 + y3 ** 2,
    ])
    x = np.linalg.solve(a, b)
    return float(x[0]), float(x[1])


def hybrid_fix(anchors, frames, distances, thetas_deg) -> tuple[float, float]:
    """Mean of the three single-anchor fixes a + frame * d * (sin t, cos t)."""
    xs, ys = [], []
    for (ax, ay), (sx, sy), d, t in zip(anchors, frames, distances, thetas_deg):
        xs.append(ax + sx * d * math.sin(math.radians(t)))
        ys.append(ay + sy * d * math.cos(math.radians(t)))
    return sum(xs) / 3.0, sum(ys) / 3.0
