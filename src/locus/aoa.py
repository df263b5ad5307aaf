"""Angle-of-arrival estimation on ULA snapshots via subspace decomposition.

Chain: sample correlation matrix -> Hermitian eigendecomposition -> noise
subspace -> pseudo-spectrum scan -> peak picking with quadratic refinement.

The noise-subspace projector does not depend on the phase of its eigenvectors.

The scan grid and its steering matrix depend only on the array and the step,
so they are built once and kept in a small LRU cache keyed on both. The
cached arrays are read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .channel import ArraySpec, SnapshotMatrix, steering_matrix

# Floor for the pseudo-spectrum denominator: a steering vector exactly inside
# the signal subspace would otherwise divide by zero.
SPECTRUM_FLOOR = 1e-15


def correlation_matrix(x: SnapshotMatrix) -> np.ndarray:
    """Sample correlation R = X X^H / T, symmetrized: R[j, i] is exactly conj(R[i, j])."""
    t = x.array.snapshots
    r = (x.data @ x.data.conj().T) / t
    r = (r + r.conj().T) / 2.0
    if not np.isfinite(r).all():
        raise ValueError("correlation matrix must be finite")
    return r


def eigendecompose(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg.eigh of a Hermitian matrix, eigenvalues and their columns in descending order."""
    values, vectors = np.linalg.eigh(r)
    return values[::-1], vectors[:, ::-1]


def grid_size(step_deg: float, name: str = "grid step") -> int:
    """n of the scan grid -90 + step_deg * [0, 1, ..., n], which must end at +90
    and have at most 18 000 intervals (a step of 0.01 degrees; at 8 sensors its
    steering matrix takes 2.3 MB): any other step raises ValueError naming it."""
    ratio = 180.0 / step_deg if step_deg > 0 else 0.0
    n = round(ratio) if ratio < math.inf else 0
    if not (n >= 1 and 90.0 - 1e-9 <= -90.0 + step_deg * n <= 90.0):
        raise ValueError(f"{name} must be a positive divisor of 180 degrees, got {step_deg}")
    if n > 18_000:
        raise ValueError(f"{name} must be at least 0.01 degrees, got {step_deg}")
    return n


def angle_grid(step_deg: float) -> np.ndarray:
    """Uniform scan grid covering [-90, 90] inclusive (see grid_size)."""
    return -90.0 + step_deg * np.arange(grid_size(step_deg) + 1)


@lru_cache(maxsize=8)
def _scan(array: ArraySpec, step_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid of step_deg and its (m, g) steering matrix, both read-only."""
    grid = angle_grid(step_deg)
    a = steering_matrix(array, grid)
    grid.flags.writeable = False
    a.flags.writeable = False
    return grid, a


def spatial_spectrum(un: np.ndarray, array: ArraySpec, step_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid of step_deg and the pseudo-spectrum 1 / (a^H U_N U_N^H a) over it."""
    grid, a = _scan(array, step_deg)
    proj = un.conj().T @ a  # (m - k, g)
    denom = np.sum(np.abs(proj) ** 2, axis=0)
    denom = np.maximum(denom, SPECTRUM_FLOOR)
    return grid, 1.0 / denom


def music_spectrum(x: SnapshotMatrix, k: int, step_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid of step_deg and the MUSIC pseudo-spectrum of k sources in x over it."""
    if k < 1 or k >= x.array.m:
        raise ValueError(f"source count must satisfy 1 <= k < {x.array.m}, got {k}")
    _, vectors = eigendecompose(correlation_matrix(x))
    return spatial_spectrum(vectors[:, k:], x.array, step_deg)


def _local_maxima(power: np.ndarray) -> np.ndarray:
    """Indices of local maxima: strictly above the left neighbor (so flat
    plateaus contribute their leading point only), at least as high as the
    right one. Endpoints count when they dominate their single neighbor."""
    padded = np.concatenate(([-np.inf], power, [-np.inf]))
    return np.flatnonzero((power > padded[:-2]) & (power >= padded[2:]))


def _refine_peak(grid: np.ndarray, power: np.ndarray, i: int) -> float:
    """Quadratic 3-point interpolation around grid[i]; endpoints not refined."""
    if i == 0 or i == grid.size - 1:
        return float(grid[i])
    y0, y1, y2 = power[i - 1], power[i], power[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(grid[i])
    delta = 0.5 * (y0 - y2) / denom
    step = grid[i] - grid[i - 1]
    return float(grid[i] + delta * step)


def estimate_aoa(x: SnapshotMatrix, k: int, grid_step_deg: float) -> list[float]:
    """MUSIC estimate of k source angles from a snapshot block, ascending order.

    Takes the k largest local maxima of the pseudo-spectrum (ties broken
    toward the lower angle), each refined by quadratic interpolation.
    """
    grid, power = music_spectrum(x, k, grid_step_deg)
    maxima = _local_maxima(power)
    if maxima.size < k:
        raise ValueError(f"found {maxima.size} spectrum peaks, need {k}")
    # The grid ascends, so a stable sort on power breaks ties toward the lower angle.
    chosen = maxima[np.argsort(-power[maxima], kind="stable")[:k]]
    # Refined one peak at a time: at k = 1 a vectorised refinement costs more
    # numpy calls than it saves.
    return sorted(_refine_peak(grid, power, i) for i in chosen.tolist())
