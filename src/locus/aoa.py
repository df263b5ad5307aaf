"""Angle-of-arrival estimation on ULA snapshots via subspace decomposition.

Chain: sample correlation matrix -> Hermitian eigendecomposition -> noise
subspace -> pseudo-spectrum scan -> peak picking with quadratic refinement.

The eigendecomposition is LAPACK's Hermitian solver through numpy.linalg.eigh.
The noise-subspace projector does not depend on the phase of its eigenvectors.

The scan grid and its steering matrix depend only on the array and the grid,
so they are built once and kept in a small LRU cache keyed on the array and
the exact grid values. The cached arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ArraySpec, SnapshotMatrix, steering_matrix

# Floor for the pseudo-spectrum denominator: a steering vector exactly inside
# the signal subspace would otherwise divide by zero.
SPECTRUM_FLOOR = 1e-15


@dataclass(frozen=True)
class CorrelationMatrix:
    r: np.ndarray  # (m, m) complex, Hermitian

    def __post_init__(self):
        m = self.r.shape[0]
        if self.r.ndim != 2 or self.r.shape != (m, m):
            raise ValueError("correlation matrix must be square")
        if not np.isfinite(self.r).all():
            raise ValueError("correlation matrix must be finite")


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray  # (m,) real, descending
    vectors: np.ndarray  # (m, m) complex, columns orthonormal


@dataclass(frozen=True)
class SpatialSpectrum:
    grid_deg: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        if self.grid_deg.size == 0:
            raise ValueError("empty spectrum grid")
        if self.grid_deg.shape != self.power.shape:
            raise ValueError("grid and power shapes differ")


def correlation_matrix(x: SnapshotMatrix) -> CorrelationMatrix:
    """Sample correlation R = X X^H / T, symmetrized to kill roundoff skew."""
    t = x.array.snapshots
    r = (x.data @ x.data.conj().T) / t
    r = (r + r.conj().T) / 2.0
    return CorrelationMatrix(r)


def eigendecompose(corr: CorrelationMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by numpy.linalg.eigh.

    Returns eigenvalues sorted descending with matching orthonormal columns.
    """
    r = corr.r
    rh = r.conj().T
    atol = max(float(np.linalg.norm(r)), 1.0) * 1e-10
    # The test np.allclose(r, rh, atol=atol) makes; r is finite here.
    if not (np.abs(r - rh) <= atol + 1e-5 * np.abs(rh)).all():
        raise ValueError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(r)
    return EigenDecomposition(values=values[::-1], vectors=vectors[:, ::-1])


def noise_subspace(eig: EigenDecomposition, k: int) -> np.ndarray:
    """Columns spanning the m - k smallest eigenvalues; shape (m, m - k)."""
    m = eig.values.size
    if k < 1 or k >= m:
        raise ValueError(f"source count must satisfy 1 <= k < {m}, got {k}")
    return eig.vectors[:, k:]


def grid_size(step_deg: float, name: str = "grid step") -> int:
    """n of the scan grid -90 + step_deg * [0, 1, ..., n], which must end at +90:
    a step that does not divide 180 degrees raises ValueError naming it."""
    ratio = 180.0 / step_deg if step_deg > 0 else 0.0
    n = round(ratio) if ratio < math.inf else 0
    if not (n >= 1 and 90.0 - 1e-9 <= -90.0 + step_deg * n <= 90.0):
        raise ValueError(f"{name} must be a positive divisor of 180 degrees, got {step_deg}")
    return n


def angle_grid(step_deg: float = 0.1) -> np.ndarray:
    """Uniform scan grid covering [-90, 90] inclusive (see grid_size)."""
    return -90.0 + step_deg * np.arange(grid_size(step_deg) + 1)


@lru_cache(maxsize=8)
def _cached_grid(step_deg: float) -> np.ndarray:
    grid = angle_grid(step_deg)
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=8)
def _scan(array: ArraySpec, grid_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The validated scan grid and its (m, g) steering matrix, both read-only."""
    grid = np.frombuffer(grid_bytes, dtype=float)
    if grid.size == 0:
        raise ValueError("empty scan grid")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("scan grid must be strictly ascending")
    if grid[0] < -90.0 or grid[-1] > 90.0:
        raise ValueError("scan grid must lie within [-90, 90] degrees")
    a = steering_matrix(array, grid)
    a.flags.writeable = False
    return grid, a


def spatial_spectrum(un: np.ndarray, array: ArraySpec, grid_deg: np.ndarray) -> SpatialSpectrum:
    """Pseudo-spectrum P(theta) = 1 / (a^H U_N U_N^H a) over an ascending grid."""
    grid = np.asarray(grid_deg, dtype=float)
    if grid.ndim != 1:
        raise ValueError("scan grid must be one-dimensional")
    if un.shape[0] != array.m:
        raise ValueError("noise subspace row count does not match the array")
    grid, a = _scan(array, grid.tobytes())
    proj = un.conj().T @ a  # (m - k, g)
    denom = np.sum(np.abs(proj) ** 2, axis=0)
    denom = np.maximum(denom, SPECTRUM_FLOOR)
    return SpatialSpectrum(grid_deg=grid, power=1.0 / denom)


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


def estimate_aoa(x: SnapshotMatrix, k: int, grid_step_deg: float = 0.1) -> list[float]:
    """MUSIC estimate of k source angles from a snapshot block, ascending order.

    Takes the k largest local maxima of the pseudo-spectrum (ties broken
    toward the lower angle), each refined by quadratic interpolation.
    """
    if k < 1 or k >= x.array.m:
        raise ValueError(f"source count must satisfy 1 <= k < {x.array.m}, got {k}")
    eig = eigendecompose(correlation_matrix(x))
    un = noise_subspace(eig, k)
    spec = spatial_spectrum(un, x.array, _cached_grid(grid_step_deg))
    maxima = _local_maxima(spec.power)
    if maxima.size < k:
        raise ValueError(f"found {maxima.size} spectrum peaks, need {k}")
    # The grid ascends, so a stable sort on power breaks ties toward the lower angle.
    chosen = maxima[np.argsort(-spec.power[maxima], kind="stable")[:k]]
    # Refined one peak at a time: at k = 1 a vectorised refinement costs more
    # numpy calls than it saves.
    return sorted(_refine_peak(spec.grid_deg, spec.power, i) for i in chosen.tolist())
