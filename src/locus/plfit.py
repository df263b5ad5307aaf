"""Path loss parameter fitting from (distance, rssi) samples.

The log-distance model is linear in x = log10(d / d0):

    rssi = p_r_d0 - 10 * gamma * x

so ordinary least squares on (x, rssi) recovers p_r_d0 (intercept) and gamma
(slope / -10). The shadowing level sigma is estimated as the residual
standard deviation with an n - 2 denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PathLossParams


@dataclass(frozen=True)
class FitResult:
    params: PathLossParams
    residual_rms: float
    n_samples: int


def fit_path_loss(d, rssi, d0: float = 1.0) -> FitResult:
    """Least-squares fit of the log-distance model to pooled samples: distances
    d in meters and their received powers rssi in dBm.

    Needs finite samples, positive distances, and at least 3 samples spanning
    at least 2 distinct distances (the intercept/slope system is rank
    deficient otherwise).
    """
    d, rssi = np.asarray(d, dtype=float), np.asarray(rssi, dtype=float)
    if not (np.isfinite(d).all() and np.isfinite(rssi).all()):
        raise ValueError("fit samples must be finite")
    if not (d > 0).all():
        raise ValueError(f"distance must be positive, got {d[d <= 0][0]}")
    if not 0 < d0 < np.inf:
        raise ValueError(f"d0 must be positive and finite, got {d0}")
    n = d.size
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    if np.unique(d).size < 2:
        raise ValueError("all distances identical; slope is unidentifiable")
    x = np.log10(d / d0)
    # Columns: intercept (p_r_d0) and slope term (-10 * x) whose coefficient is gamma.
    design = np.column_stack([np.ones(n), -10.0 * x])
    coef, _, _, _ = np.linalg.lstsq(design, rssi, rcond=None)
    p_r_d0, gamma = float(coef[0]), float(coef[1])
    if gamma <= 0:
        raise ValueError(f"fitted path loss exponent {gamma:.6f} is not positive")
    resid = rssi - design @ coef
    residual_rms = float(np.sqrt(np.mean(resid**2)))
    sigma = float(np.sqrt(np.sum(resid**2) / (n - 2)))
    return FitResult(
        params=PathLossParams(gamma=gamma, sigma=sigma, p_r_d0=p_r_d0, d0=d0),
        residual_rms=residual_rms,
        n_samples=n,
    )
