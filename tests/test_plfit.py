import math

import numpy as np
import pytest

from locus.channel import PathLossParams, expected_rssi, fit_path_loss, simulate_rssi


def test_exact_recovery_noise_free():
    """Three points on an exact log-distance line: gamma 2.5, offset -40."""
    res = fit_path_loss([1.0, 10.0, 100.0], [-40.0, -65.0, -90.0])
    assert res.params.gamma == pytest.approx(2.5, abs=1e-12)
    assert res.params.p_r_d0 == pytest.approx(-40.0, abs=1e-12)
    assert res.params.sigma == pytest.approx(0.0, abs=1e-9)
    assert res.residual_rms == pytest.approx(0.0, abs=1e-9)


def test_against_polyfit_oracle():
    """Independent route: least squares via np.polyfit on x = -10 log10 d."""
    rng = np.random.default_rng(42)
    d = rng.uniform(1.0, 40.0, 200)
    rssi = -38.0 - 10 * 2.2 * np.log10(d) + rng.normal(0, 2.5, 200)
    res = fit_path_loss(d, rssi)
    slope, intercept = np.polyfit(-10.0 * np.log10(d), rssi, 1)
    assert res.params.gamma == pytest.approx(slope, abs=1e-9)
    assert res.params.p_r_d0 == pytest.approx(intercept, abs=1e-9)
    # unbiased residual spread, n-2 dof
    pred = intercept - slope * 10.0 * np.log10(d)
    sig = math.sqrt(np.sum((rssi - pred) ** 2) / (200 - 2))
    assert res.params.sigma == pytest.approx(sig, abs=1e-9)


def test_monte_carlo_parameter_recovery():
    p = PathLossParams(gamma=2.5, sigma=3.0, p_r_d0=-40.0)
    rng = np.random.default_rng(7)
    d = rng.uniform(1.0, 30.0, 1000)
    res = fit_path_loss(d, [simulate_rssi(p, di, rng) for di in d])
    assert abs(res.params.gamma - 2.5) < 0.1
    assert abs(res.params.sigma - 3.0) < 0.3
    assert abs(res.params.p_r_d0 - (-40.0)) < 1.0


def test_preconditions():
    with pytest.raises(ValueError, match="need at least 3 samples, got 2"):
        fit_path_loss([1.0, 2.0], [-40.0, -45.0])
    with pytest.raises(ValueError, match="all distances identical"):
        fit_path_loss([2.0] * 5, [-40.0] * 5)  # one distinct distance
    with pytest.raises(ValueError, match="distance must be positive, got 0.0"):
        fit_path_loss([1.0, 0.0, 2.0], [-40.0, -40.0, -45.0])
    with pytest.raises(ValueError, match="fit samples must be finite"):
        fit_path_loss([1.0, 2.0, 3.0], [-40.0, float("nan"), -45.0])
    with pytest.raises(ValueError, match="fit samples must be finite"):
        fit_path_loss([1.0, float("inf"), 3.0], [-40.0, -41.0, -45.0])
    for d0 in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="d0 must be positive and finite"):
            fit_path_loss([1.0, 2.0, 3.0], [-40.0, -41.0, -45.0], d0=d0)


def test_nonphysical_fit_rejected():
    # rssi increasing with distance fits a negative exponent
    with pytest.raises(ValueError, match="fitted path loss exponent .* is not positive"):
        fit_path_loss([1.0, 10.0, 100.0], [-80.0, -60.0, -40.0])
