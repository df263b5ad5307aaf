import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus.aoa import (
    angle_grid,
    correlation_matrix,
    eigendecompose,
    estimate_aoa,
    grid_size,
    music_spectrum,
    spatial_spectrum,
    _local_maxima,
    _refine_peak,
    _scan,
)
from locus.channel import ArraySpec, SnapshotMatrix, simulate_snapshots, steering_matrix


def _random_hermitian(m, rng):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (z + z.conj().T) / 2.0


def test_correlation_matrix_is_hermitian_psd():
    spec = ArraySpec(m=6, spacing_wavelengths=0.5, snapshots=128)
    rng = np.random.default_rng(0)
    x = simulate_snapshots(spec, [10.0], noise_power_db=-15.0, rng=rng)
    r = correlation_matrix(x)
    assert np.array_equal(r, r.conj().T)
    assert np.min(np.linalg.eigvalsh(r)) > -1e-12


def test_eigendecompose_matches_numpy_oracle():
    """Contract on random Hermitian matrices: eigenvalues of np.linalg.eigvalsh in
    descending order, orthonormal columns, and true eigenpairs."""
    rng = np.random.default_rng(3)
    for m in (2, 3, 5, 8):
        for _ in range(5):
            h = _random_hermitian(m, rng)
            values, v = eigendecompose(h)
            w_ref = np.linalg.eigvalsh(h)[::-1]
            assert np.allclose(values, w_ref, atol=1e-10)
            # orthonormal columns and true eigenpairs
            assert np.allclose(v.conj().T @ v, np.eye(m), atol=1e-10)
            assert np.allclose(h @ v, v * values, atol=1e-9)


def test_eigendecompose_clustered_eigenvalues():
    """Correlation-like matrix: one dominant plus a noise cluster."""
    rng = np.random.default_rng(4)
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=256)
    x = simulate_snapshots(spec, [17.3], noise_power_db=-20.0, rng=rng)
    r = correlation_matrix(x)
    values, vectors = eigendecompose(r)
    assert np.allclose(values, np.linalg.eigvalsh(r)[::-1], atol=1e-12)
    # full diagonalization, not just the easy directions
    resid = vectors.conj().T @ r @ vectors - np.diag(values)
    assert np.max(np.abs(resid)) < 1e-12


def test_eigendecompose_descending_and_identity():
    values, vectors = eigendecompose(np.eye(4, dtype=complex))
    assert np.allclose(values, 1.0)
    assert np.all(np.diff(values) <= 1e-15)
    assert np.allclose(vectors.conj().T @ vectors, np.eye(4))


def test_correlation_matrix_rejects_non_finite():
    """Finite snapshots whose products overflow give no correlation matrix."""
    spec = ArraySpec(m=2, spacing_wavelengths=0.5, snapshots=2)
    for big in (1e200, 1e200j, -1e160 + 1e160j):
        data = np.ones((2, 2), dtype=complex)
        data[1, 0] = big
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            correlation_matrix(SnapshotMatrix(data, spec))


def test_noise_subspace_shape_and_projector():
    """The music_spectrum noise columns, vectors[:, k:], span the m - k smallest
    eigenvalues; k outside [1, m) is refused."""
    rng = np.random.default_rng(5)
    h = _random_hermitian(6, rng)
    _, vectors = eigendecompose(h)
    un = vectors[:, 2:]
    assert un.shape == (6, 4)
    w_ref, v_ref = np.linalg.eigh(h)
    ref = v_ref[:, :4]  # ascending: 4 smallest
    assert np.allclose(un @ un.conj().T, ref @ ref.conj().T, atol=1e-9)
    x = SnapshotMatrix(rng.standard_normal((6, 16)) + 0j, ArraySpec(m=6, snapshots=16))
    for k in (0, 6):
        with pytest.raises(ValueError, match=f"1 <= k < 6, got {k}"):
            music_spectrum(x, k, 1.0)


def test_angle_grid_contract():
    g = angle_grid(0.1)
    assert g[0] == -90.0
    assert g[-1] == pytest.approx(90.0)
    assert g.size == 1801
    assert np.all(np.diff(g) > 0)
    with pytest.raises(ValueError):
        angle_grid(0.0)


@pytest.mark.parametrize("step", [0.25, 0.1, 0.5, 1.0, 0.05, 180.0 / 7])
def test_angle_grid_keeps_the_oracle_points(step):
    """A step that divides 180 gives round(180 / step) + 1 points from -90 to +90."""
    n = round(180 / step)
    g = angle_grid(step)
    assert g.tobytes() == (-90.0 + step * np.arange(n + 1)).tobytes()
    assert (g[0], g[-1]) == (-90.0, 90.0)


@pytest.mark.parametrize("step", [1.1, 7.0, 0.7, 200.0, 360.0, -1.0, math.nan, math.inf, 5e-324])
def test_angle_grid_refuses_a_step_that_does_not_divide_180(step):
    with pytest.raises(ValueError, match="grid step must be a positive divisor of 180 degrees"):
        angle_grid(step)
    x = simulate_snapshots(ArraySpec(8, 0.5, 32), [10.0], noise_power_db=-20.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="grid step must be a positive divisor"):
        estimate_aoa(x, 1, grid_step_deg=step)


@pytest.mark.parametrize("step", [0.001, 0.005, 0.009, 1e-6])
def test_grid_size_refuses_more_than_the_interval_cap(step):
    """A step below 0.01 degrees, 18 000 intervals, is refused by name."""
    assert grid_size(0.01) == 18_000
    with pytest.raises(ValueError, match=f"grid_step_deg must be at least 0.01 degrees, got {step}"):
        grid_size(step, "grid_step_deg")


def test_noiseless_orthogonality_and_floor():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=128)
    rng = np.random.default_rng(6)
    x = simulate_snapshots(spec, [10.0], noise_power_db=-math.inf, rng=rng)
    un = eigendecompose(correlation_matrix(x))[1][:, 1:]
    a = steering_matrix(spec, [10.0])[:, 0]
    assert np.linalg.norm(un.conj().T @ a) < 1e-6
    grid, power = spatial_spectrum(un, spec, 0.1)
    assert np.array_equal(grid, angle_grid(0.1))
    assert np.all(np.isfinite(power))
    assert power.max() <= 1e15 + 1e-9  # floored denominator


def test_local_maxima_rules():
    assert _local_maxima(np.array([0.0, 1.0, 0.0])).tolist() == [1]
    # plateau contributes its leading point only
    assert _local_maxima(np.array([0.0, 1.0, 1.0, 0.0])).tolist() == [1]
    # dominating endpoints count
    assert _local_maxima(np.array([2.0, 1.0, 3.0])).tolist() == [0, 2]
    # strictly increasing: only the right endpoint
    assert _local_maxima(np.array([1.0, 2.0, 3.0])).tolist() == [2]


def test_refine_peak_recovers_parabola_vertex():
    grid = np.array([-1.0, 0.0, 1.0])
    vertex = 0.3
    power = -((grid - vertex) ** 2)
    assert _refine_peak(grid, power, 1) == pytest.approx(vertex, abs=1e-12)
    # endpoints are returned unrefined
    assert _refine_peak(grid, power, 0) == -1.0


def test_cached_scan_matches_fresh_steering_matrix():
    """Interleaved arrays and steps never get another key's grid or matrix."""
    specs = [ArraySpec(8, 0.5, 256), ArraySpec(4, 0.5, 32), ArraySpec(8, 0.4, 256), ArraySpec(8, 0.5, 64)]
    steps = [0.25, 0.5, 1.0, 180.0 / 7]
    rng = np.random.default_rng(11)
    for _ in range(3):
        for spec in specs:
            for step in steps:
                g = angle_grid(step)
                grid, a = _scan(spec, step)
                assert np.array_equal(grid, g)
                assert np.array_equal(a, steering_matrix(spec, g))
                assert not grid.flags.writeable and not a.flags.writeable
                q, _ = np.linalg.qr(rng.standard_normal((spec.m, spec.m - 1)) + 0j)
                grid_out, power = spatial_spectrum(q, spec, step)
                fresh = 1.0 / np.maximum(np.sum(np.abs(q.conj().T @ steering_matrix(spec, g)) ** 2, axis=0), 1e-15)
                assert np.array_equal(power, fresh)
                assert grid_out is grid


def test_estimate_aoa_leaves_callers_grid_alone():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=64)
    x = simulate_snapshots(spec, [12.0], noise_power_db=-20.0, rng=np.random.default_rng(12))
    g = angle_grid(0.25)
    before = estimate_aoa(x, 1, grid_step_deg=0.25)
    g[:] = 0.0  # the cache holds its own grid
    assert estimate_aoa(x, 1, grid_step_deg=0.25) == before
    assert angle_grid(0.25).flags.writeable
    grid, _ = music_spectrum(x, 1, 0.25)
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.0


def test_music_spectrum_is_the_estimators_spectrum():
    """The spectrum locus aoa --spectrum writes is the one estimate_aoa picks
    its peaks from: the chain written out step by step gives its bits."""
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=128)
    x = simulate_snapshots(spec, [20.0, -35.0], noise_power_db=-10.0, rng=np.random.default_rng(13))
    grid, power = music_spectrum(x, 2, 0.25)
    r = x.data @ x.data.conj().T / 128
    vectors = np.linalg.eigh((r + r.conj().T) / 2.0)[1][:, ::-1]
    steer = steering_matrix(spec, angle_grid(0.25))
    want = 1.0 / np.maximum(np.sum(np.abs(vectors[:, 2:].conj().T @ steer) ** 2, axis=0), 1e-15)
    assert np.array_equal(grid, angle_grid(0.25)) and np.array_equal(power, want)
    maxima = _local_maxima(power)
    peaks = sorted(float(grid[i]) for i in maxima[np.argsort(-power[maxima], kind="stable")[:2]])
    assert all(abs(e - p) <= 0.25 for e, p in zip(estimate_aoa(x, 2, 0.25), peaks))


def test_estimate_single_source_accuracy():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=256)
    rng = np.random.default_rng(8)
    for theta in (-60.0, -12.5, 0.0, 33.3, 71.0):
        x = simulate_snapshots(spec, [theta], noise_power_db=-20.0, rng=rng)
        est = estimate_aoa(x, 1, 0.1)
        assert len(est) == 1
        assert abs(est[0] - theta) < 0.5


def test_estimate_two_sources_sorted():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=512)
    rng = np.random.default_rng(9)
    x = simulate_snapshots(spec, [20.0, -35.0], noise_power_db=-20.0, rng=rng)
    est = estimate_aoa(x, 2, 0.1)
    assert est == sorted(est)
    assert abs(est[0] + 35.0) < 1.0
    assert abs(est[1] - 20.0) < 1.0


def test_estimate_k_validation():
    spec = ArraySpec(m=4, spacing_wavelengths=0.5, snapshots=64)
    rng = np.random.default_rng(10)
    x = simulate_snapshots(spec, [5.0], noise_power_db=-10.0, rng=rng)
    with pytest.raises(ValueError):
        estimate_aoa(x, 0, 0.1)
    with pytest.raises(ValueError):
        estimate_aoa(x, 4, 0.1)


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-80.0, 80.0), seed=st.integers(0, 10_000))
def test_estimate_within_grid_resolution_noiseless(theta, seed):
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=64)
    rng = np.random.default_rng(seed)
    x = simulate_snapshots(spec, [theta], noise_power_db=-math.inf, rng=rng)
    est = estimate_aoa(x, 1, 0.1)
    assert abs(est[0] - theta) < 0.1
