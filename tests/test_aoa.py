import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus.aoa import (
    CorrelationMatrix,
    angle_grid,
    correlation_matrix,
    eigendecompose,
    estimate_aoa,
    noise_subspace,
    spatial_spectrum,
    _local_maxima,
    _refine_peak,
)
from locus.channel import ArraySpec, SourceSpec, simulate_snapshots, steering_vector


def _random_hermitian(m, rng):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (z + z.conj().T) / 2.0


def test_correlation_matrix_is_hermitian_psd():
    spec = ArraySpec(m=6, spacing_wavelengths=0.5, snapshots=128)
    rng = np.random.default_rng(0)
    x = simulate_snapshots(spec, [SourceSpec(10.0, 0.0)], noise_power_db=-15.0, rng=rng)
    r = correlation_matrix(x).r
    assert np.allclose(r, r.conj().T)
    assert np.min(np.linalg.eigvalsh(r)) > -1e-12


def test_eigendecompose_matches_numpy_oracle():
    """Contract on random Hermitian matrices: eigenvalues of np.linalg.eigvalsh in
    descending order, orthonormal columns, and true eigenpairs."""
    rng = np.random.default_rng(3)
    for m in (2, 3, 5, 8):
        for _ in range(5):
            h = _random_hermitian(m, rng)
            eig = eigendecompose(CorrelationMatrix(h))
            w_ref = np.linalg.eigvalsh(h)[::-1]
            assert np.allclose(eig.values, w_ref, atol=1e-10)
            v = eig.vectors
            # orthonormal columns and true eigenpairs
            assert np.allclose(v.conj().T @ v, np.eye(m), atol=1e-10)
            assert np.allclose(h @ v, v * eig.values, atol=1e-9)


def test_eigendecompose_clustered_eigenvalues():
    """Correlation-like matrix: one dominant plus a noise cluster."""
    rng = np.random.default_rng(4)
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=256)
    x = simulate_snapshots(spec, [SourceSpec(17.3, 0.0)], noise_power_db=-20.0, rng=rng)
    r = correlation_matrix(x).r
    eig = eigendecompose(correlation_matrix(x))
    assert np.allclose(eig.values, np.linalg.eigvalsh(r)[::-1], atol=1e-12)
    # full diagonalization, not just the easy directions
    resid = eig.vectors.conj().T @ r @ eig.vectors - np.diag(eig.values)
    assert np.max(np.abs(resid)) < 1e-12


def test_eigendecompose_descending_and_identity():
    eye = CorrelationMatrix(np.eye(4, dtype=complex))
    eig = eigendecompose(eye)
    assert np.allclose(eig.values, 1.0)
    assert np.all(np.diff(eig.values) <= 1e-15)
    with pytest.raises(ValueError):
        eigendecompose(CorrelationMatrix(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)))


def test_noise_subspace_shape_and_projector():
    rng = np.random.default_rng(5)
    h = _random_hermitian(6, rng)
    eig = eigendecompose(CorrelationMatrix(h))
    un = noise_subspace(eig, 2)
    assert un.shape == (6, 4)
    w_ref, v_ref = np.linalg.eigh(h)
    ref = v_ref[:, :4]  # ascending: 4 smallest
    assert np.allclose(un @ un.conj().T, ref @ ref.conj().T, atol=1e-9)
    with pytest.raises(ValueError):
        noise_subspace(eig, 0)
    with pytest.raises(ValueError):
        noise_subspace(eig, 6)


def test_angle_grid_contract():
    g = angle_grid(0.1)
    assert g[0] == -90.0
    assert g[-1] == pytest.approx(90.0)
    assert g.size == 1801
    assert np.all(np.diff(g) > 0)
    with pytest.raises(ValueError):
        angle_grid(0.0)


def test_noiseless_orthogonality_and_floor():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=128)
    rng = np.random.default_rng(6)
    x = simulate_snapshots(spec, [SourceSpec(10.0, 0.0)], noise_power_db=-math.inf, rng=rng)
    eig = eigendecompose(correlation_matrix(x))
    un = noise_subspace(eig, 1)
    a = steering_vector(spec, 10.0)
    assert np.linalg.norm(un.conj().T @ a) < 1e-6
    spectrum = spatial_spectrum(un, spec, angle_grid(0.1))
    assert np.all(np.isfinite(spectrum.power))
    assert spectrum.power.max() <= 1e15 + 1e-9  # floored denominator


def test_spatial_spectrum_grid_validation():
    rng = np.random.default_rng(7)
    spec = ArraySpec(m=4, spacing_wavelengths=0.5, snapshots=32)
    x = simulate_snapshots(spec, [SourceSpec(0.0, 0.0)], noise_power_db=-10.0, rng=rng)
    un = noise_subspace(eigendecompose(correlation_matrix(x)), 1)
    with pytest.raises(ValueError):
        spatial_spectrum(un, spec, np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        spatial_spectrum(un, spec, np.array([-100.0, 0.0]))


def test_local_maxima_rules():
    assert _local_maxima(np.array([0.0, 1.0, 0.0])) == [1]
    # plateau contributes its leading point only
    assert _local_maxima(np.array([0.0, 1.0, 1.0, 0.0])) == [1]
    # dominating endpoints count
    assert _local_maxima(np.array([2.0, 1.0, 3.0])) == [0, 2]
    # strictly increasing: only the right endpoint
    assert _local_maxima(np.array([1.0, 2.0, 3.0])) == [2]


def test_refine_peak_recovers_parabola_vertex():
    grid = np.array([-1.0, 0.0, 1.0])
    vertex = 0.3
    power = -((grid - vertex) ** 2)
    assert _refine_peak(grid, power, 1) == pytest.approx(vertex, abs=1e-12)
    # endpoints are returned unrefined
    assert _refine_peak(grid, power, 0) == -1.0


def test_estimate_single_source_accuracy():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=256)
    rng = np.random.default_rng(8)
    for theta in (-60.0, -12.5, 0.0, 33.3, 71.0):
        x = simulate_snapshots(spec, [SourceSpec(theta, 0.0)], noise_power_db=-20.0, rng=rng)
        est = estimate_aoa(x, 1)
        assert len(est) == 1
        assert abs(est[0] - theta) < 0.5


def test_estimate_two_sources_sorted():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=512)
    rng = np.random.default_rng(9)
    x = simulate_snapshots(
        spec, [SourceSpec(20.0, 0.0), SourceSpec(-35.0, 0.0)], noise_power_db=-20.0, rng=rng
    )
    est = estimate_aoa(x, 2)
    assert est == sorted(est)
    assert abs(est[0] + 35.0) < 1.0
    assert abs(est[1] - 20.0) < 1.0


def test_estimate_k_validation():
    spec = ArraySpec(m=4, spacing_wavelengths=0.5, snapshots=64)
    rng = np.random.default_rng(10)
    x = simulate_snapshots(spec, [SourceSpec(5.0, 0.0)], noise_power_db=-10.0, rng=rng)
    with pytest.raises(ValueError):
        estimate_aoa(x, 0)
    with pytest.raises(ValueError):
        estimate_aoa(x, 4)


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-80.0, 80.0), seed=st.integers(0, 10_000))
def test_estimate_within_grid_resolution_noiseless(theta, seed):
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=64)
    rng = np.random.default_rng(seed)
    x = simulate_snapshots(spec, [SourceSpec(theta, 0.0)], noise_power_db=-math.inf, rng=rng)
    est = estimate_aoa(x, 1)
    assert abs(est[0] - theta) < 0.1
