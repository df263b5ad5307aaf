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
    _scan,
)
from locus.channel import ArraySpec, SourceSpec, simulate_snapshots, steering_matrix, steering_vector


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


def test_correlation_matrix_rejects_non_finite():
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, math.nan)):
        r = np.eye(2, dtype=complex)
        r[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            CorrelationMatrix(r)


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
    x = simulate_snapshots(ArraySpec(8, 0.5, 32), [SourceSpec(10.0, 0.0)], noise_power_db=-20.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="grid step must be a positive divisor"):
        estimate_aoa(x, 1, grid_step_deg=step)


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
    """Interleaved arrays and grids never get another key's matrix."""
    specs = [ArraySpec(8, 0.5, 256), ArraySpec(4, 0.5, 32), ArraySpec(8, 0.4, 256), ArraySpec(8, 0.5, 64)]
    grids = [angle_grid(0.25), angle_grid(0.5), angle_grid(0.25)[1:], np.array([-10.0, 0.0, 10.0])]
    rng = np.random.default_rng(11)
    for _ in range(3):
        for spec in specs:
            for g in grids:
                grid, a = _scan(spec, np.asarray(g, dtype=float).tobytes())
                assert np.array_equal(grid, g)
                assert np.array_equal(a, steering_matrix(spec, g))
                assert not grid.flags.writeable and not a.flags.writeable
                q, _ = np.linalg.qr(rng.standard_normal((spec.m, spec.m - 1)) + 0j)
                spec_out = spatial_spectrum(q, spec, g)
                fresh = 1.0 / np.maximum(np.sum(np.abs(q.conj().T @ steering_matrix(spec, g)) ** 2, axis=0), 1e-15)
                assert np.array_equal(spec_out.power, fresh)
                assert not spec_out.grid_deg.flags.writeable


def test_estimate_aoa_leaves_callers_grid_alone():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=64)
    x = simulate_snapshots(spec, [SourceSpec(12.0, 0.0)], noise_power_db=-20.0, rng=np.random.default_rng(12))
    g = angle_grid(0.25)
    before = estimate_aoa(x, 1, grid_step_deg=0.25)
    un = noise_subspace(eigendecompose(correlation_matrix(x)), 1)
    spatial_spectrum(un, spec, g)
    g[:] = 0.0  # the cache holds its own copy
    assert estimate_aoa(x, 1, grid_step_deg=0.25) == before
    assert angle_grid(0.25).flags.writeable


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    skew=st.sampled_from([0.0, 1e-16, 1e-12, 1e-11, 5e-11, 1e-10, 1e-9, 1e-6, 1.0]),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
)
def test_hermitian_guard_matches_allclose(m, seed, skew, scale):
    rng = np.random.default_rng(seed)
    r = scale * (_random_hermitian(m, rng) + skew * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))))
    want = np.allclose(r, r.conj().T, atol=max(float(np.linalg.norm(r)), 1.0) * 1e-10)
    if want:
        eigendecompose(CorrelationMatrix(r))
    else:
        with pytest.raises(ValueError, match="not Hermitian"):
            eigendecompose(CorrelationMatrix(r))


def test_hermitian_guard_at_the_tolerance_edge():
    """Skews one float apart on either side of the bound np.allclose applies."""
    for base in (0.0, 0.5, 3.0, 1e4):

        def skewed(d):
            r = np.eye(3, dtype=complex)
            r[0, 1] = r[1, 0] = base
            r[0, 1] += d
            return r

        def close(d):
            r = skewed(d)
            return np.allclose(r, r.conj().T, atol=max(float(np.linalg.norm(r)), 1.0) * 1e-10)

        lo, hi = 0.0, 1.0
        assert close(lo) and not close(hi)
        while (mid := lo + (hi - lo) / 2) not in (lo, hi):
            lo, hi = (mid, hi) if close(mid) else (lo, mid)
        eigendecompose(CorrelationMatrix(skewed(lo)))
        with pytest.raises(ValueError, match="not Hermitian"):
            eigendecompose(CorrelationMatrix(skewed(hi)))


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
