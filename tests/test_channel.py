import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus.channel import (
    ArraySpec,
    PathLossParams,
    SnapshotMatrix,
    expected_rssi,
    simulate_rssi,
    simulate_snapshots,
    snapshots_from_csv,
    snapshots_to_csv,
    steering_matrix,
)


def test_params_validation():
    with pytest.raises(ValueError):
        PathLossParams(gamma=0.0, sigma=1.0, p_r_d0=-40.0)
    with pytest.raises(ValueError):
        PathLossParams(gamma=2.0, sigma=-1.0, p_r_d0=-40.0)
    with pytest.raises(ValueError):
        PathLossParams(gamma=2.0, sigma=1.0, p_r_d0=-40.0, d0=0.0)


def test_expected_rssi_reference_distance():
    p = PathLossParams(gamma=2.0, sigma=0.0, p_r_d0=-40.0, d0=1.0)
    assert expected_rssi(p, 1.0) == -40.0


def test_expected_rssi_decade():
    p = PathLossParams(gamma=2.0, sigma=0.0, p_r_d0=-40.0, d0=1.0)
    assert expected_rssi(p, 10.0) == pytest.approx(-60.0)


def test_expected_rssi_derived_value():
    # independently: -38 - 25*log10(5) = -55.474250108400466
    p = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-38.0, d0=1.0)
    assert expected_rssi(p, 5.0) == pytest.approx(-55.474250108400466, abs=1e-12)


def test_expected_rssi_below_reference_errors():
    p = PathLossParams(gamma=2.0, sigma=0.0, p_r_d0=-40.0, d0=1.0)
    with pytest.raises(ValueError):
        expected_rssi(p, 0.5)


@settings(max_examples=100)
@given(
    gamma=st.floats(0.5, 6.0),
    d1=st.floats(1.0, 50.0),
    d2=st.floats(1.0, 50.0),
)
def test_expected_rssi_monotone_decreasing(gamma, d1, d2):
    p = PathLossParams(gamma=gamma, sigma=0.0, p_r_d0=-40.0)
    lo, hi = sorted([d1, d2])
    assert expected_rssi(p, hi) <= expected_rssi(p, lo)
    # Distances an ulp or so apart can round to the same dBm value; past
    # rounding the drop must be strict.
    if hi > lo * (1 + 1e-9):
        assert expected_rssi(p, hi) < expected_rssi(p, lo)


def test_simulate_rssi_sigma_zero_is_expected():
    p = PathLossParams(gamma=2.2, sigma=0.0, p_r_d0=-41.0)
    rng = np.random.default_rng(5)
    assert simulate_rssi(p, 7.0, rng) == expected_rssi(p, 7.0)


def test_simulate_rssi_monte_carlo():
    """Sample mean/std against the generating distribution."""
    p = PathLossParams(gamma=2.0, sigma=4.0, p_r_d0=-40.0)
    rng = np.random.default_rng(123)
    draws = np.array([simulate_rssi(p, 5.0, rng) for _ in range(10000)])
    assert abs(draws.mean() - expected_rssi(p, 5.0)) < 0.15
    assert abs(draws.std(ddof=1) - 4.0) < 0.2


def test_simulate_rssi_deterministic():
    p = PathLossParams(gamma=2.0, sigma=3.0, p_r_d0=-40.0)
    a = simulate_rssi(p, 4.0, np.random.default_rng(9))
    b = simulate_rssi(p, 4.0, np.random.default_rng(9))
    assert a == b


def test_steering_vector_structure():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=16)
    a, a30 = steering_matrix(spec, [0.0, 30.0]).T
    assert np.allclose(a, np.ones(8))  # broadside: no phase progression
    # phase step is -2*pi*0.5*sin(30 deg) = -pi/2 per element
    step = np.exp(-1j * math.pi / 2.0)
    expect = step ** np.arange(8)
    assert np.allclose(a30, expect)
    assert np.allclose(np.abs(a30), 1.0)


def test_steering_matrix_columns():
    spec = ArraySpec(m=4, spacing_wavelengths=0.5, snapshots=16)
    grid = np.array([-10.0, 0.0, 45.0])
    mat = steering_matrix(spec, grid)
    assert mat.shape == (4, 3)
    for j, th in enumerate(grid):
        phase = -2j * math.pi * 0.5 * np.arange(4) * math.sin(math.radians(th))
        assert np.allclose(mat[:, j], np.exp(phase))


def test_snapshots_noiseless_rank_one():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=64)
    rng = np.random.default_rng(2)
    x = simulate_snapshots(spec, [25.0], noise_power_db=-math.inf, rng=rng)
    assert x.data.shape == (8, 64)
    a = steering_matrix(spec, [25.0])[:, 0]
    # every column proportional to a(25) -> zero residual after projection
    proj = np.outer(a, a.conj()) / 8.0
    resid = x.data - proj @ x.data
    assert np.max(np.abs(resid)) < 1e-12


def test_snapshots_dominant_eigenvector_matches_steering():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=256)
    rng = np.random.default_rng(3)
    x = simulate_snapshots(spec, [30.0], noise_power_db=-20.0, rng=rng)
    r = x.data @ x.data.conj().T / 256
    w, v = np.linalg.eigh(r)
    top = v[:, -1]
    a = steering_matrix(spec, [30.0])[:, 0]
    cosine = abs(np.vdot(top, a)) / (np.linalg.norm(top) * np.linalg.norm(a))
    assert cosine > 0.99


def test_snapshots_two_sources_eigenvalue_gap():
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=256)
    rng = np.random.default_rng(4)
    x = simulate_snapshots(spec, [-20.0, 40.0], noise_power_db=-20.0, rng=rng)
    w = np.linalg.eigvalsh(x.data @ x.data.conj().T / 256)[::-1]
    assert w[1] / w[2] > 10.0  # two signal eigenvalues clear of the noise floor


def test_snapshots_source_count_validation():
    spec = ArraySpec(m=4, spacing_wavelengths=0.5, snapshots=8)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate_snapshots(spec, [], noise_power_db=0.0, rng=rng)
    with pytest.raises(ValueError):
        simulate_snapshots(spec, [0.0] * 4, noise_power_db=0.0, rng=rng)


def _four_draw_snapshots(array, thetas, noise_power_db, rng):
    """simulate_snapshots as it was with four standard_normal draws, kept as its oracle."""
    k, t = len(thetas), array.snapshots
    a = steering_matrix(array, np.array(thetas))
    symbols = rng.standard_normal((k, t)) + 1j * rng.standard_normal((k, t))
    symbols *= np.sqrt(np.ones(k) / 2.0)[:, None]
    x = a @ symbols
    npow = 10.0 ** (noise_power_db / 10.0)
    if npow > 0.0:
        noise = rng.standard_normal((array.m, t)) + 1j * rng.standard_normal((array.m, t))
        x = x + math.sqrt(npow / 2.0) * noise
    return x


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 2]),
    noise_db=st.sampled_from([-math.inf, -20.0, 0.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([3, 4, 8]),
    t=st.sampled_from([1, 7, 64, 256]),
    thetas=st.lists(st.floats(-90.0, 90.0), min_size=2, max_size=2),
)
def test_snapshots_match_four_draw_oracle(k, noise_db, seed, m, t, thetas):
    """Same bits and same generator state afterwards as the four-draw code."""
    spec = ArraySpec(m=m, spacing_wavelengths=0.5, snapshots=t)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        got = simulate_snapshots(spec, thetas[:k], noise_power_db=noise_db, rng=rng)
        assert np.array_equal(got.data, _four_draw_snapshots(spec, thetas[:k], noise_db, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_simulate_snapshots_refuses_an_angle_outside_the_field_of_view():
    spec = ArraySpec(m=4, spacing_wavelengths=0.5, snapshots=8)
    rng = np.random.default_rng(0)
    for thetas, bad in (([10.0, 95.0], "95.0"), ([-90.5, 0.0], "-90.5"), ([0.0, math.nan], "nan")):
        with pytest.raises(ValueError, match=rf"source angle must lie in \[-90, 90\] deg, got {bad}$"):
            simulate_snapshots(spec, thetas, noise_power_db=0.0, rng=rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    # The field of view's ends are in it.
    simulate_snapshots(spec, [-90.0, 90.0], noise_power_db=0.0, rng=rng)


def test_snapshot_matrix_rejects_non_finite():
    spec = ArraySpec(m=2, spacing_wavelengths=0.5, snapshots=2)
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)):
        data = np.ones((2, 2), dtype=complex)
        data[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            SnapshotMatrix(data, spec)


def test_simulate_snapshots_rejects_nan_noise_power():
    spec = ArraySpec(m=4, spacing_wavelengths=0.5, snapshots=8)
    with pytest.raises(ValueError, match="noise_power_db"):
        simulate_snapshots(spec, [10.0], noise_power_db=math.nan, rng=np.random.default_rng(0))
    # -inf stays the noiseless flag.
    x = simulate_snapshots(spec, [10.0], noise_power_db=-math.inf, rng=np.random.default_rng(0))
    assert np.linalg.matrix_rank(x.data) == 1


def test_snapshot_csv_roundtrip():
    spec = ArraySpec(m=5, spacing_wavelengths=0.5, snapshots=12)
    rng = np.random.default_rng(8)
    x = simulate_snapshots(spec, [-5.0], noise_power_db=-10.0, rng=rng)
    back = snapshots_from_csv(snapshots_to_csv(x), spacing_wavelengths=0.5)
    assert back.array.m == 5 and back.array.snapshots == 12
    assert np.array_equal(back.data, x.data)
