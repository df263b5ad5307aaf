import json
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus import neural, pipeline
from locus.channel import NlosModel, PathLossParams, expected_rssi
from locus.environment import Point2D, make_environment, standard_environment, true_aoa, true_distance
from locus.pipeline import (
    AoaSim,
    Dataset,
    MusicSpec,
    NormStats,
    OutlierPolicy,
    SplitSpec,
    UsageError,
    config_to_dict,
    dataset_from_dict,
    dataset_to_dict,
    evaluate_mae,
    generate_dataset,
    hybrid_baseline_mae_mm,
    improvement_percent,
    load_config,
    run_experiment,
    screen_outlier,
    split,
    trilat_baseline_mae_mm,
    worker_count,
    write_report_files,
    _run_cells,
)

PARAMS = PathLossParams(gamma=2.5, sigma=3.0, p_r_d0=-40.0)
QUIET = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0)
# Music mode at a scale that keeps a test well under a second.
TINY_MUSIC = AoaSim(mode="music", music=MusicSpec(8, 0.5, 64, snr_db=20.0, grid_step_deg=0.5))
# screen_outlier's thresholds: 9 dB per anchor, 10 degrees.
LIMITS = ((9.0, 9.0, 9.0), 10.0)


def _tiny_env(n_points=3):
    pts = (Point2D(3.0, 4.0), Point2D(6.0, 2.0), Point2D(8.0, 6.5))[:n_points]
    return make_environment("tiny", 10.0, 8.0, pts)


# ---------------------------------------------------------------------------
# outlier screening


def test_screen_accepts_within_thresholds():
    theo = np.array([-50.0, -60.0, -70.0, 10.0, 20.0, 30.0])
    meas = theo + np.array([8.9, -8.9, 0.0, 9.9, -9.9, 0.0])
    assert screen_outlier(theo, meas, *LIMITS)


def test_screen_rejects_each_channel():
    theo = np.array([-50.0, -60.0, -70.0, 10.0, 20.0, 30.0])
    bad_rssi = theo.copy()
    bad_rssi[1] -= 9.1
    assert not screen_outlier(theo, bad_rssi, *LIMITS)
    bad_aoa = theo.copy()
    bad_aoa[5] += 10.1
    assert not screen_outlier(theo, bad_aoa, *LIMITS)


def test_screen_refuses_rssi_only_rows():
    theo = np.array([-50.0, -60.0, -70.0])
    hybrid = np.concatenate([theo, [10.0, 20.0, 30.0]])
    for theoretical, measured in ((theo, theo), (hybrid, theo), (theo, hybrid)):
        with pytest.raises(ValueError, match="6 entries: 3 RSSI values, then 3 angles"):
            screen_outlier(theoretical, measured, *LIMITS)


def test_screen_wraps_angle_deviations():
    theo = np.array([-50.0, -60.0, -70.0, 10.0, 180.0, -170.0])
    # Across the +-180 seam: 180 vs -175.5 is 4.5 degrees, -170 vs 175 is 15.
    near = theo + np.array([0.0, 0.0, 0.0, 0.0, -355.5, 0.0])
    far = theo + np.array([0.0, 0.0, 0.0, 0.0, 0.0, -15.0 + 360.0])
    assert screen_outlier(theo, near, *LIMITS)
    assert not screen_outlier(theo, far, *LIMITS)
    # Whole turns fold away; up to 180 the deviation is the raw one.
    assert screen_outlier(theo, theo + np.array([0.0] * 3 + [720.0 + 9.9, -360.0, 0.0]), *LIMITS)
    with np.errstate(invalid="ignore"):
        assert not screen_outlier(theo, theo + np.array([0.0] * 5 + [np.inf]), *LIMITS)
    rng = np.random.default_rng(0)
    meas = theo + np.column_stack([np.zeros((500, 3)), rng.uniform(-180.0, 180.0, (500, 3))])
    raw = ~np.any(np.abs(meas - theo)[:, 3:] > LIMITS[1], axis=1)
    assert np.array_equal(screen_outlier(theo, meas, *LIMITS), raw)


# Angles on a quarter-degree lattice: every sum and difference below is exact,
# so a whole-turn shift cannot move a deviation across its threshold by rounding.
_QUARTERS = st.integers(-2880, 2880).map(lambda q: q / 4.0)


@settings(max_examples=200, deadline=None)
@given(
    theo=st.lists(_QUARTERS, min_size=6, max_size=6),
    meas=st.lists(_QUARTERS, min_size=6, max_size=6),
    which=st.integers(3, 5),
    turns=st.integers(-3, 3).filter(bool),
    shift_theo=st.booleans(),
    aoa_threshold=st.integers(0, 720).map(lambda q: q / 4.0),
)
def test_screen_mask_invariant_to_whole_turns(theo, meas, which, turns, shift_theo, aoa_threshold):
    theo, meas = np.array(theo), np.array(meas)
    limits = ((9.0, 9.0, 9.0), aoa_threshold)
    before = screen_outlier(theo, meas, *limits)
    (theo if shift_theo else meas)[which] += 360.0 * turns
    assert screen_outlier(theo, meas, *limits) == before


@settings(max_examples=100, deadline=None)
@given(
    theo=st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
    n=st.integers(1, 5),
)
def test_screen_zero_noise_passes_zero_thresholds(theo, n):
    theo = np.array(theo)
    assert screen_outlier(theo, np.tile(theo, (n, 1)), np.zeros(3), 0.0).all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), n_per_point=st.integers(1, 12), layout=st.sampled_from(["rssi", "hybrid"]))
def test_zero_noise_dataset_passes_a_zero_screen(seed, n_per_point, layout):
    env = _tiny_env()
    ds = generate_dataset(env, QUIET, NlosModel(0.0, 0.0), n_per_point, layout, OutlierPolicy(0.0, 0.0), seed, AoaSim("fast", 0.0))
    assert ds.rejects == 0
    assert np.array_equal(np.bincount(ds.point_ids), [n_per_point] * 3)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), n_per_point=st.integers(1, 12), layout=st.sampled_from(["rssi", "hybrid"]))
def test_generate_dataset_repeats_bit_for_bit(seed, n_per_point, layout):
    env = _tiny_env()
    a, b = (generate_dataset(env, PARAMS, NlosModel(2.0, 3.0), n_per_point, layout, seed=seed) for _ in range(2))
    assert a.features.tobytes() == b.features.tobytes() and a.rejects == b.rejects
    assert np.array_equal(np.bincount(a.point_ids), [n_per_point] * 3)
    for pid, p in enumerate(env.test_points):
        assert np.array_equal(a.targets[a.point_ids == pid], np.tile([p.x, p.y], (n_per_point, 1)))


def test_music_dataset_at_the_far_wall():
    """Anchor 2 sees a point on the x = length wall at +180 degrees; its
    MUSIC estimate lands near -180 and must pass the screen."""
    env = make_environment("r", 9, 7, [Point2D(9.0, 3.5), Point2D(4.5, 3.5)])
    assert true_aoa(env, 2, env.test_points[0]) == 180.0
    ds = generate_dataset(env, PARAMS, NlosModel(4.0, 4.0), 20, "hybrid", seed=0, aoa=AoaSim(mode="music"))
    wall = ds.features[ds.point_ids == 0, 4]
    assert np.all(np.minimum(wall % 360.0, 360.0 - wall % 360.0) > 170.0)


def test_default_policy_scales_with_sigma():
    p = OutlierPolicy()
    assert (p.rssi_sigma_multiple, p.aoa_threshold_deg) == (3.0, 10.0)
    # Each anchor is screened at the multiple times its own sigma.
    env = _tiny_env(1)
    sigmas = np.array([1.0, 2.0, 4.0])
    params = [PathLossParams(gamma=2.5, sigma=s, p_r_d0=-40.0) for s in sigmas]
    theo = [expected_rssi(params[i - 1], true_distance(env, i, env.test_points[0])) for i in (1, 2, 3)]
    for policy, multiple in ((None, 3.0), (OutlierPolicy(1.5, 10.0), 1.5)):
        kwargs = {} if policy is None else {"outlier": policy}
        ds = generate_dataset(env, params, NlosModel(0.0, 0.0), 300, "rssi", seed=4, **kwargs)
        dev = np.abs(ds.features - theo)
        assert np.all(dev <= multiple * sigmas)
        assert np.all(dev.max(axis=0) > 0.8 * multiple * sigmas)


# ---------------------------------------------------------------------------
# dataset generation


def test_zero_noise_features_equal_theoretical():
    """sigma=0, nlos=(0,0): every sample is exactly the theoretical vector."""
    env = _tiny_env()
    ds = generate_dataset(env, QUIET, NlosModel(0.0, 0.0), 5, layout="hybrid", seed=0,
                          aoa=AoaSim("fast", 0.0))
    assert ds.rejects == 0
    assert ds.n == 15
    for pid, p in enumerate(env.test_points):
        theo = np.array(
            [expected_rssi(QUIET, true_distance(env, i, p)) for i in (1, 2, 3)]
            + [true_aoa(env, i, p) for i in (1, 2, 3)]
        )
        rows = ds.features[ds.point_ids == pid]
        assert np.allclose(rows, theo, atol=1e-12)
        assert np.allclose(ds.targets[ds.point_ids == pid], [p.x, p.y])


@pytest.mark.parametrize(
    "aoa, n_per_point, aoa_bias",
    [(AoaSim("fast", 2.0), 200, 1.0), (TINY_MUSIC, 20, 5.0)],
    ids=["fast", "music"],
)
def test_generated_features_respect_screen(aoa, n_per_point, aoa_bias):
    env = _tiny_env()
    nlos = NlosModel(1.0, aoa_bias)
    ds = generate_dataset(env, PARAMS, nlos, n_per_point, layout="hybrid", seed=3, aoa=aoa)
    for pid, p in enumerate(env.test_points):
        theo = np.array(
            [expected_rssi(PARAMS, true_distance(env, i, p)) for i in (1, 2, 3)]
            + [true_aoa(env, i, p) for i in (1, 2, 3)]
        )
        rows = ds.features[ds.point_ids == pid]
        dev = np.abs(rows - theo)
        assert np.all(dev[:, :3] <= 9.0 + 1e-12)
        assert np.all(dev[:, 3:] <= 10.0 + 1e-12)
    assert ds.rejects > 0  # at this sigma some redraws must happen


def test_rssi_layout_has_three_columns():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(0.0, 0.0), 10, layout="rssi", seed=1)
    assert ds.features.shape == (30, 3)


def test_dataset_determinism_and_seed_sensitivity():
    env = _tiny_env()
    a = generate_dataset(env, PARAMS, NlosModel(1.0, 1.0), 50, layout="hybrid", seed=5)
    b = generate_dataset(env, PARAMS, NlosModel(1.0, 1.0), 50, layout="hybrid", seed=5)
    c = generate_dataset(env, PARAMS, NlosModel(1.0, 1.0), 50, layout="hybrid", seed=6)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


@pytest.mark.parametrize("aoa", [AoaSim("fast"), TINY_MUSIC], ids=["fast", "music"])
def test_redraw_cap_raises(aoa):
    env = _tiny_env(1)
    strict = OutlierPolicy(0.001 / 3.0, 10.0)
    with pytest.raises(RuntimeError, match="redraw cap"):
        generate_dataset(env, PARAMS, NlosModel(0.0, 0.0), 5, layout="hybrid",
                         outlier=strict, seed=0, aoa=aoa)


def test_project_rssi_shares_draws():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(1.0, 1.0), 30, layout="hybrid", seed=7)
    view = ds.project_rssi()
    assert view.layout == "rssi"
    assert np.array_equal(view.features, ds.features[:, :3])
    assert np.array_equal(view.targets, ds.targets)
    with pytest.raises(ValueError):
        view.project_rssi()


def test_music_mode_dataset():
    """Slow path at tiny scale: estimates must stay within the screen."""
    env = _tiny_env(1)
    aoa = AoaSim(mode="music", music=MusicSpec(8, 0.5, 64, snr_db=20.0, grid_step_deg=0.5))
    ds = generate_dataset(env, QUIET, NlosModel(0.0, 0.5), 3, layout="hybrid", seed=2, aoa=aoa)
    p = env.test_points[0]
    theo_aoa = np.array([true_aoa(env, i, p) for i in (1, 2, 3)])
    assert np.all(np.abs(ds.features[:, 3:] - theo_aoa) < 10.0)
    # rssi half is exact at sigma 0
    theo_rssi = np.array([expected_rssi(QUIET, true_distance(env, i, p)) for i in (1, 2, 3)])
    assert np.allclose(ds.features[:, :3], theo_rssi, atol=1e-12)


def test_dataset_json_roundtrip():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(1.0, 1.0), 8, layout="hybrid", seed=11)
    doc = json.loads(json.dumps(dataset_to_dict(ds)))
    back = dataset_from_dict(doc)
    assert back.layout == ds.layout
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.targets, ds.targets)
    assert np.array_equal(back.point_ids, ds.point_ids)
    assert back.rejects == ds.rejects


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_dataset_refuses_a_non_finite_feature_naming_its_first_sample(bad):
    ds = generate_dataset(_tiny_env(), PARAMS, NlosModel(1.0, 1.0), 4, layout="rssi", seed=2)
    features = ds.features.copy()
    features[[5, 9], 1] = bad
    with pytest.raises(ValueError, match=r"^dataset sample 5: 'features' must be a list of 3 finite numbers$"):
        Dataset(ds.env, ds.seed, features, ds.point_ids)


# ---------------------------------------------------------------------------
# split


def test_split_exact_counts():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(0.0, 0.0), 500, layout="rssi", seed=0)
    tr, te = split(ds, 0.8, seed=1)
    for pid in range(3):
        assert int(np.sum(tr.point_ids == pid)) == 400
        assert int(np.sum(te.point_ids == pid)) == 100


def test_split_disjoint_and_complete():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(1.0, 0.0), 40, layout="rssi", seed=4)
    tr, te = split(ds, 0.75, seed=2)
    assert tr.n + te.n == ds.n
    # features partition the original rows exactly
    all_rows = np.vstack([tr.features, te.features])
    assert np.array_equal(np.sort(all_rows, axis=0), np.sort(ds.features, axis=0))


def test_split_deterministic_and_fraction_validation():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(0.0, 0.0), 20, layout="rssi", seed=0)
    a1, b1 = split(ds, 0.8, seed=9)
    a2, b2 = split(ds, 0.8, seed=9)
    assert np.array_equal(a1.features, a2.features)
    with pytest.raises(ValueError):
        split(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        split(ds, 1.0, seed=0)
    with pytest.raises(ValueError):
        split(ds, 0.01, seed=0)  # empty train side per point


def test_split_refuses_what_split_spec_refuses_in_its_words():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(0.0, 0.0), 20, layout="rssi", seed=0)
    for fraction, seed in ((1.5, 0), (math.nan, 0), (0.8, -1)):
        with pytest.raises(ValueError) as spec_error:
            SplitSpec(fraction, seed)
        with pytest.raises(ValueError) as split_error:
            split(ds, fraction, seed=seed)
        assert str(split_error.value) == str(spec_error.value)


# ---------------------------------------------------------------------------
# normalization


def test_norm_roundtrip_far_below_tolerance():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(1.0, 1.0), 30, layout="hybrid", seed=13)
    stats = NormStats.fit(ds)
    yn = stats.normalize_targets(ds.targets)
    back = stats.denormalize_targets(yn)
    assert np.max(np.abs(back - ds.targets)) < 1e-12
    xn = stats.normalize_features(ds.features)
    assert xn.min() == 0.0 and xn.max() == 1.0


def test_norm_constant_column_maps_to_zero():
    stats = NormStats(
        feature_min=np.array([0.0, 5.0]),
        feature_max=np.array([1.0, 5.0]),
        target_min=np.zeros(2),
        target_max=np.ones(2),
    )
    xn = stats.normalize_features(np.array([[0.5, 5.0]]))
    assert xn[0, 1] == 0.0
    assert xn[0, 0] == 0.5


def test_norm_out_of_range_passes_through_unclamped():
    stats = NormStats(
        feature_min=np.array([0.0]),
        feature_max=np.array([10.0]),
        target_min=np.zeros(2),
        target_max=np.ones(2),
    )
    xn = stats.normalize_features(np.array([[15.0], [-5.0]]))
    assert xn[0, 0] == pytest.approx(1.5)
    assert xn[1, 0] == pytest.approx(-0.5)


def test_norm_stats_dict_roundtrip():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(0.0, 0.0), 10, layout="rssi", seed=0)
    stats = NormStats.fit(ds)
    back = NormStats.from_dict(json.loads(json.dumps(stats.to_dict())), 3)
    assert np.array_equal(back.feature_min, stats.feature_min)
    assert np.array_equal(back.target_max, stats.target_max)


@settings(max_examples=50)
@given(lo=st.floats(-100, 0), span=st.floats(0.1, 100), v=st.floats(-50, 50))
def test_norm_roundtrip_property(lo, span, v):
    stats = NormStats(
        feature_min=np.array([lo]),
        feature_max=np.array([lo + span]),
        target_min=np.array([lo, lo]),
        target_max=np.array([lo + span, lo + span]),
    )
    y = np.array([[v, v]])
    back = stats.denormalize_targets(stats.normalize_targets(y))
    assert np.max(np.abs(back - y)) < 1e-9 * max(1.0, abs(v))


# ---------------------------------------------------------------------------
# evaluation


class _FixedOffsetModel:
    """Predicts normalized truth shifted by a constant; for MAE oracles."""

    family = "fixed"

    def __init__(self, stats, offset_m):
        self.stats = stats
        self.offset_m = offset_m

    def forward_batch(self, xn):
        # cheat: recover targets from stored copy at eval time
        return self._yn + self._shift

    def prime(self, targets):
        self._yn = self.stats.normalize_targets(targets)
        span = self.stats.target_max - self.stats.target_min
        self._shift = np.array([self.offset_m, 0.0]) / span


def test_evaluate_mae_constant_offset_oracle():
    """A model off by exactly 0.25 m in x must score 250 mm."""
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(0.0, 0.0), 20, layout="rssi", seed=0)
    stats = NormStats.fit(ds)
    model = _FixedOffsetModel(stats, 0.25)
    model.prime(ds.targets)
    overall, per_point = evaluate_mae(model, ds, stats)
    assert overall == pytest.approx(250.0, abs=1e-9)
    assert set(per_point) == {"0", "1", "2"}
    for v in per_point.values():
        assert v == pytest.approx(250.0, abs=1e-9)


def test_evaluate_mae_refuses_non_finite_or_overflowing_predictions():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(0.0, 0.0), 5, layout="rssi", seed=0)
    stats = NormStats.fit(ds)
    for offset_m in (math.nan, math.inf, 1e300):
        model = _FixedOffsetModel(stats, offset_m)
        model.prime(ds.targets)
        with pytest.raises(ValueError, match="^fixed predictions on the rssi layout are not finite$"):
            evaluate_mae(model, ds, stats)


def test_improvement_percent():
    env = _tiny_env()
    ds = generate_dataset(env, PARAMS, NlosModel(0.0, 0.0), 10, layout="rssi", seed=0)
    stats = NormStats.fit(ds)
    a = _FixedOffsetModel(stats, 0.4)
    a.prime(ds.targets)
    mae_rssi = evaluate_mae(a, ds, stats)[0]
    dsh = generate_dataset(env, PARAMS, NlosModel(0.0, 0.0), 10, layout="hybrid", seed=0,
                           aoa=AoaSim("fast", 0.0))
    b = _FixedOffsetModel(NormStats.fit(dsh), 0.1)
    b.prime(dsh.targets)
    mae_h = evaluate_mae(b, dsh, NormStats.fit(dsh))[0]
    assert improvement_percent(mae_rssi, mae_h) == pytest.approx(75.0, abs=1e-9)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="rssi-layout MAE must be positive"):
            improvement_percent(bad, mae_h)


def test_baselines_zero_noise_are_exact():
    env = _tiny_env()
    ds = generate_dataset(env, QUIET, NlosModel(0.0, 0.0), 5, layout="hybrid", seed=0,
                          aoa=AoaSim("fast", 0.0))
    assert trilat_baseline_mae_mm(env, [QUIET] * 3, ds) < 1e-3
    assert hybrid_baseline_mae_mm(env, [QUIET] * 3, ds) < 1e-6


# ---------------------------------------------------------------------------
# config and experiment driver


def _small_config(**overrides):
    return load_config(
        {
            "seeds": [0, 1],
            "n_per_point": 40,
            "train_fraction": 0.8,
            "models": ["mlp", "rbf"],
            "layouts": ["rssi", "hybrid"],
            "aoa_mode": "fast",
            "aoa_noise_deg": 2.0,
            "path_loss": {"gamma": 2.5, "sigma": 3.0, "p_r_d0": -40.0},
            "train": {"learning_rate": 0.02, "batch_size": 16, "epochs": 12},
            "environments": [
                {
                    "name": "roomA",
                    "length_m": 10,
                    "width_m": 8,
                    "test_point_seed": 1,
                    "n_points": 4,
                    "nlos": {"excess_loss_db": 1.0, "aoa_bias_deg_sigma": 1.0},
                },
                {
                    "name": "roomB",
                    "length_m": 6,
                    "width_m": 5,
                    "test_point_seed": 2,
                    "n_points": 4,
                    "nlos": {"excess_loss_db": 3.0, "aoa_bias_deg_sigma": 3.0},
                },
            ],
            **overrides,
        }
    )


def test_load_config_defaults_and_validation():
    cfg = _small_config()
    assert [s.env.name for s in cfg.envs] == ["roomA", "roomB"]
    assert cfg.envs[0].params[0].gamma == 2.5
    assert cfg.envs[1].nlos.excess_loss_db == 3.0
    assert cfg.aoa.mode == "fast"
    with pytest.raises(ValueError):
        load_config({"environments": [], "seeds": [0]})
    with pytest.raises((ValueError, KeyError)):
        load_config({"models": ["transformer"], "environments": [{"name": "x", "length_m": 5, "width_m": 5}]})


def test_config_dict_roundtrip_keeps_music_settings():
    cfg = _small_config(aoa_mode="music", music={"snapshots": 64, "snr_db": 10.0})
    assert (cfg.aoa.music.snapshots, cfg.aoa.music.snr_db) == (64, 10.0)
    assert load_config(config_to_dict(cfg)) == cfg


def test_listed_rooms_are_checked_too():
    """config_to_dict writes rooms with their anchors and test points; load_config
    checks that form's keys and room size as well."""
    for key, value, words in (
        ("n_points", 3, "unknown config key environments[1].n_points"),
        ("length_m", math.inf, "environments[1].length_m must be a finite number"),
        ("length_m", -1.0, "environments[1].length_m must be positive and finite"),
    ):
        doc = config_to_dict(_small_config())
        doc["environments"][1][key] = value
        with pytest.raises(ValueError) as e:
            load_config(doc)
        assert str(e.value).startswith(words)


def test_listed_room_entries_are_read_strictly():
    for path, value, words in (
        (("anchors", 0, "zz"), 1, "unknown config key environments[0].anchors[0].zz"),
        (("test_points", 2, "y"), "1.5", "environments[0].test_points[2].y must be a finite number"),
        (("anchors", 1, "id"), True, "environments[0].anchors[1].id must be an integer"),
    ):
        doc = config_to_dict(_small_config())
        entry = doc["environments"][0]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        with pytest.raises(ValueError) as e:
            load_config(doc)
        assert str(e.value).startswith(words), str(e.value)


def test_run_experiment_structure_and_tables(tmp_path):
    cfg = _small_config()
    report = run_experiment(cfg, out_dir=tmp_path)
    assert set(report["mae_table_mm"]) == {"roomA", "roomB"}
    for row in report["mae_table_mm"].values():
        assert set(row) == {"mlp_rssi", "mlp_hybrid", "rbf_rssi", "rbf_hybrid"}
        for v in row.values():
            assert v > 0
    assert set(report["improvement_percent"]["roomA"]) == {"mlp", "rbf"}
    # 2 envs x 2 seeds x 2 layouts x 2 models
    assert len(report["runs"]) == 16
    for r in report["runs"]:
        assert r["untrained_mae_mm"] > 0
        assert "loss_history" not in r
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "mae_table.csv").exists()
    assert (tmp_path / "improvement_table.csv").exists()
    assert (tmp_path / "loss_history.csv").exists()
    lines = (tmp_path / "mae_table.csv").read_text().strip().splitlines()
    assert lines[0] == "environment,mlp_rssi,mlp_hybrid,rbf_rssi,rbf_hybrid"
    assert len(lines) == 3
    hist = (tmp_path / "loss_history.csv").read_text().strip().splitlines()
    assert hist[0] == "environment,layout,model,seed,step,loss"
    assert len(hist) > 10


def test_report_json_refuses_nan(tmp_path):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_report_files({"total_rejects": float("nan")}, [], tmp_path)


def test_report_with_nan_leaves_an_earlier_report_whole(tmp_path):
    cfg = _small_config()
    row = {f"{m}_{l}": 1.0 for m in cfg.models for l in cfg.layouts}
    report = {"total_rejects": 3, "mae_table_mm": {"roomA": row}, "improvement_percent": {}}
    write_report_files(report, [], tmp_path)
    before = (tmp_path / "report.json").read_bytes()
    bad = {**report, "mae_table_mm": {"roomA": {**row, "mlp_rssi": float("nan")}}, "total_rejects": 4}
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_report_files(bad, [], tmp_path)
    assert (tmp_path / "report.json").read_bytes() == before


def test_run_experiment_reproducible():
    cfg = _small_config()
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert json.dumps(r1["mae_table_mm"], sort_keys=True) == json.dumps(
        r2["mae_table_mm"], sort_keys=True
    )
    assert r1["total_rejects"] == r2["total_rejects"]


def test_run_experiment_parallel_matches_serial(monkeypatch, tmp_path):
    """2 rooms x 2 seeds: 2 or 3 workers split the cells into other stacks
    (at 3, stacks of 1, 1 and 2), and every report file keeps its bytes."""
    cfg = _small_config(models=["mlp", "rbf", "cnn"])
    run_experiment(cfg, out_dir=tmp_path / "serial")
    # Keep the pool path under test on hosts with fewer cores.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for threads in ("2", "3"):
        monkeypatch.setenv("LOCUS_THREADS", threads)
        run_experiment(cfg, out_dir=tmp_path / threads)
        for name in ("report.json", "mae_table.csv", "improvement_table.csv", "loss_history.csv"):
            assert (tmp_path / threads / name).read_bytes() == (tmp_path / "serial" / name).read_bytes(), (threads, name)


def test_rbf_only_sweep_holds_one_cells_training_rows_at_a_time():
    """Each RBF is ridge-solved in its own cell, so six more cells raise the
    traced peak of _run_cells by less than three cells' normalised training
    rows; holding every cell's rows until one fit would add six."""
    room = {"name": "room", "length_m": 9, "width_m": 7, "test_point_seed": 13, "n_points": 10}
    cfg = _small_config(seeds=list(range(8)), n_per_point=100, models=["rbf"], environments=[room])
    train, _ = split(cfg.dataset(cfg.envs[0], 0), cfg.train_fraction)
    # x and y of both layouts: 6 + 2 and 3 + 2 float64 columns.
    rows_per_cell = train.n * 13 * 8
    _run_cells(cfg, [(0, 0)])  # warm-up: first-call allocations are not the sweep's
    peaks = []
    for n_cells in (2, 8):
        tracemalloc.start()
        try:
            _run_cells(cfg, [(0, seed) for seed in range(n_cells)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 3 * rows_per_cell, (peaks, rows_per_cell)


def test_sgd_sweep_holds_a_stacks_training_rows_only_until_it_trains(monkeypatch):
    """Stacks of two: each layout's stack trains as soon as two cells have
    drawn, so six more cells raise the traced peak of _run_cells by less than
    three cells' normalised training rows; holding every cell's rows until
    the jobs run out would add six."""
    monkeypatch.setattr(neural, "STACK_LIMIT", 2)
    room = {"name": "room", "length_m": 9, "width_m": 7, "test_point_seed": 13, "n_points": 10}
    cfg = _small_config(seeds=list(range(8)), n_per_point=100, models=["mlp"], environments=[room],
                        train={"learning_rate": 0.02, "batch_size": 32, "epochs": 1})
    train, _ = split(cfg.dataset(cfg.envs[0], 0), cfg.train_fraction)
    # x and y of both layouts: 6 + 2 and 3 + 2 float64 columns.
    rows_per_cell = train.n * 13 * 8
    _run_cells(cfg, [(0, 0), (0, 1)])  # warm-up: first-call allocations are not the sweep's
    peaks = []
    for n_cells in (2, 8):
        tracemalloc.start()
        try:
            _run_cells(cfg, [(0, seed) for seed in range(n_cells)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 3 * rows_per_cell, (peaks, rows_per_cell)


def test_sweep_drops_each_stacks_full_loss_history_before_the_next_trains(monkeypatch):
    """Stacks of one: when a stack starts, the (steps, S) loss histories of
    every earlier stack are gone."""
    monkeypatch.setattr(neural, "STACK_LIMIT", 1)
    histories = []
    real_train = neural.train

    def tracking_train(model, *args):
        dead = [ref() is None for ref in histories]
        assert all(dead), f"stack {len(histories)} starts with stack {dead.index(False)}'s history alive"
        result = real_train(model, *args)
        histories.append(weakref.ref(result.loss_history))
        return result

    monkeypatch.setattr(neural, "train", tracking_train)
    cfg = _small_config(models=["mlp", "cnn"], seeds=[0], train={"learning_rate": 0.02, "batch_size": 16, "epochs": 2})
    run_experiment(cfg)
    assert len(histories) == 8  # 2 rooms x 2 layouts x 2 families


def test_report_writer_streams_the_loss_log(monkeypatch, tmp_path):
    """The writer's traced peak stays below the size of the loss_history.csv it
    writes: the log is written run by run, never held whole as text."""
    calls = []
    monkeypatch.setattr(pipeline, "write_report_files", lambda *args: calls.append(args))
    room = {"name": "roomA", "length_m": 10, "width_m": 8, "test_point_seed": 1, "n_points": 4}
    cfg = _small_config(models=["mlp", "cnn"], environments=[room], train={"learning_rate": 0.02, "batch_size": 16, "epochs": 200})
    run_experiment(cfg, out_dir=tmp_path)
    [(report, runs, _)] = calls
    tracemalloc.start()
    try:
        write_report_files(report, runs, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "loss_history.csv").stat().st_size
    assert peak < size, (peak, size)


@pytest.mark.parametrize("lr", [2.0, 10.0])
def test_stacked_cells_name_the_first_cell_to_diverge(lr):
    """The cells' rssi MLPs train as one stack; its divergence names the cell
    that diverges earliest when run alone (the first such cell on a tie)."""
    cfg = _small_config(train={"learning_rate": lr, "batch_size": 16, "epochs": 12})
    cells = [(e, s) for e in range(2) for s in cfg.seeds]
    alone = []
    for cell in cells:
        with pytest.raises(ValueError, match="layout rssi: mlp training diverged") as e:
            _run_cells(cfg, [cell])
        alone.append(str(e.value))
    steps = [int(m.rsplit(" ", 1)[1]) for m in alone]
    with pytest.raises(ValueError) as e:
        _run_cells(cfg, cells)
    assert str(e.value) == alone[steps.index(min(steps))]


def test_worker_count_clamps_to_cells_and_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("LOCUS_THREADS", raising=False)
    assert worker_count(30) == 1
    for value, cells, want in (("", 30, 1), ("2", 30, 2), ("1000", 30, 4), ("1000", 3, 3), (" 3 ", 30, 3)):
        monkeypatch.setenv("LOCUS_THREADS", value)
        assert worker_count(cells) == want, (value, cells)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(30) == 1
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("LOCUS_THREADS", bad)
        with pytest.raises(UsageError, match="LOCUS_THREADS"):
            worker_count(30)


def test_paired_layouts_share_channel_draws():
    """The rssi view of a cell is a column projection of the hybrid data."""
    cfg = _small_config()
    (cell,) = _run_cells(cfg, [(0, 0)])
    by = {(r["layout"], r["model"]): r for r in cell["runs"]}
    assert set(by) == {
        ("rssi", "mlp"),
        ("rssi", "rbf"),
        ("hybrid", "mlp"),
        ("hybrid", "rbf"),
    }
