"""Measurement simulation, dataset handling, and the end-to-end experiment.

A dataset holds repeated noisy measurements at each room test point, in one
of two feature layouts:

  * rssi:   [rssi_1, rssi_2, rssi_3]
  * hybrid: [rssi_1, rssi_2, rssi_3, aoa_1, aoa_2, aoa_3]

Each drawn sample is screened against the theoretical (noise-free) feature
vector and redrawn on rejection, mirroring a field protocol where outlier
readings are remeasured. Datasets are split per point, min-max normalized
from the training split only, and fed to the neural regressors; accuracy is
the mean Euclidean error in millimeters on denormalized predictions.

run_experiment() sweeps environments x seeds x layouts x model families and
emits machine-readable tables. Experiment cells are independent; set
LOCUS_THREADS to run them in parallel worker processes.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import neural
from .channel import ArraySpec, NlosModel, PathLossParams, SourceSpec, expected_rssi, path_loss_from_dict, per_anchor_params, simulate_snapshots
from .environment import Environment, Point2D, environment_from_dict, environment_to_dict, jittered_grid, make_environment, true_aoa, true_distance
from .aoa import estimate_aoa
from .hybrid import hybrid_position
from .trilat import rssi_distances, trilaterate

FEATURE_COLUMNS = {"rssi": 3, "hybrid": 6}
LAYOUTS = tuple(FEATURE_COLUMNS)
MODEL_FAMILIES = tuple(neural.FAMILIES)
REDRAW_CAP = 100

# Keep loss_history.csv bounded: at most about this many rows per run.
_HISTORY_ROWS = 400


@dataclass(frozen=True)
class OutlierPolicy:
    """Per-anchor RSSI deviation thresholds (dB) and a shared AoA threshold (deg).

    A sample is rejected when any |measured - theoretical| exceeds its
    threshold. Comparisons are <= threshold, so zero-noise data passes a
    zero threshold.
    """

    rssi_threshold_db: tuple[float, float, float]
    aoa_threshold_deg: float = 10.0

    def __post_init__(self):
        if len(self.rssi_threshold_db) != 3 or any(t < 0 for t in self.rssi_threshold_db):
            raise ValueError("need three nonnegative rssi thresholds")
        if self.aoa_threshold_deg < 0:
            raise ValueError("aoa threshold must be nonnegative")


def default_outlier_policy(params3, sigma_multiple=3.0, aoa_threshold_deg=10.0) -> OutlierPolicy:
    """The standard screen: 3 sigma per anchor on RSSI, 10 degrees on AoA."""
    return OutlierPolicy(
        rssi_threshold_db=tuple(sigma_multiple * p.sigma for p in params3),
        aoa_threshold_deg=aoa_threshold_deg,
    )


def screen_outlier(theoretical, measured, policy: OutlierPolicy) -> np.ndarray:
    """Accepted mask of measured feature rows.

    theoretical is one layout-ordered vector: 3 RSSI values, optionally
    followed by 3 AoA values. measured holds (n, 3|6) rows in the same layout
    and gives an (n,) mask; a single row gives a scalar. Angle differences are
    wrapped: a deviation d counts as min(|d| mod 360, 360 - |d| mod 360), which
    is |d| itself whenever |d| <= 180.
    """
    theoretical = np.asarray(theoretical, dtype=float)
    measured = np.asarray(measured, dtype=float)
    width = theoretical.shape[-1]
    if theoretical.ndim != 1 or width not in (3, 6) or measured.shape[-1] != width:
        raise ValueError("feature vectors must both have 3 or 6 entries")
    dev = np.abs(measured - theoretical)
    bad = np.any(dev[..., :3] > np.asarray(policy.rssi_threshold_db), axis=-1)
    turn = dev[..., 3:] % 360.0
    # Written as "all within" so that a non-finite angle, whose turn is NaN, fails.
    return ~bad & np.all(np.minimum(turn, 360.0 - turn) <= policy.aoa_threshold_deg, axis=-1)


@dataclass(frozen=True)
class AoaSim:
    """How AoA features are produced.

    fast:  true angle + NLoS perturbation + Gaussian estimation noise.
    music: per-sample array snapshots at the NLoS-perturbed angle, estimated
           by the subspace scan. Assumes boundary-placed anchors so that all
           in-room bearings fit a +-90 degree field of view around the
           room-center reference direction. Far slower; meant for reduced
           sample counts.
    """

    mode: str = "fast"
    noise_deg: float = 2.0
    array: ArraySpec = ArraySpec(8, 0.5, 256)
    snr_db: float = 20.0
    grid_step_deg: float = 0.25

    def __post_init__(self):
        if self.mode not in ("fast", "music"):
            raise ValueError(f"aoa mode must be 'fast' or 'music', got {self.mode!r}")
        if self.noise_deg < 0:
            raise ValueError("aoa estimation noise must be nonnegative")


@dataclass(frozen=True)
class Dataset:
    """Feature/target arrays over an environment's test points."""

    env: Environment
    layout: str
    seed: int
    features: np.ndarray  # (n, 3 or 6)
    targets: np.ndarray  # (n, 2)
    point_ids: np.ndarray  # (n,)
    rejects: int = 0

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        want = FEATURE_COLUMNS[self.layout]
        n = self.features.shape[0]
        if self.features.ndim != 2 or self.features.shape[1] != want:
            raise ValueError(f"{self.layout} layout needs {want} feature columns")
        if self.targets.shape != (n, 2) or self.point_ids.shape != (n,):
            raise ValueError("features, targets and point ids must align")
        counts = np.bincount(self.point_ids)
        counts = counts[counts > 0]
        if counts.size and not np.all(counts == counts[0]):
            raise ValueError("every test point must contribute the same sample count")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def project_rssi(self) -> "Dataset":
        """Drop the AoA columns, keeping the exact same accepted draws."""
        if self.layout != "hybrid":
            raise ValueError("only a hybrid dataset can be projected to rssi features")
        return replace(self, layout="rssi", features=self.features[:, :3].copy())

    def subset(self, idx: np.ndarray) -> "Dataset":
        return replace(
            self, features=self.features[idx], targets=self.targets[idx], point_ids=self.point_ids[idx]
        )


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "format": "locus-dataset",
        "version": 1,
        "environment": environment_to_dict(ds.env),
        "layout": ds.layout,
        "seed": ds.seed,
        "rejects": ds.rejects,
        "samples": [
            {
                "point_id": int(pid),
                "features": [float(v) for v in feat],
                "target": [float(t[0]), float(t[1])],
            }
            for pid, feat, t in zip(ds.point_ids, ds.features, ds.targets)
        ],
    }


def dataset_from_dict(d: dict) -> Dataset:
    """Inverse of dataset_to_dict. A malformed document raises ValueError
    naming the missing key, or the first sample with a bad row."""
    if not isinstance(d, dict) or d.get("format") != "locus-dataset" or d.get("version") != 1:
        raise ValueError("not a recognized dataset document")
    missing = [key for key in ("environment", "layout", "seed", "samples") if key not in d]
    if missing:
        raise ValueError(f"dataset file has no {missing[0]!r}")
    if d["layout"] not in FEATURE_COLUMNS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {d['layout']!r}")
    samples = d["samples"]
    features = np.empty((len(samples), FEATURE_COLUMNS[d["layout"]]))
    targets = np.empty((len(samples), 2))
    point_ids = np.empty(len(samples), dtype=int)
    for i, s in enumerate(samples):
        pid = s.get("point_id") if isinstance(s, dict) else None
        if type(pid) is not int or pid < 0:
            raise ValueError(f"dataset sample {i}: 'point_id' must be a nonnegative integer")
        point_ids[i] = pid
        for key, out in (("features", features), ("target", targets)):
            try:
                row = np.asarray(s[key], dtype=float)
            except (KeyError, TypeError, ValueError):
                row = None
            if row is None or row.shape != out.shape[1:] or not np.isfinite(row).all():
                raise ValueError(f"dataset sample {i}: {key!r} must be a list of {out.shape[1]} finite numbers")
            out[i] = row
    return Dataset(
        env=environment_from_dict(d["environment"]),
        layout=d["layout"],
        seed=int(d["seed"]),
        features=features,
        targets=targets,
        point_ids=point_ids,
        rejects=int(d.get("rejects", 0)),
    )


def generate_dataset(
    env: Environment,
    params,
    nlos: NlosModel,
    n_per_point: int,
    layout: str = "hybrid",
    outlier: OutlierPolicy | None = None,
    seed: int = 0,
    aoa: AoaSim | None = None,
) -> Dataset:
    """Draw n_per_point accepted samples at every test point.

    Rejected draws are redrawn (at most REDRAW_CAP rounds per point); the
    total count of rejected draws is reported on the dataset. Bit-identical
    output for a fixed seed.
    """
    if layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
    if n_per_point < 1:
        raise ValueError("n_per_point must be positive")
    if not env.test_points:
        raise ValueError("environment has no test points")
    params3 = per_anchor_params(params)
    aoa = aoa if aoa is not None else AoaSim()
    policy = outlier if outlier is not None else default_outlier_policy(params3)
    rng = np.random.default_rng(seed)
    sigmas = np.array([p.sigma for p in params3])
    measure = _aoa_measurer(rng, env, aoa)

    feats_all = []
    rejects = 0
    for p in env.test_points:
        theo = [expected_rssi(params3[i - 1], true_distance(env, i, p)) for i in (1, 2, 3)]
        if layout == "hybrid":
            theo += [true_aoa(env, i, p) for i in (1, 2, 3)]
        feats, rej = _draw_point(rng, n_per_point, np.array(theo), sigmas, nlos, measure, policy)
        rejects += rej
        feats_all.append(feats)
    return Dataset(
        env=env,
        layout=layout,
        seed=int(seed),
        features=np.vstack(feats_all),
        targets=np.repeat([[p.x, p.y] for p in env.test_points], n_per_point, axis=0),
        point_ids=np.repeat(np.arange(len(env.test_points)), n_per_point),
        rejects=rejects,
    )


def _aoa_measurer(rng, env: Environment, aoa: AoaSim):
    """The mode's map from NLoS-perturbed bearings, shape (count, 3), to measured angles."""
    if aoa.mode == "fast":
        return lambda biased: biased + rng.standard_normal(biased.shape) * aoa.noise_deg
    center = Point2D(env.length / 2.0, env.width / 2.0)
    refs = np.array([true_aoa(env, i, center) for i in (1, 2, 3)])

    def music(biased):
        # Bearing relative to the room-center direction, wrapped to [-180, 180).
        phis = np.clip((biased - refs + 180.0) % 360.0 - 180.0, -89.9, 89.9)
        est = np.empty_like(phis)
        for s, i in np.ndindex(phis.shape):
            snap = simulate_snapshots(
                aoa.array, [SourceSpec(float(phis[s, i]), 0.0)], noise_power_db=-aoa.snr_db, rng=rng
            )
            est[s, i] = estimate_aoa(snap, 1, grid_step_deg=aoa.grid_step_deg)[0]
        return est + refs

    return music


def _draw_point(rng, n, theo, sigmas, nlos, measure, policy):
    """n screened feature rows at one point and the count of rejected draws.

    theo is the point's noise-free feature vector in layout order. Rows are
    drawn as a block and screened; the rejected rows are redrawn, for at most
    REDRAW_CAP rounds.
    """

    def draw(count):
        rssi = theo[:3] - nlos.excess_loss_db - rng.standard_normal((count, 3)) * sigmas
        if theo.size == 3:
            return rssi
        biased = theo[3:] + rng.standard_normal((count, 3)) * nlos.aoa_bias_deg_sigma
        return np.column_stack([rssi, measure(biased)])

    feats = draw(n)
    bad = ~screen_outlier(theo, feats, policy)
    rejects = int(bad.sum())
    rounds = 0
    while bad.any():
        if rounds == REDRAW_CAP:
            raise RuntimeError(
                f"outlier redraw cap exceeded ({REDRAW_CAP} rounds); policy too strict for the noise level"
            )
        rounds += 1
        idx = np.flatnonzero(bad)
        feats[idx] = draw(idx.size)
        bad[idx] = ~screen_outlier(theo, feats[idx], policy)
        rejects += int(bad.sum())
    return feats, rejects


def split(ds: Dataset, train_fraction: float, seed: int = 0):
    """Per-point stratified split into (train, test) datasets.

    Each point's samples are shuffled and cut at round(fraction * count);
    both sides must stay non-empty for every point.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must lie in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for pid in np.unique(ds.point_ids):
        idx = np.where(ds.point_ids == pid)[0]
        n_train = int(round(train_fraction * idx.size))
        if n_train == 0 or n_train == idx.size:
            raise ValueError(
                f"fraction {train_fraction} leaves an empty split for point {pid} ({idx.size} samples)"
            )
        perm = rng.permutation(idx.size)
        train_idx.append(np.sort(idx[perm[:n_train]]))
        test_idx.append(np.sort(idx[perm[n_train:]]))
    return ds.subset(np.concatenate(train_idx)), ds.subset(np.concatenate(test_idx))


@dataclass(frozen=True)
class NormStats:
    """Min-max ranges learned from a training split only."""

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: np.ndarray
    target_max: np.ndarray

    @classmethod
    def fit(cls, ds: Dataset) -> "NormStats":
        return cls(
            feature_min=ds.features.min(axis=0),
            feature_max=ds.features.max(axis=0),
            target_min=ds.targets.min(axis=0),
            target_max=ds.targets.max(axis=0),
        )

    @staticmethod
    def _scale(v, lo, hi):
        span = hi - lo
        out = np.zeros_like(v, dtype=float)
        nz = span != 0
        out[..., nz] = (v[..., nz] - lo[nz]) / span[nz]
        return out

    def normalize_features(self, x: np.ndarray) -> np.ndarray:
        """Map into [0, 1] on the training range; out-of-range values pass
        through unclamped (they land below 0 or above 1)."""
        return self._scale(np.asarray(x, dtype=float), self.feature_min, self.feature_max)

    def normalize_targets(self, y: np.ndarray) -> np.ndarray:
        return self._scale(np.asarray(y, dtype=float), self.target_min, self.target_max)

    def denormalize_targets(self, y_norm: np.ndarray) -> np.ndarray:
        y_norm = np.asarray(y_norm, dtype=float)
        return y_norm * (self.target_max - self.target_min) + self.target_min

    def to_dict(self) -> dict:
        return {
            "feature_min": [float(v) for v in self.feature_min],
            "feature_max": [float(v) for v in self.feature_max],
            "target_min": [float(v) for v in self.target_min],
            "target_max": [float(v) for v in self.target_max],
        }

    @classmethod
    def from_dict(cls, d: dict, input_dim: int) -> "NormStats":
        """Inverse of to_dict for input_dim features; a missing, mis-sized or
        non-finite range raises ValueError naming it."""
        ranges = {}
        for key in ("feature_min", "feature_max", "target_min", "target_max"):
            ranges[key] = np.array(d.get(key), dtype=float)
            size = input_dim if key.startswith("feature") else 2
            if ranges[key].shape != (size,) or not np.isfinite(ranges[key]).all():
                raise ValueError(f"norm {key!r} must be a list of {size} finite numbers")
        return cls(**ranges)


@dataclass(frozen=True)
class EvalReport:
    model_family: str
    environment: str
    layout: str
    per_point_mae_mm: dict[int, float]
    overall_mae_mm: float
    n_test: int

    def to_dict(self) -> dict:
        return {
            "model_family": self.model_family,
            "environment": self.environment,
            "layout": self.layout,
            "per_point_mae_mm": {str(k): v for k, v in self.per_point_mae_mm.items()},
            "overall_mae_mm": self.overall_mae_mm,
            "n_test": self.n_test,
        }


def evaluate_mae(model, test_ds: Dataset, stats: NormStats) -> EvalReport:
    """Mean Euclidean error (mm) of denormalized predictions on a test split.

    model: anything exposing forward_batch(normalized features) -> (n, 2)
    normalized coordinates.
    """
    xn = stats.normalize_features(test_ds.features)
    pred = stats.denormalize_targets(model.forward_batch(xn))
    err_mm = 1000.0 * np.linalg.norm(pred - test_ds.targets, axis=1)
    per_point = {int(pid): float(err_mm[test_ds.point_ids == pid].mean()) for pid in np.unique(test_ds.point_ids)}
    return EvalReport(
        model_family=getattr(model, "family", "custom"),
        environment=test_ds.env.name,
        layout=test_ds.layout,
        per_point_mae_mm=per_point,
        overall_mae_mm=float(err_mm.mean()),
        n_test=test_ds.n,
    )


def improvement_percent(rssi_mae_mm: float, hybrid_mae_mm: float) -> float:
    """Relative MAE gain of the hybrid layout over the rssi layout, percent."""
    if not rssi_mae_mm > 0:
        raise ValueError(f"rssi-layout MAE must be positive, got {rssi_mae_mm}")
    return 100.0 * (rssi_mae_mm - hybrid_mae_mm) / rssi_mae_mm


def _baseline_mae_mm(test_ds: Dataset, locate) -> float:
    """Mean error (mm) of locate(feature row) -> PositionEstimate over a test split."""
    ests = [locate(row).p for row in test_ds.features]
    return 1000.0 * float(np.mean([math.hypot(e.x - tx, e.y - ty) for e, (tx, ty) in zip(ests, test_ds.targets)]))


def trilat_baseline_mae_mm(env: Environment, params3, test_ds: Dataset) -> float:
    """Closed-form trilateration on the raw RSSI features of a test split."""
    return _baseline_mae_mm(test_ds, lambda row: trilaterate(env, params3, row[:3]))


def hybrid_baseline_mae_mm(env: Environment, params3, test_ds: Dataset) -> float:
    """Closed-form distance+angle fusion on raw hybrid features."""
    if test_ds.layout != "hybrid":
        raise ValueError("hybrid baseline needs a hybrid-layout dataset")
    return _baseline_mae_mm(
        test_ds, lambda row: hybrid_position(env, rssi_distances(params3, row[:3]), row[3:6])
    )


# ---------------------------------------------------------------------------
# Experiment configuration and driver


@dataclass(frozen=True)
class EnvSpec:
    env: Environment
    nlos: NlosModel
    params: tuple[PathLossParams, PathLossParams, PathLossParams]


@dataclass(frozen=True)
class ExperimentConfig:
    envs: tuple[EnvSpec, ...]
    seeds: tuple[int, ...] = tuple(range(10))
    n_per_point: int = 500
    train_fraction: float = 0.8
    models: tuple[str, ...] = MODEL_FAMILIES
    layouts: tuple[str, ...] = LAYOUTS
    aoa: AoaSim = AoaSim()
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 200
    rbf_centers: int = 40
    outlier_sigma_multiple: float = 3.0
    outlier_aoa_deg: float = 10.0

    def __post_init__(self):
        if not self.envs:
            raise ValueError("at least one environment required")
        if not self.seeds:
            raise ValueError("at least one seed required")
        for m in self.models:
            if m not in MODEL_FAMILIES:
                raise ValueError(f"unknown model family {m!r}")
        for l in self.layouts:
            if l not in LAYOUTS:
                raise ValueError(f"unknown layout {l!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")

    def outlier_policy(self, spec: EnvSpec) -> OutlierPolicy:
        """The screen of one room: the configured sigma multiple per anchor."""
        return default_outlier_policy(spec.params, self.outlier_sigma_multiple, self.outlier_aoa_deg)


def load_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or an already-parsed dict."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as f:
            cfg = json.load(f)
    else:
        cfg = dict(source)
    shared_pl = cfg.get("path_loss", {"gamma": 2.5, "sigma": 3.0, "p_r_d0": -40.0, "d0": 1.0})
    envs = []
    for e in cfg["environments"]:
        if "anchors" in e:
            env = environment_from_dict(e)
        else:
            pts = jittered_grid(
                float(e["length_m"]),
                float(e["width_m"]),
                n=int(e.get("n_points", 10)),
                seed=int(e.get("test_point_seed", 0)),
            )
            env = make_environment(e["name"], float(e["length_m"]), float(e["width_m"]), pts)
        nl = e.get("nlos", {})
        nlos = NlosModel(
            excess_loss_db=float(nl.get("excess_loss_db", 0.0)),
            aoa_bias_deg_sigma=float(nl.get("aoa_bias_deg_sigma", 0.0)),
        )
        envs.append(EnvSpec(env=env, nlos=nlos, params=path_loss_from_dict(e.get("path_loss", shared_pl))))
    train = cfg.get("train", {})
    music = cfg.get("music", {})
    aoa = AoaSim(
        mode=cfg.get("aoa_mode", "fast"),
        noise_deg=float(cfg.get("aoa_noise_deg", 2.0)),
        array=ArraySpec(
            m=int(music.get("m", 8)),
            spacing_wavelengths=float(music.get("spacing_wavelengths", 0.5)),
            snapshots=int(music.get("snapshots", 256)),
        ),
        snr_db=float(music.get("snr_db", 20.0)),
        grid_step_deg=float(music.get("grid_step_deg", 0.25)),
    )
    outlier = cfg.get("outlier", {})
    return ExperimentConfig(
        envs=tuple(envs),
        seeds=tuple(int(s) for s in cfg.get("seeds", range(10))),
        n_per_point=int(cfg.get("n_per_point", 500)),
        train_fraction=float(cfg.get("train_fraction", 0.8)),
        models=tuple(cfg.get("models", MODEL_FAMILIES)),
        layouts=tuple(cfg.get("layouts", LAYOUTS)),
        aoa=aoa,
        learning_rate=float(train.get("learning_rate", 0.01)),
        batch_size=int(train.get("batch_size", 32)),
        epochs=int(train.get("epochs", 200)),
        rbf_centers=int(cfg.get("rbf_centers", 40)),
        outlier_sigma_multiple=float(outlier.get("rssi_sigma_multiple", 3.0)),
        outlier_aoa_deg=float(outlier.get("aoa_threshold_deg", 10.0)),
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "environments": [
            {
                **environment_to_dict(spec.env),
                "nlos": {
                    "excess_loss_db": spec.nlos.excess_loss_db,
                    "aoa_bias_deg_sigma": spec.nlos.aoa_bias_deg_sigma,
                },
                "path_loss": [asdict(p) for p in spec.params],
            }
            for spec in config.envs
        ],
        "seeds": list(config.seeds),
        "n_per_point": config.n_per_point,
        "train_fraction": config.train_fraction,
        "models": list(config.models),
        "layouts": list(config.layouts),
        "aoa_mode": config.aoa.mode,
        "aoa_noise_deg": config.aoa.noise_deg,
        "music": {
            "m": config.aoa.array.m,
            "spacing_wavelengths": config.aoa.array.spacing_wavelengths,
            "snapshots": config.aoa.array.snapshots,
            "snr_db": config.aoa.snr_db,
            "grid_step_deg": config.aoa.grid_step_deg,
        },
        "train": {
            "learning_rate": config.learning_rate,
            "batch_size": config.batch_size,
            "epochs": config.epochs,
        },
        "rbf_centers": config.rbf_centers,
        "outlier": {
            "rssi_sigma_multiple": config.outlier_sigma_multiple,
            "aoa_threshold_deg": config.outlier_aoa_deg,
        },
    }


def cell_seeds(seed: int, env_idx: int, n_models: int) -> tuple[int, int, list[tuple[int, int]]]:
    """Seeds of one (environment, seed) cell: dataset, split, and (init, train)
    per model family, all drawn from SeedSequence([seed, env_idx]). A cell's
    data thus depends on its room's position in the config."""
    ss = np.random.SeedSequence([int(seed), int(env_idx)])
    state = [int(v) for v in ss.generate_state(2 + 2 * n_models, dtype=np.uint64)]
    return state[0], state[1], list(zip(state[2::2], state[3::2]))


def _run_cell(config: ExperimentConfig, env_idx: int, seed: int) -> dict:
    """One (environment, seed) cell: shared dataset, all layouts and models."""
    spec = config.envs[env_idx]
    dataset_seed, split_seed, model_seeds = cell_seeds(seed, env_idx, len(config.models))
    ds_hybrid = generate_dataset(
        spec.env,
        list(spec.params),
        spec.nlos,
        config.n_per_point,
        layout="hybrid",
        outlier=config.outlier_policy(spec),
        seed=dataset_seed,
        aoa=config.aoa,
    )
    tr_h, te_h = split(ds_hybrid, config.train_fraction, seed=split_seed)
    baselines = {
        "trilat": trilat_baseline_mae_mm(spec.env, list(spec.params), te_h),
        "hybrid_closed_form": hybrid_baseline_mae_mm(spec.env, list(spec.params), te_h),
    }

    runs = []
    for layout in config.layouts:
        # The rssi layout sees the same draws and split, minus the AoA columns.
        tr, te = (tr_h, te_h) if layout == "hybrid" else (tr_h.project_rssi(), te_h.project_rssi())
        stats = NormStats.fit(tr)
        xn = stats.normalize_features(tr.features)
        yn = stats.normalize_targets(tr.targets)
        for family, (init_seed, train_seed) in zip(config.models, model_seeds):
            model = neural.build(family, xn, init_seed, config.rbf_centers)
            untrained = evaluate_mae(model, te, stats)
            try:
                history = neural.fit(
                    model, xn, yn, config.epochs, config.batch_size, config.learning_rate, train_seed
                )
            except ValueError as e:
                raise ValueError(f"{spec.env.name} seed {seed} layout {layout}: {e}") from e
            trained = evaluate_mae(model, te, stats)
            stride = max(1, history.size // _HISTORY_ROWS)
            runs.append(
                {
                    "environment": spec.env.name,
                    "seed": seed,
                    "layout": layout,
                    "model": family,
                    "mae_mm": trained.overall_mae_mm,
                    "untrained_mae_mm": untrained.overall_mae_mm,
                    "per_point_mae_mm": {str(k): v for k, v in trained.per_point_mae_mm.items()},
                    "final_loss": float(history[-1]),
                    "steps": int(history.size),
                    "loss_history": [
                        [int(s), float(history[s])] for s in range(0, history.size, stride)
                    ],
                }
            )
    return {
        "environment": spec.env.name,
        "seed": seed,
        "rejects": ds_hybrid.rejects,
        "baselines": baselines,
        "runs": runs,
    }


def _cell_worker(args):
    return _run_cell(*args)


class UsageError(ValueError):
    """Bad input from the user's environment rather than a runtime failure."""


def worker_count(n_cells: int) -> int:
    """Worker processes for n_cells: LOCUS_THREADS (unset or empty: 1), clamped to
    min(n_cells, CPU count) because a process pool starts all its workers at once."""
    raw = os.environ.get("LOCUS_THREADS") or "1"
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"LOCUS_THREADS must be a positive integer, got {raw!r}")
    return min(threads, n_cells, os.cpu_count() or 1)


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Full sweep; returns the report dict and optionally writes the table files.

    Cells (environment x seed) are independent. LOCUS_THREADS > 1 runs them
    in worker processes (see worker_count); results are identical either way.
    """
    cells = [(config, ei, s) for ei in range(len(config.envs)) for s in config.seeds]
    workers = worker_count(len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cell_results = list(pool.map(_cell_worker, cells))
    else:
        cell_results = [_run_cell(*c) for c in cells]

    runs = [r for cell in cell_results for r in cell["runs"]]
    baselines = [
        {"environment": c["environment"], "seed": c["seed"], **c["baselines"]}
        for c in cell_results
    ]

    env_names = [spec.env.name for spec in config.envs]
    mae_table = {}
    for name in env_names:
        row = {}
        for family in config.models:
            for layout in config.layouts:
                vals = [
                    r["mae_mm"]
                    for r in runs
                    if r["environment"] == name and r["model"] == family and r["layout"] == layout
                ]
                row[f"{family}_{layout}"] = float(np.mean(vals))
        mae_table[name] = row
    improvement = {}
    if "rssi" in config.layouts and "hybrid" in config.layouts:
        for name, row in mae_table.items():
            improvement[name] = {
                m: improvement_percent(row[f"{m}_rssi"], row[f"{m}_hybrid"]) for m in config.models
            }
    baseline_table = {
        name: {
            "trilat": float(np.mean([b["trilat"] for b in baselines if b["environment"] == name])),
            "hybrid_closed_form": float(
                np.mean([b["hybrid_closed_form"] for b in baselines if b["environment"] == name])
            ),
        }
        for name in env_names
    }

    report = {
        "config": config_to_dict(config),
        "runs": [{k: v for k, v in r.items() if k != "loss_history"} for r in runs],
        "baselines": baselines,
        "mae_table_mm": mae_table,
        "improvement_percent": improvement,
        "baseline_mae_mm": baseline_table,
        "total_rejects": int(sum(c["rejects"] for c in cell_results)),
    }
    if out_dir is not None:
        write_report_files(report, runs, config, out_dir)
    return report


def _round6(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def write_report_files(report: dict, runs_with_history: list, config: ExperimentConfig, out_dir):
    """report.json plus mae/improvement tables and the training loss log."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(_round6(report), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")

    cols = [f"{family}_{layout}" for family in config.models for layout in config.layouts]
    lines = ["environment," + ",".join(cols)]
    for name, row in report["mae_table_mm"].items():
        lines.append(name + "," + ",".join(f"{row[c]:.6f}" for c in cols))
    with open(os.path.join(out_dir, "mae_table.csv"), "w") as f:
        f.write("\n".join(lines) + "\n")

    if report["improvement_percent"]:
        lines = ["environment," + ",".join(config.models)]
        for name, row in report["improvement_percent"].items():
            lines.append(name + "," + ",".join(f"{row[m]:.6f}" for m in config.models))
        with open(os.path.join(out_dir, "improvement_table.csv"), "w") as f:
            f.write("\n".join(lines) + "\n")

    lines = ["environment,layout,model,seed,step,loss"]
    for r in runs_with_history:
        for step, loss in r["loss_history"]:
            lines.append(
                f"{r['environment']},{r['layout']},{r['model']},{r['seed']},{step},{loss:.6f}"
            )
    with open(os.path.join(out_dir, "loss_history.csv"), "w") as f:
        f.write("\n".join(lines) + "\n")
