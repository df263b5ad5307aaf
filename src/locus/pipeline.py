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
from dataclasses import dataclass, fields, replace

import numpy as np

from . import neural
from .channel import ArraySpec, NlosModel, PathLossParams, check_bound, expected_rssi, json_form, noise_power, per_anchor_params, read_section, simulate_snapshots
from .environment import Environment, GridRoom, Point2D, true_aoa, true_distance
from .aoa import estimate_aoa, grid_size
from .neural import TrainSpec
from .trilat import hybrid_position, rssi_distances, trilaterate

FEATURE_COLUMNS = {"rssi": 3, "hybrid": 6}
LAYOUTS = tuple(FEATURE_COLUMNS)
_LAYOUT_OF_WIDTH = {width: layout for layout, width in FEATURE_COLUMNS.items()}
MODEL_FAMILIES = tuple(neural.FAMILIES)
REDRAW_CAP = 100

# loss_history.csv keeps every (steps // _HISTORY_ROWS)-th loss of a run, every loss
# below 800 steps: fewer than 2 * _HISTORY_ROWS rows a run, and at least 400 from 400 up.
_HISTORY_ROWS = 400


@dataclass(frozen=True)
class OutlierPolicy:
    """The redraw screen of generate_dataset (the config's `outlier` section).

    A sample is redrawn when any RSSI lies more than rssi_sigma_multiple times
    its anchor's shadowing sigma, or any angle more than aoa_threshold_deg,
    from the theoretical value.
    """

    rssi_sigma_multiple: float = 3.0
    aoa_threshold_deg: float = 10.0

    def __post_init__(self):
        check_bound(self, 0, "rssi_sigma_multiple", "aoa_threshold_deg")


def screen_outlier(theoretical, measured, rssi_threshold_db, aoa_threshold_deg) -> np.ndarray:
    """Accepted mask of measured feature rows.

    theoretical is one hybrid vector: 3 RSSI values, then 3 AoA values.
    measured holds (n, 6) rows in the same layout and gives an (n,) mask; a
    single row gives a scalar. A row is accepted when every
    |measured - theoretical| is <= its threshold: rssi_threshold_db holds one
    per anchor (dB), aoa_threshold_deg is shared by the angles, and zero-noise
    data passes zero thresholds. Angle differences are wrapped: a
    deviation d counts as min(|d| mod 360, 360 - |d| mod 360), which is |d|
    itself whenever |d| <= 180.
    """
    theoretical = np.asarray(theoretical, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if theoretical.shape != (6,) or measured.shape[-1] != 6:
        raise ValueError("feature vectors must both have 6 entries: 3 RSSI values, then 3 angles")
    dev = np.abs(measured - theoretical)
    bad = np.any(dev[..., :3] > np.asarray(rssi_threshold_db), axis=-1)
    turn = dev[..., 3:] % 360.0
    # Written as "all within" so that a non-finite angle, whose turn is NaN, fails.
    return ~bad & np.all(np.minimum(turn, 360.0 - turn) <= aoa_threshold_deg, axis=-1)


@dataclass(frozen=True)
class MusicSpec(ArraySpec):
    """Music mode's array, snapshot SNR (dB) and scan step (the config's `music` section)."""

    snr_db: float = 20.0
    grid_step_deg: float = 0.25

    def __post_init__(self):
        super().__post_init__()
        grid_size(self.grid_step_deg, "grid_step_deg")
        if not noise_power(-self.snr_db) < math.inf:
            raise ValueError(f"snr_db must give a noise power (-snr_db dB) within the float range, got {self.snr_db}")


@dataclass(frozen=True)
class AoaSim:
    """How AoA features are produced (the config's `aoa_mode`, `aoa_noise_deg` and `music`).

    fast:  true angle + NLoS perturbation + Gaussian estimation noise.
    music: per-sample array snapshots at the NLoS-perturbed angle, estimated
           by the subspace scan. Assumes boundary-placed anchors so that all
           in-room bearings fit a +-90 degree field of view around the
           room-center reference direction. Far slower; meant for reduced
           sample counts.
    """

    mode: str = "fast"
    noise_deg: float = 2.0
    music: MusicSpec = MusicSpec()

    def __post_init__(self):
        if self.mode not in ("fast", "music"):
            raise ValueError(f"mode must be 'fast' or 'music', got {self.mode!r}")
        check_bound(self, 0, "noise_deg")


@dataclass(frozen=True)
class Dataset:
    """Feature rows drawn at an environment's test points; each row's target is its point's position."""

    env: Environment
    seed: int
    features: np.ndarray  # (n, 3 or 6)
    point_ids: np.ndarray  # (n,)
    rejects: int = 0

    def __post_init__(self):
        check_bound(self, 0, "seed", "rejects")
        width_ok = self.features.ndim == 2 and self.features.shape[1] in _LAYOUT_OF_WIDTH
        if not width_ok or self.point_ids.shape != self.features.shape[:1]:
            raise ValueError(f"features must hold one row of {list(_LAYOUT_OF_WIDTH)} columns per point id")
        bad = np.flatnonzero(~np.isfinite(self.features).all(axis=1))
        if bad.size:
            raise ValueError(f"dataset sample {bad[0]}: 'features' must be a list of {self.features.shape[1]} finite numbers")
        points = len(self.env.test_points)
        foreign = np.flatnonzero((self.point_ids < 0) | (self.point_ids >= points))
        if foreign.size:
            i = foreign[0]
            raise ValueError(f"dataset sample {i}: 'point_id' {self.point_ids[i]} is not one of the environment's {points} test points")
        counts = np.bincount(self.point_ids)
        counts = counts[counts > 0]
        if counts.size and not np.all(counts == counts[0]):
            raise ValueError("every test point must contribute the same sample count")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def layout(self) -> str:
        return _LAYOUT_OF_WIDTH[self.features.shape[1]]

    @property
    def targets(self) -> np.ndarray:
        """(n, 2): each row's point position, in meters."""
        return np.array([[p.x, p.y] for p in self.env.test_points])[self.point_ids]

    def project_rssi(self) -> "Dataset":
        """Drop the AoA columns, keeping the exact same accepted draws."""
        if self.layout != "hybrid":
            raise ValueError("only a hybrid dataset can be projected to rssi features")
        return replace(self, features=self.features[:, :3].copy())

    def subset(self, idx: np.ndarray) -> "Dataset":
        return replace(self, features=self.features[idx], point_ids=self.point_ids[idx])


def dataset_to_dict(ds: Dataset) -> dict:
    samples = [{"point_id": int(pid), "features": feat.tolist(), "target": t.tolist()}
               for pid, feat, t in zip(ds.point_ids, ds.features, ds.targets)]
    return {"format": "locus-dataset", "version": 1, "environment": json_form(ds.env),
            "layout": ds.layout, "seed": ds.seed, "rejects": ds.rejects, "samples": samples}


def dataset_from_dict(d: dict) -> Dataset:
    """Inverse of dataset_to_dict. A malformed document raises ValueError
    naming the missing key, or the first sample with a bad row, a point id
    outside the environment's test points or a target off its point."""
    if not isinstance(d, dict) or d.get("format") != "locus-dataset" or d.get("version") != 1:
        raise ValueError("not a recognized dataset document")
    missing = [key for key in ("environment", "layout", "seed", "samples") if key not in d]
    if missing:
        raise ValueError(f"dataset file has no {missing[0]!r}")
    if d["layout"] not in FEATURE_COLUMNS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {d['layout']!r}")
    samples = d["samples"]
    if not isinstance(samples, list) or not samples:
        raise ValueError(f"samples must be a nonempty list, got {samples!r}")
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
    env = read_section(Environment, d["environment"], "environment.")
    counts = {key: d[key] for key in ("seed", "rejects") if key in d}
    ds = read_section(Dataset, counts, "", env=env, features=features, point_ids=point_ids)
    for i, (target, point) in enumerate(zip(targets.tolist(), ds.targets.tolist())):
        if target != point:
            raise ValueError(f"dataset sample {i}: 'target' {target} is not the position {point} of test point {point_ids[i]}")
    return ds


def generate_dataset(
    env: Environment,
    params,
    nlos: NlosModel,
    n_per_point: int,
    layout: str = "hybrid",
    outlier: OutlierPolicy = OutlierPolicy(),
    seed: int = 0,
    aoa: AoaSim = AoaSim(),
) -> Dataset:
    """Draw n_per_point accepted samples at every test point.

    Rejected draws are redrawn (at most REDRAW_CAP rounds per point); the
    total count of rejected draws is reported on the dataset. Bit-identical
    output for a fixed seed. Rows are always drawn and screened in the hybrid
    layout; an rssi dataset is the hybrid one without its AoA columns.
    """
    if layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
    if n_per_point < 1:
        raise ValueError("n_per_point must be positive")
    if not env.test_points:
        raise ValueError("environment has no test points")
    params3 = per_anchor_params(params)
    rng = np.random.default_rng(seed)
    sigmas = np.array([p.sigma for p in params3])
    limits = (outlier.rssi_sigma_multiple * sigmas, outlier.aoa_threshold_deg)
    measure = _aoa_measurer(rng, env, aoa)

    feats_all = []
    rejects = 0
    for p in env.test_points:
        theo = [expected_rssi(params3[i - 1], true_distance(env, i, p)) for i in (1, 2, 3)]
        theo += [true_aoa(env, i, p) for i in (1, 2, 3)]
        feats, rej = _draw_point(rng, n_per_point, np.array(theo), sigmas, nlos, measure, limits)
        rejects += rej
        feats_all.append(feats)
    point_ids = np.repeat(np.arange(len(env.test_points)), n_per_point)
    ds = Dataset(env, int(seed), np.vstack(feats_all), point_ids, rejects)
    return ds if layout == "hybrid" else ds.project_rssi()


def _aoa_measurer(rng, env: Environment, aoa: AoaSim):
    """The mode's map from NLoS-perturbed bearings, shape (count, 3), to measured angles."""
    if aoa.mode == "fast":
        return lambda biased: biased + rng.standard_normal(biased.shape) * aoa.noise_deg
    center = Point2D(env.length_m / 2.0, env.width_m / 2.0)
    refs = np.array([true_aoa(env, i, center) for i in (1, 2, 3)])
    spec = aoa.music

    def music(biased):
        # Bearing relative to the room-center direction, wrapped to [-180, 180).
        phis = np.clip((biased - refs + 180.0) % 360.0 - 180.0, -89.9, 89.9)
        est = np.empty_like(phis)
        for s, i in np.ndindex(phis.shape):
            snap = simulate_snapshots(spec, [float(phis[s, i])], noise_power_db=-spec.snr_db, rng=rng)
            est[s, i] = estimate_aoa(snap, 1, grid_step_deg=spec.grid_step_deg)[0]
        return est + refs

    return music


def _draw_point(rng, n, theo, sigmas, nlos, measure, limits):
    """n screened feature rows at one point and the count of rejected draws.

    theo is the point's noise-free hybrid feature vector, and limits
    the two threshold arguments of screen_outlier. Rows are
    drawn as a block and screened; the rejected rows are redrawn, for at most
    REDRAW_CAP rounds.
    """

    def draw(count):
        rssi = theo[:3] - nlos.excess_loss_db - rng.standard_normal((count, 3)) * sigmas
        biased = theo[3:] + rng.standard_normal((count, 3)) * nlos.aoa_bias_deg_sigma
        return np.column_stack([rssi, measure(biased)])

    feats = draw(n)
    bad = ~screen_outlier(theo, feats, *limits)
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
        bad[idx] = ~screen_outlier(theo, feats[idx], *limits)
        rejects += int(bad.sum())
    return feats, rejects


def split(ds: Dataset, train_fraction: float, seed: int = 0):
    """Per-point stratified split into (train, test) datasets.

    Each point's samples are shuffled and cut at round(fraction * count);
    both sides must stay non-empty for every point. SplitSpec checks the arguments.
    """
    SplitSpec(train_fraction, seed)
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
class SplitSpec:
    """The split a model file records under its `split` key: split()'s arguments."""

    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        check_bound(self, 0, "seed")


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
        return {f.name: [float(v) for v in getattr(self, f.name)] for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict, input_dim: int) -> "NormStats":
        """Inverse of to_dict for input_dim features; a norm that is not an object,
        an unknown key, or a missing, mis-sized or non-finite range raises ValueError naming it."""
        keys = [f.name for f in fields(cls)]
        if not isinstance(d, dict):
            raise ValueError(f"norm must be a JSON object, got {d!r}")
        unknown = sorted(set(d) - set(keys))
        if unknown:
            raise ValueError(f"unknown norm key {unknown[0]!r}")
        ranges = {}
        for key in keys:
            ranges[key] = np.array(d.get(key), dtype=float)
            size = input_dim if key.startswith("feature") else 2
            if ranges[key].shape != (size,) or not np.isfinite(ranges[key]).all():
                raise ValueError(f"norm {key!r} must be a list of {size} finite numbers")
        return cls(**ranges)


def evaluate_mae(model, test_ds: Dataset, stats: NormStats) -> tuple[float, dict[str, float]]:
    """Mean Euclidean error (mm) of denormalized predictions on a test split:
    (overall, per test point keyed by its id as text, as the reports key it).

    model: anything exposing forward_batch(normalized features) -> (n, 2)
    normalized coordinates. A non-finite error raises ValueError naming the family and layout.
    """
    family = getattr(model, "family", "custom")
    xn = stats.normalize_features(test_ds.features)
    with np.errstate(over="ignore", invalid="ignore"):
        pred = stats.denormalize_targets(model.forward_batch(xn))
        err_mm = 1000.0 * np.linalg.norm(pred - test_ds.targets, axis=1)
    if not np.isfinite(err_mm).all():
        raise ValueError(f"{family} predictions on the {test_ds.layout} layout are not finite")
    per_point = {str(pid): float(err_mm[test_ds.point_ids == pid].mean()) for pid in np.unique(test_ds.point_ids)}
    return float(err_mm.mean()), per_point


def improvement_percent(rssi_mae_mm: float, hybrid_mae_mm: float) -> float:
    """Relative MAE gain of the hybrid layout over the rssi layout, percent."""
    if not rssi_mae_mm > 0:
        raise ValueError(f"rssi-layout MAE must be positive, got {rssi_mae_mm}")
    return 100.0 * (rssi_mae_mm - hybrid_mae_mm) / rssi_mae_mm


def _baseline_mae_mm(test_ds: Dataset, locate) -> float:
    """Mean error (mm) of locate(feature row as floats) -> PositionEstimate over a test split."""
    ests = [locate(row).p for row in test_ds.features.tolist()]
    return 1000.0 * float(np.mean([math.hypot(e.x - tx, e.y - ty) for e, (tx, ty) in zip(ests, test_ds.targets.tolist())]))


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
    """One room of a sweep, with its NLoS model and per-anchor path loss."""

    env: Environment
    nlos: NlosModel = NlosModel()
    params: tuple[PathLossParams, PathLossParams, PathLossParams] = (PathLossParams(2.5, 3.0, -40.0),) * 3


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep. Each field but envs and aoa is the top-level config key of its name.

    Every config key is a field of this class, TrainSpec, OutlierPolicy, AoaSim,
    MusicSpec, GridRoom, Environment, Anchor, NlosModel or PathLossParams, whose default is the
    key's only default; load_config and config_to_dict walk these classes.
    """

    envs: tuple[EnvSpec, ...]
    seeds: tuple[int, ...] = tuple(range(10))
    n_per_point: int = 500
    train_fraction: float = 0.8
    models: tuple[str, ...] = MODEL_FAMILIES
    layouts: tuple[str, ...] = LAYOUTS
    rbf_centers: int = 40
    aoa: AoaSim = AoaSim()
    train: TrainSpec = TrainSpec()
    outlier: OutlierPolicy = OutlierPolicy()

    def __post_init__(self):
        if not self.envs:
            raise ValueError("environments must hold at least one room")
        names = [spec.env.name for spec in self.envs]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"environments[{i}].name {name!r} repeats environments[{names.index(name)}].name")
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be a nonempty list of distinct nonnegative integers, got {list(self.seeds)}")
        check_bound(self, 1, "n_per_point", "rbf_centers")
        SplitSpec(self.train_fraction, 0)
        for name, allowed in (("models", MODEL_FAMILIES), ("layouts", LAYOUTS)):
            values = getattr(self, name)
            if not values or not set(values) <= set(allowed) or len(set(values)) < len(values):
                raise ValueError(f"{name} must be a nonempty list of distinct names from {list(allowed)}, got {list(values)}")

    def dataset(self, spec: EnvSpec, seed: int, layout: str = "hybrid") -> Dataset:
        """One room's dataset, drawn with this sweep's sample count, screen and AoA model."""
        return generate_dataset(spec.env, list(spec.params), spec.nlos, self.n_per_point, layout, self.outlier, seed, self.aoa)


def path_loss_from_dict(doc, where: str = "path_loss") -> tuple[PathLossParams, PathLossParams, PathLossParams]:
    """Per-anchor parameters from a path-loss document: one object
    {gamma, sigma, p_r_d0[, d0]} shared by all anchors, or a list of three.
    A bad entry raises ValueError naming where and the key."""
    if not isinstance(doc, list):
        return (read_section(PathLossParams, doc, where + "."),) * 3
    if len(doc) != 3:
        raise ValueError(f"{where} needs 3 entries, one per anchor, got {len(doc)}")
    return tuple(read_section(PathLossParams, d, f"{where}[{i}].") for i, d in enumerate(doc))


def _env_spec(doc, where: str, shared: dict) -> EnvSpec:
    """One entry of `environments`: an Environment (a room listed with its
    anchors and test points, as config_to_dict writes it) or a GridRoom, with its own nlos section and its
    own path_loss, else the shared top-level one, else EnvSpec's default."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    room = dict(doc)
    built = dict(shared)
    if "path_loss" in room:
        built["params"] = path_loss_from_dict(room.pop("path_loss"), f"{where}.path_loss")
    built["nlos"] = read_section(NlosModel, room.pop("nlos", {}), f"{where}.nlos.")
    if "anchors" in room:
        env = read_section(Environment, room, where + ".")
        if not env.test_points:
            raise ValueError(f"{where}.test_points must hold at least one point, got []")
        return EnvSpec(env, **built)
    grid = read_section(GridRoom, room, where + ".")
    try:
        env = grid.environment()
    except ValueError as e:
        raise ValueError(f"{where}: {e!s}") from e
    return EnvSpec(env, **built)


def load_config(source) -> ExperimentConfig:
    """The sweep of a JSON config file path or an already-parsed dict.

    Every key is checked before anything runs (see channel.read_section). Only
    `aoa_mode`/`aoa_noise_deg`, which fill an AoaSim with the `music`
    section, and `environments` with the shared `path_loss` are read by hand.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as f:
            source = json.load(f)
    if not isinstance(source, dict):
        raise ValueError(f"the config must be a JSON object, got {source!r}")
    cfg = dict(source)
    rooms = cfg.pop("environments", None)
    if not isinstance(rooms, list):
        raise ValueError(f"environments must be a list of rooms, got {rooms!r}")
    shared = {"params": path_loss_from_dict(cfg.pop("path_loss"))} if "path_loss" in cfg else {}
    envs = tuple(_env_spec(room, f"environments[{i}]", shared) for i, room in enumerate(rooms))
    aoa = {key: cfg.pop("aoa_" + key) for key in ("mode", "noise_deg") if "aoa_" + key in cfg}
    music = read_section(MusicSpec, cfg.pop("music", {}), "music.")
    return read_section(ExperimentConfig, cfg, "", envs=envs, aoa=read_section(AoaSim, aoa, "aoa_", music=music))


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON form of a config, which load_config reads back to an equal one."""
    doc = {f.name: json_form(getattr(config, f.name)) for f in fields(config) if f.name not in ("envs", "aoa")}
    aoa = json_form(config.aoa)
    doc.update(aoa_mode=aoa["mode"], aoa_noise_deg=aoa["noise_deg"], music=aoa["music"])
    doc["environments"] = [
        {**json_form(spec.env), "nlos": json_form(spec.nlos), "path_loss": json_form(spec.params)}
        for spec in config.envs
    ]
    return doc


def cell_seeds(seed: int, env_idx: int, n_models: int) -> tuple[int, int, list[tuple[int, int]]]:
    """Seeds of one (environment, seed) cell: dataset, split, and (init, train)
    per model family, all drawn from SeedSequence([seed, env_idx]). A cell's
    data thus depends on its room's position in the config."""
    ss = np.random.SeedSequence([int(seed), int(env_idx)])
    state = [int(v) for v in ss.generate_state(2 + 2 * n_models, dtype=np.uint64)]
    return state[0], state[1], list(zip(state[2::2], state[3::2]))


def _run_cells(config: ExperimentConfig, cells) -> list[dict]:
    """The (environment index, seed) cells' results, in order. Their jobs stream into one neural.fit; each
    run is scored and cut to its _loss_log as it is fitted, then its model, test split and history go."""
    results, runs = [], []
    try:
        for k, history in neural.fit(_cell_jobs(config, cells, results, runs), config.train):
            (row, model, te, stats), runs[k] = runs[k], None
            try:
                mae_mm, per_point = evaluate_mae(model, te, stats)
            except ValueError as e:
                raise _cell_error(row, e) from e
            row.update(mae_mm=mae_mm, **_loss_log(history), per_point_mae_mm=per_point)
            del history
    except neural.Diverged as e:
        raise _cell_error(runs[e.member][0], e) from e
    return results


def _cell_jobs(config: ExperimentConfig, cells, results: list, runs: list):
    """Each cell's dataset, split, baselines and models, drawn as neural.fit asks for its (model, x, y,
    train seed) jobs. Each cell's dict goes on results, each run's (row, model, test split, stats) on runs."""
    for env_idx, seed in cells:
        spec = config.envs[env_idx]
        dataset_seed, split_seed, model_seeds = cell_seeds(seed, env_idx, len(config.models))
        ds_hybrid = config.dataset(spec, dataset_seed)
        tr_h, te_h = split(ds_hybrid, config.train_fraction, seed=split_seed)
        params = list(spec.params)
        baselines = {
            "trilat": trilat_baseline_mae_mm(spec.env, params, te_h),
            "hybrid_closed_form": hybrid_baseline_mae_mm(spec.env, params, te_h),
        }
        cell = {"environment": spec.env.name, "seed": seed, "rejects": ds_hybrid.rejects, "baselines": baselines, "runs": []}
        results.append(cell)
        for layout in config.layouts:
            # The rssi layout sees the same draws and split, minus the AoA columns.
            tr, te = (tr_h, te_h) if layout == "hybrid" else (tr_h.project_rssi(), te_h.project_rssi())
            stats = NormStats.fit(tr)
            xn, yn = stats.normalize_features(tr.features), stats.normalize_targets(tr.targets)
            for family, (init_seed, train_seed) in zip(config.models, model_seeds):
                model = neural.build(family, xn, init_seed, config.rbf_centers)
                # The run's row, filled in once its model is fitted.
                row = {"environment": spec.env.name, "seed": seed, "layout": layout, "model": family,
                       "untrained_mae_mm": evaluate_mae(model, te, stats)[0]}
                cell["runs"].append(row)
                runs.append((row, model, te, stats))
                yield model, xn, yn, train_seed


def _loss_log(history) -> dict:
    """A run's final loss, step count and, as one float array, the losses loss_history.csv writes."""
    stride = max(1, history.size // _HISTORY_ROWS)
    return {"final_loss": float(history[-1]), "steps": int(history.size), "loss_history": history[::stride].copy()}


def _cell_error(row, e: Exception) -> ValueError:
    """e, prefixed with the room, seed and layout of a run's row."""
    return ValueError(f"{row['environment']} seed {row['seed']} layout {row['layout']}: {e}")


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

    LOCUS_THREADS > 1 splits the cells (environment x seed) into contiguous
    chunks, one worker process each (see worker_count); results are identical.
    """
    cells = [(ei, s) for ei in range(len(config.envs)) for s in config.seeds]
    workers = worker_count(len(cells))
    if workers > 1:
        # Imported here: a serial sweep needs no process pool (nor multiprocessing).
        from concurrent.futures import ProcessPoolExecutor

        chunks = [cells[i * len(cells) // workers : (i + 1) * len(cells) // workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cell_results = [r for part in pool.map(_run_cells, [config] * workers, chunks) for r in part]
    else:
        cell_results = _run_cells(config, cells)

    runs = [r for cell in cell_results for r in cell["runs"]]
    baselines = [{"environment": c["environment"], "seed": c["seed"], **c["baselines"]} for c in cell_results]

    env_names = [spec.env.name for spec in config.envs]
    mae_table = {
        name: {
            f"{f}_{l}": float(np.mean([r["mae_mm"] for r in runs if (r["environment"], r["model"], r["layout"]) == (name, f, l)]))
            for f in config.models
            for l in config.layouts
        }
        for name in env_names
    }
    improvement = {}
    if "rssi" in config.layouts and "hybrid" in config.layouts:
        for name, row in mae_table.items():
            improvement[name] = {m: improvement_percent(row[f"{m}_rssi"], row[f"{m}_hybrid"]) for m in config.models}
    baseline_table = {
        name: {key: float(np.mean([b[key] for b in baselines if b["environment"] == name])) for key in ("trilat", "hybrid_closed_form")}
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
        write_report_files(report, runs, out_dir)
    return report


def _round6(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def json_text(obj) -> str:
    """The JSON text of report.json and of the CLI's stdout: floats rounded to six decimals, keys sorted, no NaN."""
    return json.dumps(_round6(obj), indent=2, sort_keys=True, allow_nan=False)


def write_report_files(report: dict, runs_with_history: list, out_dir):
    """report.json plus mae/improvement tables and the training loss log.

    A table's columns are the keys of its rows, in the order run_experiment
    put them there. The texts of report.json, the only one that can raise (on
    NaN), and of the tables are built before any file is opened, so a report
    that holds NaN leaves an earlier report.json whole. loss_history.csv is
    written last, run by run, from each row's loss array (see _loss_log).
    """
    texts = {"report.json": json_text(report) + "\n"}
    for name, table in (("mae_table.csv", report["mae_table_mm"]), ("improvement_table.csv", report["improvement_percent"])):
        if table:  # no improvement table without both layouts
            cols = list(next(iter(table.values())))
            rows = [env + "," + ",".join(f"{row[c]:.6f}" for c in cols) for env, row in table.items()]
            texts[name] = "\n".join(["environment," + ",".join(cols), *rows]) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(text)
    with open(os.path.join(out_dir, "loss_history.csv"), "w") as f:
        f.write("environment,layout,model,seed,step,loss\n")
        for r in runs_with_history:
            key, stride = f"{r['environment']},{r['layout']},{r['model']},{r['seed']}", max(1, r["steps"] // _HISTORY_ROWS)
            f.write("".join(f"{key},{j * stride},{loss:.6f}\n" for j, loss in enumerate(r["loss_history"].tolist())))
