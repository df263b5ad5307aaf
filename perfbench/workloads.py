"""Workload configs for the benchmark, generated from the workload seed.

Every workload is the reference sweep config (a copy of the repository's
`configs/paper_repro.json`, kept here so that the benchmark's inputs only
change when the benchmark changes) with a few keys overridden. The workload
seed picks the experiment seeds; the rooms, their test points and NLoS
pairs stay those of the reference config.
"""

from __future__ import annotations

import copy
import math
import random

REFERENCE_CONFIG = {
    "seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    "n_per_point": 500,
    "train_fraction": 0.8,
    "models": ["mlp", "rbf", "cnn"],
    "layouts": ["rssi", "hybrid"],
    "aoa_mode": "fast",
    "aoa_noise_deg": 2.0,
    "path_loss": {"gamma": 2.5, "sigma": 3.0, "p_r_d0": -40.0},
    "train": {"learning_rate": 0.01, "batch_size": 32, "epochs": 200},
    "rbf_centers": 40,
    "outlier": {"rssi_sigma_multiple": 3.0, "aoa_threshold_deg": 10.0},
    "environments": [
        {"name": "big_classroom", "length_m": 13, "width_m": 13,
         "test_point_seed": 11, "n_points": 10,
         "nlos": {"excess_loss_db": 1.0, "aoa_bias_deg_sigma": 1.0}},
        {"name": "corridor", "length_m": 12, "width_m": 4,
         "test_point_seed": 12, "n_points": 10,
         "nlos": {"excess_loss_db": 2.5, "aoa_bias_deg_sigma": 2.5}},
        {"name": "small_classroom", "length_m": 9, "width_m": 7,
         "test_point_seed": 13, "n_points": 10,
         "nlos": {"excess_loss_db": 4.0, "aoa_bias_deg_sigma": 4.0}},
    ],
}

# Sample counts are cut from the reference 500 per point so that one sweep
# takes a few seconds and a run can take the median of several sweeps. Batch
# size and epochs stay at the paper protocol, so the cost of one SGD step is
# the reference one; only the number of steps shrinks.
WORKLOADS = {
    # The paper protocol as users run it: SGD is most of the run, no MUSIC.
    "report_fast": {"n_seeds": 1, "overrides": {"n_per_point": 40}},
    # The subspace AoA estimator per sample: estimate_aoa dominates.
    "report_music": {"n_seeds": 1, "overrides": {"n_per_point": 10, "aoa_mode": "music"}},
    # RBF only: k-means, the ridge solve and the closed-form baselines over
    # ten seeds, with no SGD at all.
    "report_rbf": {"n_seeds": 10, "overrides": {"n_per_point": 60, "models": ["rbf"]}},
}

# Used by the benchmark's own tests only: a sweep of about a second.
TINY_OVERRIDES = {
    "report_fast": {"n_per_point": 10},
    "report_music": {"n_per_point": 5},
    "report_rbf": {"n_per_point": 10},
}


def experiment_seeds(workload: str, seed: int) -> list[int]:
    """The experiment seeds a workload seed stands for."""
    n = WORKLOADS[workload]["n_seeds"]
    return sorted(random.Random(seed).sample(range(10_000), n))


def make_config(workload: str, seed: int, tiny: bool = False) -> dict:
    """The `locus report` config of one workload at one workload seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    cfg = copy.deepcopy(REFERENCE_CONFIG)
    cfg.update(copy.deepcopy(WORKLOADS[workload]["overrides"]))
    if tiny:
        cfg.update(copy.deepcopy(TINY_OVERRIDES[workload]))
    cfg["seeds"] = experiment_seeds(workload, seed)
    return cfg


def n_cells(cfg: dict) -> int:
    """Cells (room x seed) one sweep of this config runs."""
    return len(cfg["environments"]) * len(cfg["seeds"])


def n_train(cfg: dict, env: dict) -> int:
    """Training samples of one room: the per-point split rounded per point."""
    return int(env.get("n_points", 10)) * int(round(cfg["train_fraction"] * cfg["n_per_point"]))


def sgd_steps(cfg: dict, env: dict) -> int:
    """SGD steps of one run: epochs x batches per epoch."""
    train = cfg["train"]
    return int(train["epochs"]) * math.ceil(n_train(cfg, env) / int(train["batch_size"]))
