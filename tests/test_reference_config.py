"""Guard for the committed reference sweep config.

The acceptance sweep in test_acceptance.py reads configs/paper_repro.json, and
the benchmark's workloads are a copy of it with a few keys overridden. These
checks need no training, so a missing or edited config fails here on its
own instead of showing up only as several sweep failures.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from locus.environment import STANDARD_ROOMS
from locus.pipeline import cell_seeds, config_to_dict, load_config

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = ROOT / "configs" / "paper_repro.json"

# The benchmark's workload configs, read from perfbench/ without putting that
# directory on the import path.
_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# Redraws summed over the ten seeds of each room, as recorded for the reference
# run (report total_rejects 15441).
RECORDED_REJECTS = {"big_classroom": 672, "corridor": 2633, "small_classroom": 12136}


@pytest.fixture(scope="module")
def config():
    return load_config(REFERENCE_CONFIG)


def test_reference_rooms_are_the_standard_rooms(config):
    assert [spec.env.name for spec in config.envs] == list(RECORDED_REJECTS)
    for spec in config.envs:
        assert spec.env == STANDARD_ROOMS[spec.env.name].environment()


def test_reference_seeds_and_sample_count(config):
    assert config.seeds == tuple(range(10))
    assert config.n_per_point == 500


def test_reference_redraws_match_recorded_run(config):
    """Hybrid datasets drawn with the sweep's per-cell seeding give the recorded redraws."""
    for env_idx, spec in enumerate(config.envs):
        rejects = 0
        for seed in config.seeds:
            dataset_seed, _, _ = cell_seeds(seed, env_idx, len(config.models))
            rejects += config.dataset(spec, dataset_seed).rejects
        assert rejects == RECORDED_REJECTS[spec.env.name], spec.env.name


def test_benchmark_reference_config_is_the_committed_one():
    assert workloads.REFERENCE_CONFIG == json.loads(REFERENCE_CONFIG.read_text())


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_configs_load_and_round_trip(workload, tiny):
    for seed in (1, 2, 3):
        doc = workloads.make_config(workload, seed, tiny=tiny)
        config = load_config(doc)
        assert list(config.seeds) == doc["seeds"] and config.n_per_point == doc["n_per_point"]
        written = config_to_dict(config)
        assert load_config(written) == config
        assert config_to_dict(load_config(json.loads(json.dumps(written)))) == written
