"""Guard for the committed reference sweep config.

The acceptance sweep in test_acceptance.py reads configs/paper_repro.json.
These checks need no training, so a missing or edited config fails here on its
own instead of showing up only as several sweep failures.
"""

from pathlib import Path

import pytest

from locus.environment import STANDARD_ROOMS, standard_environment
from locus.pipeline import cell_seeds, generate_dataset, load_config

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_repro.json"

# Redraws summed over the ten seeds of each room, as recorded for the reference
# run (report total_rejects 15441).
RECORDED_REJECTS = {"big_classroom": 672, "corridor": 2633, "small_classroom": 12136}


@pytest.fixture(scope="module")
def config():
    return load_config(REFERENCE_CONFIG)


def test_reference_rooms_are_the_standard_rooms(config):
    assert [spec.env.name for spec in config.envs] == list(RECORDED_REJECTS)
    for spec in config.envs:
        name = spec.env.name
        assert (spec.env.length, spec.env.width) == STANDARD_ROOMS[name]
        # standard_environment jitters its grid with _STANDARD_POINT_SEEDS[name]
        assert spec.env.test_points == standard_environment(name).test_points


def test_reference_seeds_and_sample_count(config):
    assert config.seeds == tuple(range(10))
    assert config.n_per_point == 500


def test_reference_redraws_match_recorded_run(config):
    """Hybrid datasets drawn with the sweep's per-cell seeding give the recorded redraws."""
    for env_idx, spec in enumerate(config.envs):
        rejects = 0
        for seed in config.seeds:
            dataset_seed, _, _ = cell_seeds(seed, env_idx, len(config.models))
            ds = generate_dataset(
                spec.env,
                list(spec.params),
                spec.nlos,
                config.n_per_point,
                layout="hybrid",
                outlier=config.outlier_policy(spec),
                seed=dataset_seed,
                aoa=config.aoa,
            )
            rejects += ds.rejects
        assert rejects == RECORDED_REJECTS[spec.env.name], spec.env.name
