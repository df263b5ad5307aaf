"""The bits of the program's outputs, pinned by sha256.

A change that keeps behaviour keeps these files byte for byte:
- the four report files of the benchmark's three workload configs at
  workload seed 1, run serially and with LOCUS_THREADS=2;
- `locus simulate dataset` files in both layouts (big classroom, 12 per
  point);
- `locus train` model files for each family on the hybrid dataset, with
  `--epochs 5`.

A change that moves bits on purpose rewrites the digests below in the same
commit, and says in CHANGES.md which files moved and why.

Floating-point results depend on the numpy build and the BLAS it calls, so the
digests hold for the recorded build only. On any other build every test here
fails naming both builds; none skips.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from locus.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = ROOT / "configs" / "paper_repro.json"

# The benchmark's workload configs, read from perfbench/ without putting that
# directory on the import path.
_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# The digests were written with this build, on OpenBLAS's Haswell kernels.
RECORDED_BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

REPORT_DIGESTS = {
    "report_fast": {
        "report.json": "99ecf82ea1363744e3897050cf569049c61ae78ebe6d6da3578eed177e2b1dd9",
        "mae_table.csv": "4ec166cc600f7abfdd8eae01a7245a0ca60b149b215a621adba0492c979a5e9e",
        "improvement_table.csv": "7f1d0f7ef63cbd518abe49050851c1cf52a932fdeeb4c5a4f8cd5daca920e341",
        "loss_history.csv": "4fc4b0e2bfa9649cda6f856321630b839733588a969bc465f29c058fb6a3cd25",
    },
    "report_music": {
        "report.json": "84a21c3d12250e82baa16ee0ebcefb53b62e1f1982dbae9adbbad253b15e7700",
        "mae_table.csv": "e0dd07ab889c7367a777dbc0a6fb22f91006deece5157031c98c196e170d2cf3",
        "improvement_table.csv": "192a86596b11373576b7fd93c24438df641e07318587367c9907c841dd9feab6",
        "loss_history.csv": "906221950e1086fbb3dcabbefe4581cbaedd993dcb2cd3bce6c583b051c6f376",
    },
    "report_rbf": {
        "report.json": "caef2265af0248cf5223a056cb57646b6f2ccbd7ba1d80b4bb14e145f27c93e9",
        "mae_table.csv": "0236f0cfb1dfe0e4b7b6b69a9eaf24e5c2cafcdcac887ee3613bdec775e5f81d",
        "improvement_table.csv": "06a00d14687914599c829a6173805cc9426a4ec3b0b9044ec9ba97558f8f525f",
        "loss_history.csv": "ed5ab97043b58eeebb2eab07ea3e406cb5ad41f98c9df94494ec39775b594960",
    },
}
DATASET_DIGESTS = {
    "rssi": "50d2d10beb469380b9a519e63e2a223a77f4ed38a16068be27022fac7acaddcd",
    "hybrid": "0d7db555fbc56012d698ed04e9e12eef463f2c6dfd519f1fc14012f6bd579684",
}
MODEL_DIGESTS = {
    "mlp": "d5f186d2e8cf81c257d021c5b9c09d6c1d719cee73c31af4e20623cef6bbf027",
    "rbf": "237f960a60402e35275e2aeadaae41696597753e7cb587bc5d3c5ce9cd97e2b8",
    "cnn": "0d8e5e531c65c72a8c92141b3621db8f23f6e6272328bbd289cbb240fe3219a5",
}


def _check_build():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}
    if build != RECORDED_BUILD:
        pytest.fail(f"the digests were recorded with {RECORDED_BUILD}, but this is {build}")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _locus(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_reports_keep_their_bits(tmp_path, monkeypatch, workload, threads):
    _check_build()
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(workloads.make_config(workload, 1)))
    monkeypatch.setenv("LOCUS_THREADS", threads)
    _locus("report", "--config", config, "--out", out)
    assert {name: _sha256(out / name) for name in REPORT_DIGESTS[workload]} == REPORT_DIGESTS[workload]


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    out = tmp_path_factory.mktemp("datasets")
    for layout in DATASET_DIGESTS:
        _locus("simulate", "dataset", "--config", REFERENCE_CONFIG, "--env-name", "big_classroom",
               "--layout", layout, "--n-per-point", 12, "--out", out / f"{layout}.json")
    return out


@pytest.mark.parametrize("layout", sorted(DATASET_DIGESTS))
def test_dataset_files_keep_their_bits(datasets, layout):
    _check_build()
    assert _sha256(datasets / f"{layout}.json") == DATASET_DIGESTS[layout]


@pytest.mark.parametrize("model", sorted(MODEL_DIGESTS))
def test_model_files_keep_their_bits(tmp_path, datasets, model):
    _check_build()
    _locus("train", "--data", datasets / "hybrid.json", "--model", model, "--out", tmp_path / "model.json",
           "--epochs", 5)
    assert _sha256(tmp_path / "model.json") == MODEL_DIGESTS[model]
