"""The bits of the program's outputs, pinned by sha256.

A change that keeps behaviour keeps these files byte for byte:
- the four report files and the `locus report` stdout of the benchmark's
  three workload configs at workload seed 1, run serially and with
  LOCUS_THREADS=2;
- `locus simulate dataset` files in both layouts (big classroom, 12 per
  point);
- `locus train` model files for each family on each dataset, with
  `--epochs 5`;
- the `locus eval` stdout of each hybrid model on its dataset, and its
  `locus predict --features` stdout on three fixed rows.

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
REPORT_STDOUT_DIGESTS = {
    "report_fast": "b0aaeacc36bba6e9515e8932d7abb365b59aadb1dcbbde0004a5af8ccad45520",
    "report_music": "d33db28ee4e5aa3bca12671f91eb150e3081131405ecd6c4dd0ef39245597596",
    "report_rbf": "740730a7194602eea62c2aa2152c974263cf111ecf6037ce90f02406d03d2950",
}
DATASET_DIGESTS = {
    "rssi": "bb702602bdc17618c0b56599f08587367f7665924e8f327e5907908f38e9eb4e",
    "hybrid": "0d7db555fbc56012d698ed04e9e12eef463f2c6dfd519f1fc14012f6bd579684",
}
MODEL_DIGESTS = {
    "mlp": "d5f186d2e8cf81c257d021c5b9c09d6c1d719cee73c31af4e20623cef6bbf027",
    "rbf": "237f960a60402e35275e2aeadaae41696597753e7cb587bc5d3c5ce9cd97e2b8",
    "cnn": "0d8e5e531c65c72a8c92141b3621db8f23f6e6272328bbd289cbb240fe3219a5",
}
RSSI_MODEL_DIGESTS = {
    "mlp": "0461832c918f8bc1c47322f0f26bad1de0d7d415cdb83337da0b38423a260504",
    "rbf": "40be6884172951db4c523f5af95b6f8bcbccfc582f74389fc39c5433dbd70bfb",
    "cnn": "21724914c3fd8b18615e6e748ac7ee03ca9ef0773826e749cd2eeda3d7d7f5b9",
}
# The stdout of `eval` and of `predict --features PREDICT_ROWS` for each hybrid model.
MODEL_STDOUT_DIGESTS = {
    "mlp": {"eval": "3f8b0fdeb7a92a8b83f6bc7a9097db43733527d91c6a9d5752f867d21c6604e3",
            "predict": "fa7973c5a16c0a455682a4ba539fb54b8fa2e8c84cb754bccee46b0af22f588a"},
    "rbf": {"eval": "e55a2ba76fd7c1efdd92b9a6590117a2917d55f3e440d1a94bdb911048697db9",
            "predict": "3c292f06a7966c51da7d5a6af75f95fcfa144b5e8283ecb0d91ce8a02b760e21"},
    "cnn": {"eval": "f4e862b8bc2e07b6e59ca038e7c178768ade7caadca744638358c95c052f35dc",
            "predict": "9032449de8c57df698d8457952387838ba367647a9e4f1dd067bc4884aa8bbc7"},
}
PREDICT_ROWS = "-52.1,-63.9,-60.2,41.2,-37.8,12.5;-56.2,-66.9,-68.0,36.4,-108.0,-8.5;-63.0,-67.3,-67.1,50.0,-136.3,-45.5"


def _check_build():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}
    if build != RECORDED_BUILD:
        pytest.fail(f"the digests were recorded with {RECORDED_BUILD}, but this is {build}")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _locus(*argv):
    assert main([str(a) for a in argv]) == 0


def _stdout_sha256(capsys, *argv):
    capsys.readouterr()
    _locus(*argv)
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_reports_keep_their_bits(tmp_path, monkeypatch, capsys, workload, threads):
    _check_build()
    # Relative paths, so that the out_dir the report prints is the same in every run.
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(workloads.make_config(workload, 1)))
    monkeypatch.setenv("LOCUS_THREADS", threads)
    stdout = _stdout_sha256(capsys, "report", "--config", "config.json", "--out", "out")
    assert {name: _sha256(tmp_path / "out" / name) for name in REPORT_DIGESTS[workload]} == REPORT_DIGESTS[workload]
    assert stdout == REPORT_STDOUT_DIGESTS[workload]


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    out = tmp_path_factory.mktemp("datasets")
    for layout in DATASET_DIGESTS:
        _locus("simulate", "dataset", "--config", REFERENCE_CONFIG, "--env-name", "big_classroom",
               "--layout", layout, "--n-per-point", 12, "--out", out / f"{layout}.json")
    return out


@pytest.fixture(scope="module")
def models(tmp_path_factory, datasets):
    """The model file of each family trained on each dataset, named `<layout>_<family>.json`."""
    out = tmp_path_factory.mktemp("models")
    for layout in DATASET_DIGESTS:
        for model in MODEL_DIGESTS:
            _locus("train", "--data", datasets / f"{layout}.json", "--model", model,
                   "--out", out / f"{layout}_{model}.json", "--epochs", 5)
    return out


@pytest.mark.parametrize("layout", sorted(DATASET_DIGESTS))
def test_dataset_files_keep_their_bits(datasets, layout):
    _check_build()
    assert _sha256(datasets / f"{layout}.json") == DATASET_DIGESTS[layout]


@pytest.mark.parametrize("model", sorted(MODEL_DIGESTS))
def test_model_files_keep_their_bits(models, model):
    _check_build()
    assert _sha256(models / f"hybrid_{model}.json") == MODEL_DIGESTS[model]


@pytest.mark.parametrize("model", sorted(RSSI_MODEL_DIGESTS))
def test_rssi_model_files_keep_their_bits(models, model):
    _check_build()
    assert _sha256(models / f"rssi_{model}.json") == RSSI_MODEL_DIGESTS[model]


@pytest.mark.parametrize("model", sorted(MODEL_STDOUT_DIGESTS))
def test_model_eval_and_predict_stdout_keep_their_bits(capsys, datasets, models, model):
    _check_build()
    path = models / f"hybrid_{model}.json"
    stdout = {
        "eval": _stdout_sha256(capsys, "eval", "--model", path, "--data", datasets / "hybrid.json"),
        "predict": _stdout_sha256(capsys, "predict", "--model", path, f"--features={PREDICT_ROWS}"),
    }
    assert stdout == MODEL_STDOUT_DIGESTS[model]
