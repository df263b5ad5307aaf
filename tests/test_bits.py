"""The bits of the program's outputs, pinned by sha256.

A change that keeps behaviour keeps these files byte for byte:
- the four report files and the `locus report` stdout of the benchmark's
  three workload configs at workload seeds 1, 2 and 3, run serially and with
  LOCUS_THREADS=2;
- `locus simulate dataset` files in both layouts (big classroom, 12 per
  point);
- `locus train` model files for each family on each dataset, with
  `--epochs 5`;
- the `locus eval` stdout of each hybrid model on its dataset, and its
  `locus predict --features` stdout on three fixed rows;
- the `locus fit` stdout on a simulated CSV, and the `locus locate` stdout of
  both methods in each standard room, given by `--room` or by `--env`.

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

from locus.channel import json_form
from locus.cli import main
from locus.environment import standard_environment

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = ROOT / "configs" / "paper_repro.json"

# The benchmark's workload configs, read from perfbench/ without putting that
# directory on the import path.
_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# The digests were written with this build, on OpenBLAS's Haswell kernels.
RECORDED_BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

# Keyed by workload, then workload seed.
REPORT_DIGESTS = {
    "report_fast": {
        1: {
            "report.json": "f33368710dbac39f6b93e41b571d745adb0b1ee478ac218d842740d66e58c812",
            "mae_table.csv": "eb8c82ed0427a622a000abc2c4e432de3b0d41dfbc5adf3446652deccd883616",
            "improvement_table.csv": "98225738c1d5775abfa4100263b09297684b12fc8878c3a0d9145cafaf5ccb5a",
            "loss_history.csv": "e13aaa2382c55291252fb4c62d4bc6f94ae8c261c2b455a064e5c1cb781f123b",
        },
        2: {
            "report.json": "0609671f347408e5dd17ccc3f60dee7ec17f2b9f933f05bdc29cbab104ad3562",
            "mae_table.csv": "646149b1d3de77c87b618b99b312105e71ec75ee0e89e9611e2d4722549af852",
            "improvement_table.csv": "006e13702cf0aeb2d862faa39998e2ce5283eec54f03fb6532b85b5d9dd430ce",
            "loss_history.csv": "412ff07c33d662ec68c09a1aa80b3d5a202c2c3bd54629ebee10bbc386403559",
        },
        3: {
            "report.json": "276b3068206c2a84462a035af4b4b10e4a4a90fc1d614a4156a14db6e686ecd6",
            "mae_table.csv": "8378de66d13f5341050766a92e30df1ce405e487fd283cb6be0aa29b94cd64da",
            "improvement_table.csv": "325a74cbaa29c2ea73fc597bb98e157625677e4eb38da75c47a69223b807d451",
            "loss_history.csv": "f8d2db19c24b181892b0e01be8ca2119b798b03c6022b87a2edc867477ef4b9d",
        },
    },
    "report_music": {
        1: {
            "report.json": "0969cfa7f4596f697419f57f96ff295cb6c40111eec0cfac129e8d8dc8f1a8d2",
            "mae_table.csv": "c5b9d489be1e8f5b6a1daffc6bf897823cb360be0523a3653ccdf385caa2e93f",
            "improvement_table.csv": "3b4cc57b4e96b86432a3e31123a38a9da9c95b4623f82fc72e65e18c4f52e9de",
            "loss_history.csv": "729c396a5a9ae221c2e9a57414f3adc15cd1c094670c8bbedf40fa808a64f38b",
        },
        2: {
            "report.json": "48636f3e9646ee9e11aa3d3951c0318fdca1be2fb411b89b4abf2bd7efec1d0a",
            "mae_table.csv": "809d1860ddb1ce7615b36e3a6c2d17926b2b1afd755b4b72c9868e1e93cfc2b3",
            "improvement_table.csv": "d20a6db8d3749bf0926cb0ded9ec3291d3193dbd7e5662804f8dcd28c7d98119",
            "loss_history.csv": "3c43aaa726dabbcf9fc0fe3e35395d23e6888858cdb4065d9cf89126a25ea5c6",
        },
        3: {
            "report.json": "25ed924e1bb7b4bd37b151533b8401adbe4eedae19918958d093163bd184f730",
            "mae_table.csv": "80e23c6945b218acd4341dfc5699fe11a9a567ed3a2b414c86131cf4fcea58fb",
            "improvement_table.csv": "de9c18bb5d3767b26327c591ba0ad8dca05a283a6bf57601b59e16ed0842ff3c",
            "loss_history.csv": "519b0e69cfd7070f30168dbac01e2e14e67c94c7ca46e9cc84f4c452325b87de",
        },
    },
    "report_rbf": {
        1: {
            "report.json": "caef2265af0248cf5223a056cb57646b6f2ccbd7ba1d80b4bb14e145f27c93e9",
            "mae_table.csv": "0236f0cfb1dfe0e4b7b6b69a9eaf24e5c2cafcdcac887ee3613bdec775e5f81d",
            "improvement_table.csv": "06a00d14687914599c829a6173805cc9426a4ec3b0b9044ec9ba97558f8f525f",
            "loss_history.csv": "ed5ab97043b58eeebb2eab07ea3e406cb5ad41f98c9df94494ec39775b594960",
        },
        2: {
            "report.json": "660500d5fa66658b5966a87370fe0770214400a6967ee6786278993cb84522a3",
            "mae_table.csv": "f3ddb5ceafdb233b540e00e822662e4d86f682044eba147dc8e67439a31fbcd2",
            "improvement_table.csv": "fecd7ea8d3596f46aff5a04411ce5241d0608cd95cd9513f41da2631ee2e237e",
            "loss_history.csv": "1c4945cca566dd14347f10f82dfb4ef16a06c875ebb0beb32677cc4d9adbf3ad",
        },
        3: {
            "report.json": "cd4e5d68014135d4ae69e58c3707a2176b21744339465372a9fe0d8ea5d67bc6",
            "mae_table.csv": "0d90c7af6dbca9f7573296680b5b2da1c764f30e5c4310d37796fd1e05b2b041",
            "improvement_table.csv": "9c5a1f19102d6420d82f654768372ba5e4aae8332db6a14ac24ada4d552134ce",
            "loss_history.csv": "1c13557f16fa54863e6bb2facd600efcba430d97d6474973250afe36d0f778ad",
        },
    },
}
REPORT_STDOUT_DIGESTS = {
    "report_fast": {
        1: "ea01611dda10119b59ea1a42b0cc8ae26e5120cb7a5aaa20ddaecb31c9738713",
        2: "9dcb578f965da3ff55bb959d6254c1882f402402e2e2593b0a3fe76adf5f0e80",
        3: "ccdc4200c0400836e0dcd7786528bb22d11362aae6340e7d1f25df3686ddcc45",
    },
    "report_music": {
        1: "eb9a8c404aae0b5eb407b5e9e2875883a81ef2dcb82401d0db9dc80937c531cd",
        2: "6d1602d0f0ad43930fef0b93fb821e0d7623cbaf8eb00786f1cca222e36aa59b",
        3: "999b7dd855001a4a258e3add06d639d262d451f94326351e28272c9e76d1b5ca",
    },
    "report_rbf": {
        1: "740730a7194602eea62c2aa2152c974263cf111ecf6037ce90f02406d03d2950",
        2: "b795c5a27ed488d74e3b58a76b84b87400a7156a943faee1b2f120577cb22ab8",
        3: "fc402e857c5dc1066809cd059dd6f15d6ae2ef54b49bd2cb24c9c0452e1a5d5b",
    },
}
DATASET_DIGESTS = {
    "rssi": "bb702602bdc17618c0b56599f08587367f7665924e8f327e5907908f38e9eb4e",
    "hybrid": "0d7db555fbc56012d698ed04e9e12eef463f2c6dfd519f1fc14012f6bd579684",
}
MODEL_DIGESTS = {
    "mlp": "d5f186d2e8cf81c257d021c5b9c09d6c1d719cee73c31af4e20623cef6bbf027",
    "rbf": "237f960a60402e35275e2aeadaae41696597753e7cb587bc5d3c5ce9cd97e2b8",
    "cnn": "2d0df042c39a960381824090610d56c4a9d0f6e8c7327fc800341af8e938cad1",
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
    "cnn": {"eval": "3433b1b3775f8d5e1cb306ce0f0a92f7ecccede6794ece03806df39652d6185f",
            "predict": "ea033804e128f036f4ed5faa47cf3d13072e20eb586851dac699914a5b358801"},
}
PREDICT_ROWS = "-52.1,-63.9,-60.2,41.2,-37.8,12.5;-56.2,-66.9,-68.0,36.4,-108.0,-8.5;-63.0,-67.3,-67.1,50.0,-136.3,-45.5"
# `locus fit` on the CSV that FIT_SAMPLES prints.
FIT_SAMPLES = ["simulate", "rssi", "--gamma", "2.5", "--sigma", "3", "--p-r-d0=-40", "--distances", "1,2,4,8",
               "--n", "5", "--seed", "3", "--format", "csv"]
FIT_STDOUT_DIGEST = "220925679e215fc6ab59cb0e6e648bfa21de204335bb2a2c3376267641d3980d"
# `locus locate` with the README's readings for each method, in each standard room.
LOCATE_READINGS = {"trilat": ["--rssi=-52.1,-63.9,-60.2"], "hybrid": ["--rssi=-55.0,-58.2,-61.7", "--aoa=41.2,-37.8,12.5"]}
LOCATE_STDOUT_DIGESTS = {
    "big_classroom": {"trilat": "89b70e16b9b8a712cc616fadb93a6993a136dbd663775972a4f684530b7fd310",
                     "hybrid": "c084ddfadc6316024cb559ff14894a366882a4266731444dd98f14c3abaea5b9"},
    "corridor": {"trilat": "81275471f3f310262384823b462eb934e530cad11f526ff247fdee3c060f2d76",
                "hybrid": "45ae78b447fac695bf2eea302e9e91da6941e7d119fc7c94e6045bc010a5c7fd"},
    "small_classroom": {"trilat": "e7677764109ff323db8dc242c0b8affda2118cd128f0d6f8d4b2d78250d83224",
                       "hybrid": "f452038825fa26a771bbcc648fce63ece6443b15f83edf2241ad06f57cfed0d8"},
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


def _stdout_sha256(capsys, *argv):
    capsys.readouterr()
    _locus(*argv)
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _check_report(tmp_path, monkeypatch, capsys, workload, seed, threads):
    _check_build()
    # Relative paths, so that the out_dir the report prints is the same in every run.
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(workloads.make_config(workload, seed)))
    monkeypatch.setenv("LOCUS_THREADS", threads)
    stdout = _stdout_sha256(capsys, "report", "--config", "config.json", "--out", "out")
    digests = REPORT_DIGESTS[workload][seed]
    assert {name: _sha256(tmp_path / "out" / name) for name in digests} == digests
    assert stdout == REPORT_STDOUT_DIGESTS[workload][seed]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_reports_keep_their_bits(tmp_path, monkeypatch, capsys, workload, threads):
    _check_report(tmp_path, monkeypatch, capsys, workload, 1, threads)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [2, 3])
def test_workload_reports_at_seeds_2_and_3_keep_their_bits(tmp_path, monkeypatch, capsys, seed, workload, threads):
    _check_report(tmp_path, monkeypatch, capsys, workload, seed, threads)


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


def test_fit_stdout_keeps_its_bits(tmp_path, capsys):
    _check_build()
    capsys.readouterr()
    _locus(*FIT_SAMPLES)
    (tmp_path / "samples.csv").write_text(capsys.readouterr().out)
    assert _stdout_sha256(capsys, "fit", "--input", tmp_path / "samples.csv") == FIT_STDOUT_DIGEST


@pytest.mark.parametrize("method", sorted(LOCATE_READINGS))
@pytest.mark.parametrize("room", sorted(LOCATE_STDOUT_DIGESTS))
def test_locate_stdout_keeps_its_bits(tmp_path, capsys, room, method):
    _check_build()
    env = tmp_path / "room.json"
    env.write_text(json.dumps(json_form(standard_environment(room))))
    argv = ["locate", "--method", method, "--gamma", "2.5", "--p-r-d0=-40", *LOCATE_READINGS[method]]
    by_room = _stdout_sha256(capsys, *argv, "--room", room)
    by_env = _stdout_sha256(capsys, *argv, "--env", env)
    assert (by_room, by_env) == (LOCATE_STDOUT_DIGESTS[room][method],) * 2
