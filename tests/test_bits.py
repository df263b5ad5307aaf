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
            "report.json": "99ecf82ea1363744e3897050cf569049c61ae78ebe6d6da3578eed177e2b1dd9",
            "mae_table.csv": "4ec166cc600f7abfdd8eae01a7245a0ca60b149b215a621adba0492c979a5e9e",
            "improvement_table.csv": "7f1d0f7ef63cbd518abe49050851c1cf52a932fdeeb4c5a4f8cd5daca920e341",
            "loss_history.csv": "4fc4b0e2bfa9649cda6f856321630b839733588a969bc465f29c058fb6a3cd25",
        },
        2: {
            "report.json": "6b1bf9bd39db5e0c655aa0b8135f7ffd8f88df0b5e81a004cd8286ffd0bdaab1",
            "mae_table.csv": "275cbdef48e089e6208cb038c50f4923bdbebf317a1ea8d07c0153cd5ec99bcf",
            "improvement_table.csv": "031539ad4ee00e7678ba021efe6e7542082e10bf13e56851b21748b871560fd9",
            "loss_history.csv": "effeac9c4d605b4c8df8d3e58035aecfd65759c7ca692675da87a14d492b1efc",
        },
        3: {
            "report.json": "cdf18f2f02b15326de399dd9275d6f6fc5b471bc3eccc2173e1bfa250a4702ff",
            "mae_table.csv": "ea1ff825f341faf81b68f4b96a93eec01ad6a894e3f65ec15f5dafe032ba7f29",
            "improvement_table.csv": "afd9205396013996b1142dc56014d2ed3bc433d0dd1f529fa7d744bd045caa6b",
            "loss_history.csv": "b6be23d2105c1a0543c6de5d956c0ef9dede2420f709693e541eb661477303af",
        },
    },
    "report_music": {
        1: {
            "report.json": "84a21c3d12250e82baa16ee0ebcefb53b62e1f1982dbae9adbbad253b15e7700",
            "mae_table.csv": "e0dd07ab889c7367a777dbc0a6fb22f91006deece5157031c98c196e170d2cf3",
            "improvement_table.csv": "192a86596b11373576b7fd93c24438df641e07318587367c9907c841dd9feab6",
            "loss_history.csv": "906221950e1086fbb3dcabbefe4581cbaedd993dcb2cd3bce6c583b051c6f376",
        },
        2: {
            "report.json": "46bf0efcc9109483625c5f04a2cf5d91681f4df7d96a3e5b1c25d15411dd0ab9",
            "mae_table.csv": "eddb60dd52481ecfb9f9c4d940a35ec3957ed6f9b8a0aa00b1e455f56bbddfb4",
            "improvement_table.csv": "96916f7919d1632037f261a834c5090b97965d88e12dc429dc4af22714d982a7",
            "loss_history.csv": "fd77106ec617273d48b3f9e544c88f530de22500779f3fa6f5650c0b0d2a2fa0",
        },
        3: {
            "report.json": "8f9bfbfb0b59380f1acea3948ddda264b515ad0399497557fb8a46203a00d4ff",
            "mae_table.csv": "1f233958d354e9e6db05dae4a1cc1694cffbeed583295da340ea16e201cc507d",
            "improvement_table.csv": "f77c2cb455dbac74a94095e9224b77267dd5b545b4616ecc430223fbe3c1e103",
            "loss_history.csv": "43ddf1075dadec1474d29da85695cb14b758efa8a22e3f9eb77e47728cda66d1",
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
        1: "b0aaeacc36bba6e9515e8932d7abb365b59aadb1dcbbde0004a5af8ccad45520",
        2: "47bcfe3b75b4e09ae1ffdfbff95c9b2985f10a870b2699d26b8a97bc2c576705",
        3: "1e8ac305eba62c51f65cc8eeba282d050aeebef55c9ce29554796919530c98e2",
    },
    "report_music": {
        1: "d33db28ee4e5aa3bca12671f91eb150e3081131405ecd6c4dd0ef39245597596",
        2: "cef7d046c0548b1b686dfc65ba5482c0eca214e804d5a054038b8fd2ac60d4f0",
        3: "683a4fb7c94fb9a6fc8294aa1a575baddc1bad81a3deab4e6be1eddb81103277",
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
