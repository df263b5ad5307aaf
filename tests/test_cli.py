import concurrent.futures
import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from locus import cli, pipeline
from locus.channel import ArraySpec, PathLossParams, expected_rssi, json_form, simulate_snapshots
from locus.cli import main
from locus.environment import Point2D, make_environment, true_aoa, true_distance
from locus.pipeline import OutlierPolicy, generate_dataset, load_config

PARAMS = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _config_file(tmp_path, **overrides):
    doc = {
        "seeds": [0],
        "n_per_point": 30,
        "train_fraction": 0.8,
        "models": ["rbf"],
        "layouts": ["rssi", "hybrid"],
        "aoa_mode": "fast",
        "aoa_noise_deg": 2.0,
        "path_loss": {"gamma": 2.5, "sigma": 3.0, "p_r_d0": -40.0},
        "train": {"learning_rate": 0.02, "batch_size": 16, "epochs": 5},
        "rbf_centers": 12,
        "environments": [
            {
                "name": "roomA",
                "length_m": 10,
                "width_m": 8,
                "test_point_seed": 1,
                "n_points": 3,
                "nlos": {"excess_loss_db": 1.0, "aoa_bias_deg_sigma": 1.0},
            }
        ],
        **overrides,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(capsys):
    for argv in ([], ["frobnicate"], ["locate"], ["simulate"], ["train", "--data", "x"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1, argv
        capsys.readouterr()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    for name in ("fit", "simulate", "locate", "aoa", "train", "predict", "eval", "report"):
        assert name in out


def test_runtime_error_exits_2(capsys):
    code, out, err = _run(capsys, ["fit", "--input", "/nonexistent/file.csv"])
    assert code == 2
    assert "locus: error:" in err
    assert out == ""


def test_bad_value_exits_2(capsys):
    code, _, err = _run(
        capsys,
        ["locate", "--room", "corridor", "--gamma", "2.5", "--p-r-d0=-40",
         "--rssi=-50,-60"],
    )
    assert code == 2
    assert "locus: error:" in err


# ---------------------------------------------------------------------------
# fit and simulate rssi


def test_simulate_rssi_csv_then_fit_recovers(capsys, tmp_path):
    code, out, _ = _run(
        capsys,
        ["simulate", "rssi", "--gamma", "2.5", "--p-r-d0=-40",
         "--distances", "1,2,4,8,16", "--n", "3", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "distance_m,rssi_dbm"
    assert len(lines) == 16
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text(out)

    code, out, _ = _run(capsys, ["fit", "--input", str(csv_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == pytest.approx(2.5, abs=1e-6)
    assert doc["sigma"] == pytest.approx(0.0, abs=1e-6)
    assert doc["p_r_d0"] == pytest.approx(-40.0, abs=1e-6)
    assert doc["n_samples"] == 15


def test_simulate_rssi_json_seeded(capsys):
    argv = ["simulate", "rssi", "--gamma", "2.0", "--sigma", "3.0", "--p-r-d0=-40",
            "--distances", "5", "--n", "4", "--seed", "7"]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    code, out2, _ = _run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["samples"]) == 4
    vals = [s["rssi_dbm"] for s in doc["samples"]]
    assert len(set(vals)) == 4  # noise actually applied


def test_stdout_numbers_rounded_to_6_decimals(capsys):
    code, out, _ = _run(
        capsys,
        ["simulate", "rssi", "--gamma", "2.17", "--sigma", "1.3", "--p-r-d0=-41.5",
         "--distances", "3.7", "--n", "5", "--seed", "1"],
    )
    assert code == 0
    for s in json.loads(out)["samples"]:
        assert s["rssi_dbm"] == round(s["rssi_dbm"], 6)


# ---------------------------------------------------------------------------
# locate


def test_locate_trilat_noiseless(capsys):
    env = make_environment("big_classroom", 13.0, 13.0)
    p = Point2D(4.0, 3.0)
    rssi = [expected_rssi(PARAMS, true_distance(env, i, p)) for i in (1, 2, 3)]
    code, out, _ = _run(
        capsys,
        ["locate", "--room", "big_classroom", "--gamma", "2.5", "--p-r-d0=-40",
         "--rssi=" + ",".join(f"{v:.10f}" for v in rssi)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == pytest.approx(4.0, abs=1e-5)
    assert doc["y"] == pytest.approx(3.0, abs=1e-5)
    assert doc["residual"] < 1e-5


def test_locate_hybrid_noiseless(capsys):
    env = make_environment("corridor", 12.0, 4.0)
    p = Point2D(7.0, 1.5)
    rssi = [expected_rssi(PARAMS, true_distance(env, i, p)) for i in (1, 2, 3)]
    aoa = [true_aoa(env, i, p) for i in (1, 2, 3)]
    code, out, _ = _run(
        capsys,
        ["locate", "--method", "hybrid", "--room", "corridor",
         "--gamma", "2.5", "--p-r-d0=-40",
         "--rssi=" + ",".join(f"{v:.10f}" for v in rssi),
         "--aoa=" + ",".join(f"{v:.10f}" for v in aoa)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == pytest.approx(7.0, abs=1e-5)
    assert doc["y"] == pytest.approx(1.5, abs=1e-5)


def test_locate_hybrid_needs_aoa(capsys):
    code, out, err = _run(
        capsys,
        ["locate", "--method", "hybrid", "--room", "corridor",
         "--gamma", "2.5", "--p-r-d0=-40", "--rssi=-50,-55,-60"],
    )
    assert code == 1
    assert out == ""
    assert "--aoa" in err


def test_locate_per_anchor_params_file(capsys, tmp_path):
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(
        [{"gamma": 2.5, "sigma": 0.0, "p_r_d0": -40.0}] * 3
    ))
    env = make_environment("small_classroom", 9.0, 7.0)
    p = Point2D(3.0, 2.0)
    rssi = [expected_rssi(PARAMS, true_distance(env, i, p)) for i in (1, 2, 3)]
    code, out, _ = _run(
        capsys,
        ["locate", "--room", "small_classroom", "--params", str(params_path),
         "--rssi=" + ",".join(f"{v:.10f}" for v in rssi)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == pytest.approx(3.0, abs=1e-5)


@pytest.mark.parametrize("method", [[], ["--method", "hybrid", "--aoa=30,-40,120"]], ids=["trilat", "hybrid"])
def test_locate_prints_one_fix_for_every_form_of_one_shared_law(capsys, tmp_path, method):
    """--gamma, a --params object and a --params list holding that law three times are one input."""
    law = {"gamma": 2.5, "sigma": 0.0, "p_r_d0": -40.0}
    (tmp_path / "one.json").write_text(json.dumps(law))
    (tmp_path / "three.json").write_text(json.dumps([law] * 3))
    argv = ["locate", "--room", "small_classroom", "--rssi=-52.1,-63.9,-60.2", *method]
    forms = [["--gamma", "2.5", "--p-r-d0=-40"], ["--params", str(tmp_path / "one.json")],
             ["--params", str(tmp_path / "three.json")]]
    gamma, one, three = (_run(capsys, [*argv, *form]) for form in forms)
    assert gamma[0] == 0 and gamma[2] == ""
    assert one == gamma and three == gamma


# ---------------------------------------------------------------------------
# flag rules: a missing, conflicting or dead flag is a usage error

LOCATE = ["locate", "--rssi=-50,-55,-60"]
GAMMA = ["--gamma", "2.5", "--p-r-d0=-40"]

# (case, argv with {file} and {out} placeholders, exit code, words the error must name)
BAD_FLAGS = [
    ("locate_no_room", [*LOCATE, *GAMMA], 1, ["--env", "--room", "required"]),
    ("locate_env_and_room", [*LOCATE, *GAMMA, "--env", "{file}", "--room", "corridor"], 1,
     ["--room", "not allowed with argument --env"]),
    ("locate_no_params", [*LOCATE, "--room", "corridor"], 1, ["--params", "--gamma", "required"]),
    ("locate_params_and_gamma", [*LOCATE, "--room", "corridor", "--params", "{file}", *GAMMA], 1,
     ["--gamma", "not allowed with argument --params"]),
    ("locate_gamma_alone", [*LOCATE, "--room", "corridor", "--gamma", "2.5"], 1, ["--gamma and --p-r-d0"]),
    ("locate_p_r_d0_with_params", [*LOCATE, "--room", "corridor", "--params", "{file}", "--p-r-d0=-40"], 1,
     ["--gamma and --p-r-d0"]),
    ("locate_d0_with_params", [*LOCATE, "--room", "corridor", "--params", "{file}", "--d0", "5"], 1,
     ["--d0 goes only with --gamma and --p-r-d0"]),
    ("locate_hybrid_no_aoa", [*LOCATE, *GAMMA, "--room", "corridor", "--method", "hybrid"], 1,
     ["--method hybrid needs --aoa"]),
    ("locate_sigma", [*LOCATE, *GAMMA, "--room", "corridor", "--sigma", "3"], 1,
     ["unrecognized arguments: --sigma"]),
    ("predict_no_rows", ["predict", "--model", "{file}"], 1, ["--features", "--input", "required"]),
    ("predict_features_and_input", ["predict", "--model", "{file}", "--features=1,2,3", "--input", "{file}"], 1,
     ["--input", "not allowed with argument --features"]),
    ("rssi_negative_seed", ["simulate", "rssi", *GAMMA, "--distances=1,2", "--seed=-1"], 1,
     ["argument --seed: must be an integer >= 0, got '-1'"]),
    ("rssi_zero_n", ["simulate", "rssi", *GAMMA, "--distances=1,2", "--n", "0"], 1,
     ["argument --n: must be an integer >= 1, got '0'"]),
    ("rssi_negative_n", ["simulate", "rssi", *GAMMA, "--distances=1,2", "--n=-3", "--format", "csv"], 1,
     ["argument --n: must be an integer >= 1, got '-3'"]),
    ("snapshots_negative_seed", ["simulate", "snapshots", "--angles=10", "--seed=-2"], 1, ["argument --seed"]),
    ("dataset_negative_seed", ["simulate", "dataset", "--config", "{file}", "--env-name", "roomA",
                               "--out", "{out}", "--seed=-3"], 1, ["argument --seed"]),
    ("train_negative_seed", ["train", "--data", "{file}", "--model", "mlp", "--out", "{out}", "--seed=-1"], 1,
     ["argument --seed"]),
    ("train_negative_split_seed", ["train", "--data", "{file}", "--model", "mlp", "--out", "{out}",
                                   "--split-seed=-1"], 1, ["argument --split-seed"]),
    ("train_zero_rbf_centers", ["train", "--data", "{file}", "--model", "rbf", "--out", "{out}",
                                "--rbf-centers", "0"], 1, ["argument --rbf-centers: must be an integer >= 1, got '0'"]),
    ("dataset_zero_per_point", ["simulate", "dataset", "--config", "{file}", "--env-name", "roomA",
                                "--out", "{out}", "--n-per-point", "0"], 2,
     ["n_per_point must be at least 1, got 0"]),
    ("train_negative_ridge", ["train", "--data", "{file}", "--model", "rbf", "--out", "{out}", "--ridge=-1"], 1,
     ["argument --ridge: must be a finite number >= 0, got '-1'"]),
    ("train_nan_ridge", ["train", "--data", "{file}", "--model", "rbf", "--out", "{out}", "--ridge", "nan"], 1,
     ["argument --ridge: must be a finite number >= 0, got 'nan'"]),
    ("train_inf_ridge", ["train", "--data", "{file}", "--model", "rbf", "--out", "{out}", "--ridge", "inf"], 1,
     ["argument --ridge: must be a finite number >= 0, got 'inf'"]),
    ("locate_inf_rssi", ["locate", "--room", "corridor", *GAMMA, "--rssi=inf,-60,-60"], 2,
     ["error: rssi readings must be finite, got inf"]),
    ("locate_hybrid_nan_rssi", ["locate", "--method", "hybrid", "--room", "corridor", *GAMMA,
                                "--rssi=-50,nan,-60", "--aoa=10,20,30"], 2,
     ["error: rssi readings must be finite, got nan"]),
    ("train_zero_learning_rate", ["train", "--data", "{file}", "--model", "mlp", "--out", "{out}",
                                  "--learning-rate", "0"], 2, ["error: learning_rate must be above 0, got 0.0"]),
    ("locate_overflowing_rssi", ["locate", "--room", "corridor", *GAMMA, "--rssi=-100000,-60,-60"], 2,
     ["error: rssi reading -100000.0 implies a distance beyond the float range"]),
    ("locate_hybrid_overflowing_rssi", ["locate", "--method", "hybrid", "--room", "corridor", "--gamma", "0.0001",
                                        "--p-r-d0=-40", "--rssi=-60,-60,-60", "--aoa=10,20,30"], 2,
     ["error: rssi reading -60.0 implies a distance beyond the float range"]),
    ("locate_inf_gamma", ["locate", "--room", "corridor", "--gamma", "inf", "--p-r-d0=-40", "--rssi=-50,-55,-60"], 2,
     ["error: gamma must be a finite number, got inf"]),
    ("rssi_nan_p_r_d0", ["simulate", "rssi", "--gamma", "2.5", "--p-r-d0=nan", "--distances=1,2"], 2,
     ["error: p_r_d0 must be a finite number, got nan"]),
    ("snapshots_inf_spacing", ["simulate", "snapshots", "--angles=10", "--spacing", "inf"], 2,
     ["error: spacing_wavelengths must be a finite number, got inf"]),
    ("train_inf_learning_rate", ["train", "--data", "{file}", "--model", "rbf", "--out", "{out}",
                                 "--learning-rate", "inf"], 2, ["error: learning_rate must be a finite number, got inf"]),
    ("dataset_unknown_room", ["simulate", "dataset", "--config", "{file}", "--env-name", "zz", "--out", "{out}"], 2,
     ["error: environment 'zz' not in config"]),
    ("rssi_overflowing_gamma", ["simulate", "rssi", "--gamma", "1e308", "--p-r-d0=-40", "--distances=10"], 2,
     ["error: gamma 1e+308 gives a non-finite mean RSSI at distance 10.0"]),
    ("rssi_overflowing_gamma_csv", ["simulate", "rssi", "--gamma", "1e308", "--p-r-d0=-40", "--distances=10",
                                    "--format", "csv"], 2,
     ["error: gamma 1e+308 gives a non-finite mean RSSI at distance 10.0"]),
    ("rssi_overflowing_sigma", ["simulate", "rssi", *GAMMA, "--sigma", "1e308", "--distances=10", "--n", "40"], 2,
     ["error: sigma 1e+308 gives a non-finite RSSI draw at distance 10.0"]),
    ("rssi_overflowing_sigma_csv", ["simulate", "rssi", *GAMMA, "--sigma", "1e308", "--distances=10", "--n", "40",
                                    "--format", "csv"], 2,
     ["error: sigma 1e+308 gives a non-finite RSSI draw at distance 10.0"]),
]


@pytest.mark.parametrize("case,argv,want,words", BAD_FLAGS, ids=[c[0] for c in BAD_FLAGS])
def test_bad_flags_fail_naming_the_flag(capsys, tmp_path, case, argv, want, words):
    config, out_path = _config_file(tmp_path), tmp_path / "out.json"
    try:
        code = main([a.format(file=config, out=out_path) for a in argv])
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    assert code == want
    assert out == ""
    for word in words:
        assert word in err, (word, err)
    assert not out_path.exists()


def test_locate_gamma_without_d0_uses_the_path_loss_d0(capsys):
    """--d0 is optional with --gamma: left out, it is PathLossParams.d0."""
    argv = ["locate", "--room", "small_classroom", *GAMMA, "--rssi=-52.1,-63.9,-60.2"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert _run(capsys, [*argv, "--d0", str(PathLossParams.d0)]) == (0, out, "")
    assert _run(capsys, [*argv, "--d0", "2"])[1] != out


# ---------------------------------------------------------------------------
# snapshots and aoa


def test_snapshots_to_aoa_roundtrip(capsys, tmp_path):
    snap = tmp_path / "snap.csv"
    code, out, _ = _run(
        capsys,
        ["simulate", "snapshots", "--m", "8", "--snapshots", "128",
         "--angles=17.3", "--snr-db", "20", "--seed", "3", "--out", str(snap)],
    )
    assert code == 0
    assert "wrote" in out

    spectrum = tmp_path / "spec.csv"
    code, out, _ = _run(
        capsys,
        ["aoa", "--input", str(snap), "--k", "1", "--grid-step", "0.5",
         "--spectrum", str(spectrum)],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["angles_deg"]) == 1
    assert doc["angles_deg"][0] == pytest.approx(17.3, abs=0.3)
    lines = spectrum.read_text().strip().splitlines()
    assert lines[0] == "angle_deg,power"
    assert len(lines) == 1 + 361  # half-degree grid over [-90, 90]


def test_aoa_grid_step_must_divide_180(capsys, tmp_path):
    snap = tmp_path / "snap.csv"
    assert _run(capsys, ["simulate", "snapshots", "--angles=17.3", "--snapshots", "32", "--out", str(snap)])[0] == 0
    for step, why in (("1.1", "divisor of 180"), ("7", "divisor of 180"), ("0", "divisor of 180"),
                      ("nan", "divisor of 180"), ("0.001", "at least 0.01 degrees, got 0.001")):
        with pytest.raises(SystemExit) as e:
            main(["aoa", "--input", str(snap), "--grid-step", step])
        out, err = capsys.readouterr()
        assert e.value.code == 1, step
        assert out == "" and "--grid-step" in err and why in err, err
    code, out, _ = _run(capsys, ["aoa", "--input", str(snap), "--grid-step", "0.25"])
    assert code == 0 and json.loads(out)["angles_deg"][0] == pytest.approx(17.3, abs=0.5)


def test_environment_file_is_read_strictly(capsys, tmp_path):
    doc = json_form(make_environment("room", 10.0, 8.0, [Point2D(3.0, 4.0)]))
    for path, value, key in ((("anchors", 0, "zz"), 1, "anchors[0].zz"), (("test_points", 0, "y"), "4", "test_points[0].y"),
                             (("anchors", 1, "id"), True, "anchors[1].id"), (("name",), 7, "name"),
                             (("anchors", 0, "id"), 4, "error: anchors[0].id must be 1, 2 or 3, got 4")):
        bad = copy.deepcopy(doc)
        _set(bad, path, value)
        env = tmp_path / "env.json"
        env.write_text(json.dumps(bad))
        code, out, err = _run(capsys, ["locate", "--env", str(env), "--gamma", "2.5", "--p-r-d0", "-40", "--rssi=-60,-60,-60"])
        assert code == 2 and out == "" and key in err, (key, err)
    env.write_text(json.dumps(doc))
    assert _run(capsys, ["locate", "--env", str(env), "--gamma", "2.5", "--p-r-d0", "-40", "--rssi=-60,-60,-60"])[0] == 0


# ---------------------------------------------------------------------------
# dataset / train / predict / eval chain


def test_dataset_train_predict_eval_chain(capsys, tmp_path):
    cfg = _config_file(tmp_path)
    ds_path = tmp_path / "ds.json"
    code, out, _ = _run(
        capsys,
        ["simulate", "dataset", "--config", cfg, "--env-name", "roomA",
         "--layout", "hybrid", "--seed", "3", "--out", str(ds_path)],
    )
    assert code == 0
    assert "90 samples" in out  # 3 points x 30

    model_path = tmp_path / "model.json"
    code, out, _ = _run(
        capsys,
        ["train", "--data", str(ds_path), "--model", "rbf", "--out", str(model_path),
         "--rbf-centers", "12", "--seed", "1", "--split-seed", "2"],
    )
    assert code == 0
    train_doc = json.loads(out)
    assert train_doc["model"] == "rbf"
    assert train_doc["test_mae_mm"] > 0

    ds_doc = json.loads(ds_path.read_text())
    rows = [",".join(str(v) for v in s["features"]) for s in ds_doc["samples"][:2]]
    code, out, _ = _run(
        capsys, ["predict", "--model", str(model_path), "--features=" + ";".join(rows)]
    )
    assert code == 0
    preds = json.loads(out)["predictions"]
    assert len(preds) == 2
    for px, py in preds:
        assert math.isfinite(px) and math.isfinite(py)

    code, out, _ = _run(capsys, ["eval", "--model", str(model_path), "--data", str(ds_path)])
    assert code == 0
    eval_doc = json.loads(out)
    assert eval_doc["overall_mae_mm"] == pytest.approx(train_doc["test_mae_mm"], abs=1e-6)
    assert eval_doc["n_test"] == 18  # 3 points x round(0.2 * 30)


PINNED_TRAIN_EVAL = {
    "rbf": (["--rbf-centers", "12"], """{
  "final_loss": 0.003841,
  "model": "rbf",
  "out": "OUT",
  "steps": 1,
  "test_mae_mm": 261.039421,
  "train_mae_mm": 192.150295
}
""", """{
  "environment": "roomA",
  "layout": "hybrid",
  "model_family": "rbf",
  "n_test": 18,
  "overall_mae_mm": 261.039421,
  "per_point_mae_mm": {
    "0": 322.733799,
    "1": 280.181401,
    "2": 180.203064
  }
}
"""),
    "mlp": (["--epochs", "3", "--batch-size", "16"], """{
  "final_loss": 0.164169,
  "model": "mlp",
  "out": "OUT",
  "steps": 15,
  "test_mae_mm": 1338.960225,
  "train_mae_mm": 1329.884503
}
""", """{
  "environment": "roomA",
  "layout": "hybrid",
  "model_family": "mlp",
  "n_test": 18,
  "overall_mae_mm": 1338.960225,
  "per_point_mae_mm": {
    "0": 284.337126,
    "1": 2057.571178,
    "2": 1674.972372
  }
}
"""),
}


@pytest.mark.parametrize("model", sorted(PINNED_TRAIN_EVAL))
def test_train_and_eval_print_the_pinned_text(capsys, tmp_path, model):
    """The keys, values and rounding of `train` and `eval` stdout, as written
    out here, on a small dataset."""
    extra, want_train, want_eval = PINNED_TRAIN_EVAL[model]
    ds_path, model_path = tmp_path / "ds.json", tmp_path / "model.json"
    _run(capsys, ["simulate", "dataset", "--config", _config_file(tmp_path), "--env-name", "roomA",
                  "--layout", "hybrid", "--seed", "3", "--out", str(ds_path)])
    code, out, _ = _run(capsys, ["train", "--data", str(ds_path), "--model", model, "--out", str(model_path),
                                 "--seed", "1", "--split-seed", "2", *extra])
    assert code == 0 and out == want_train.replace("OUT", str(model_path))
    code, out, _ = _run(capsys, ["eval", "--model", str(model_path), "--data", str(ds_path)])
    assert code == 0 and out == want_eval


def test_train_cnn(capsys, tmp_path):
    cfg = _config_file(tmp_path)
    ds_path = tmp_path / "ds.json"
    _run(capsys, ["simulate", "dataset", "--config", cfg, "--env-name", "roomA",
                  "--seed", "3", "--out", str(ds_path)])
    code, out, _ = _run(
        capsys,
        ["train", "--data", str(ds_path), "--model", "cnn", "--out", str(tmp_path / "cnn.json"),
         "--epochs", "3", "--batch-size", "16", "--seed", "1"],
    )
    assert code == 0
    doc = json.loads(out)
    n_train = 3 * round(0.8 * 30)  # 3 points x 30 samples, split per point
    assert doc["steps"] == 3 * math.ceil(n_train / 16)
    assert math.isfinite(doc["test_mae_mm"])


def test_simulate_dataset_uses_config_outlier_section(capsys, tmp_path):
    cfg = _config_file(tmp_path, outlier={"rssi_sigma_multiple": 2.0, "aoa_threshold_deg": 10.0})
    ds_path = tmp_path / "ds.json"
    code, out, _ = _run(
        capsys,
        ["simulate", "dataset", "--config", cfg, "--env-name", "roomA", "--seed", "3",
         "--out", str(ds_path)],
    )
    assert code == 0
    spec = load_config(cfg).envs[0]
    want = generate_dataset(spec.env, spec.params, spec.nlos, 30, seed=3,
                            outlier=OutlierPolicy(rssi_sigma_multiple=2.0))
    default = generate_dataset(spec.env, spec.params, spec.nlos, 30, seed=3)
    assert want.rejects != default.rejects
    assert json.loads(ds_path.read_text())["rejects"] == want.rejects
    assert f"{want.rejects} redraws" in out


@pytest.mark.parametrize("aoa_mode", ["fast", "music"])
def test_rssi_dataset_is_the_hybrid_draw_without_its_angles(capsys, tmp_path, aoa_mode):
    """At one seed both layouts hold the same draws, redraw count and points."""
    # A tight screen, so that both the RSSI and the angle thresholds redraw rows.
    cfg = _config_file(tmp_path, aoa_mode=aoa_mode, n_per_point=12,
                       outlier={"rssi_sigma_multiple": 2.0, "aoa_threshold_deg": 4.0})
    docs = {}
    for layout in ("rssi", "hybrid"):
        path = tmp_path / f"{layout}.json"
        code, _, _ = _run(capsys, ["simulate", "dataset", "--config", cfg, "--env-name", "roomA",
                                   "--layout", layout, "--seed", "4", "--out", str(path)])
        assert code == 0
        docs[layout] = json.loads(path.read_text())
    hybrid = docs["hybrid"]
    assert hybrid["rejects"] > 0
    assert docs["rssi"] == {**hybrid, "layout": "rssi",
                            "samples": [{**s, "features": s["features"][:3]} for s in hybrid["samples"]]}


def test_train_with_overflowing_predictions_writes_no_model(capsys, tmp_path):
    cfg = _config_file(tmp_path)
    ds_path, model_path = tmp_path / "ds.json", tmp_path / "model.json"
    _run(capsys, ["simulate", "dataset", "--config", cfg, "--env-name", "roomA", "--out", str(ds_path)])
    code, out, err = _run(capsys, ["train", "--data", str(ds_path), "--model", "mlp", "--out", str(model_path),
                                   "--learning-rate", "1e300", "--epochs", "1", "--batch-size", "1000"])
    assert code == 2 and out == ""
    assert err == "locus: error: training failed: mlp predictions on the hybrid layout are not finite\n"
    assert not model_path.exists()


def test_predict_from_csv_with_header(capsys, tmp_path):
    cfg = _config_file(tmp_path)
    ds_path = tmp_path / "ds.json"
    _run(capsys, ["simulate", "dataset", "--config", cfg, "--env-name", "roomA",
                  "--layout", "rssi", "--n-per-point", "10", "--out", str(ds_path)])
    model_path = tmp_path / "m.json"
    _run(capsys, ["train", "--data", str(ds_path), "--model", "rbf",
                  "--out", str(model_path), "--rbf-centers", "5"])
    ds_doc = json.loads(ds_path.read_text())
    csv_path = tmp_path / "feat.csv"
    lines = ["rssi1,rssi2,rssi3"]
    lines += [",".join(str(v) for v in s["features"]) for s in ds_doc["samples"][:3]]
    csv_path.write_text("\n".join(lines) + "\n")
    code, out, _ = _run(
        capsys,
        ["predict", "--model", str(model_path), "--input", str(csv_path),
         "--format", "csv"],
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "x_m,y_m"
    assert len(rows) == 4


def test_model_file_keeps_full_precision(capsys, tmp_path):
    cfg = _config_file(tmp_path)
    ds_path = tmp_path / "ds.json"
    _run(capsys, ["simulate", "dataset", "--config", cfg, "--env-name", "roomA",
                  "--layout", "rssi", "--n-per-point", "10", "--out", str(ds_path)])
    model_path = tmp_path / "m.json"
    _run(capsys, ["train", "--data", str(ds_path), "--model", "mlp",
                  "--out", str(model_path), "--epochs", "2"])
    doc = json.loads(model_path.read_text())
    weights = np.array(doc["params"]["w0"]["data"], dtype=float)
    # full precision weights essentially never all collapse onto the 1e-6 grid
    assert any(w != round(w, 6) for w in weights)


# ---------------------------------------------------------------------------
# report


def test_report_writes_tables(capsys, tmp_path):
    cfg = _config_file(tmp_path)
    out_dir = tmp_path / "rep"
    code, out, _ = _run(capsys, ["report", "--config", cfg, "--out", str(out_dir)])
    assert code == 0
    doc = json.loads(out)
    assert "roomA" in doc["mae_table_mm"]
    assert set(doc["mae_table_mm"]["roomA"]) == {"rbf_rssi", "rbf_hybrid"}
    for name in ("report.json", "mae_table.csv", "improvement_table.csv", "loss_history.csv"):
        assert (out_dir / name).exists(), name
    report = json.loads((out_dir / "report.json").read_text())
    for row in report["mae_table_mm"].values():
        for v in row.values():
            assert v == round(v, 6)


def test_report_diverging_training_exits_2(capsys, tmp_path):
    cfg = _config_file(
        tmp_path, models=["mlp"], train={"learning_rate": 1e3, "batch_size": 16, "epochs": 50}
    )
    out_dir = tmp_path / "rep"
    code, out, err = _run(capsys, ["report", "--config", cfg, "--out", str(out_dir)])
    assert code == 2
    assert out == ""
    assert re.search(
        r"roomA seed 0 layout rssi: mlp training diverged: non-finite batch loss at step \d+", err
    )
    assert not (out_dir / "report.json").exists()


def test_report_overflowing_predictions_exit_2_naming_the_cell(capsys, tmp_path):
    """One huge SGD step leaves a finite loss history but predictions that
    overflow: the sweep stops before writing any report file."""
    cfg = _config_file(tmp_path, models=["mlp"], train={"learning_rate": 1e300, "batch_size": 1000, "epochs": 1})
    out_dir = tmp_path / "rep"
    code, out, err = _run(capsys, ["report", "--config", cfg, "--out", str(out_dir)])
    assert code == 2 and out == ""
    assert "locus: error: roomA seed 0 layout rssi: mlp predictions on the rssi layout are not finite" in err, err
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_report_bad_locus_threads_exits_1(capsys, tmp_path, monkeypatch, value):
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(pipeline, "_run_cells", no_cell)
    monkeypatch.setenv("LOCUS_THREADS", value)
    out_dir = tmp_path / "rep"
    code, _, err = _run(capsys, ["report", "--config", _config_file(tmp_path), "--out", str(out_dir)])
    assert code == 1
    assert "LOCUS_THREADS" in err and repr(value) in err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# malformed configs fail by name before any cell runs

# (case, path of the key in the config, value, the key as stderr names it)
BAD_CONFIGS = [
    ("unknown-top", ("n_per_piont",), 30, "n_per_piont"),
    ("unknown-train", ("train", "epoch"), 5, "train.epoch"),
    ("unknown-music", ("music", "snapshot"), 64, "music.snapshot"),
    ("unknown-outlier", ("outlier", "rssi_sigma"), 2.0, "outlier.rssi_sigma"),
    ("unknown-room", ("environments", 0, "n_piont"), 3, "environments[0].n_piont"),
    ("unknown-nlos", ("environments", 0, "nlos", "excess_loss"), 1.0, "environments[0].nlos.excess_loss"),
    ("nan", ("aoa_noise_deg",), math.nan, "aoa_noise_deg"),
    ("infinity", ("music", "snr_db"), math.inf, "music.snr_db"),
    ("snr_db_noise_overflow", ("music", "snr_db"), -4000,
     "music.snr_db must give a noise power (-snr_db dB) within the float range, got -4000.0"),
    ("nan-string", ("train", "learning_rate"), "nan", "train.learning_rate"),
    ("nan-nlos", ("environments", 0, "nlos", "excess_loss_db"), math.nan, "environments[0].nlos.excess_loss_db"),
    ("n_per_point", ("n_per_point",), 0, "n_per_point"),
    ("train_fraction", ("train_fraction",), 1.0, "train_fraction"),
    ("rbf_centers", ("rbf_centers",), 0, "rbf_centers"),
    ("learning_rate", ("train", "learning_rate"), -0.1, "train.learning_rate"),
    ("epochs", ("train", "epochs"), 0, "train.epochs"),
    ("seeds-negative", ("seeds",), [0, -1], "seeds"),
    ("seeds-empty", ("seeds",), [], "seeds"),
    ("grid_step_deg", ("music", "grid_step_deg"), 0.0, "music.grid_step_deg"),
    ("grid_step_off_90", ("music", "grid_step_deg"), 1.1, "music.grid_step_deg"),
    ("grid_step_too_fine", ("music", "grid_step_deg"), 0.001, "music.grid_step_deg must be at least 0.01"),
    ("n_points", ("environments", 0, "n_points"), 0, "environments[0].n_points"),
    ("seeds-repeated", ("seeds",), [0, 0],
     "seeds must be a nonempty list of distinct nonnegative integers, got [0, 0]"),
    ("models-repeated", ("models",), ["rbf", "rbf"],
     "models must be a nonempty list of distinct names from ['mlp', 'rbf', 'cnn'], got ['rbf', 'rbf']"),
    ("layouts-repeated", ("layouts",), ["rssi", "hybrid", "hybrid"],
     "layouts must be a nonempty list of distinct names from ['rssi', 'hybrid'], got ['rssi', 'hybrid', 'hybrid']"),
    ("learning_rate_zero", ("train", "learning_rate"), 0, "train.learning_rate must be above 0, got 0.0"),
    ("seeds-number", ("seeds",), 3, "seeds must be a list, got 3"),
    ("aoa_mode", ("aoa_mode",), "fancy", "aoa_mode must be 'fast' or 'music'"),
    ("path_loss-one-entry", ("path_loss",), [{"gamma": 2.5, "sigma": 3.0, "p_r_d0": -40.0}],
     "path_loss needs 3 entries, one per anchor, got 1"),
    ("environments-number", ("environments",), 5, "environments must be a list of rooms, got 5"),
    ("room-without-test-points", ("environments", 0), {
        "name": "roomA", "length_m": 10, "width_m": 8, "test_points": [],
        "anchors": [{"id": 1, "x": 0, "y": 0, "sx": 1, "sy": 1}, {"id": 2, "x": 10, "y": 0, "sx": 1, "sy": -1},
                    {"id": 3, "x": 0, "y": 8, "sx": -1, "sy": -1}]},
     "environments[0].test_points must hold at least one point, got []"),
]


def _set_key(doc, path, value):
    for key in path[:-1]:
        doc = doc.setdefault(key, {}) if isinstance(key, str) else doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("command", ["report", "simulate dataset"])
@pytest.mark.parametrize("case,path,value,key", BAD_CONFIGS, ids=[c[0] for c in BAD_CONFIGS])
def test_bad_config_exits_2_naming_the_key(capsys, tmp_path, monkeypatch, command, case, path, value, key):
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(pipeline, "_run_cells", no_cell)
    doc = json.loads(open(_config_file(tmp_path)).read())
    _set_key(doc, path, value)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {
        "report": ["report", "--config", str(cfg), "--out", str(out)],
        "simulate dataset": ["simulate", "dataset", "--config", str(cfg), "--env-name", "roomA", "--out", str(out)],
    }[command]
    code, stdout, err = _run(capsys, argv)
    assert code == 2, err
    assert stdout == ""
    assert "locus: error: " in err and key in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "simulate dataset"])
def test_config_refuses_a_repeated_room_name(capsys, tmp_path, monkeypatch, command):
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(pipeline, "_run_cells", no_cell)
    doc = json.loads(open(_config_file(tmp_path)).read())
    doc["environments"] = [{"name": "A", "length_m": 9, "width_m": 7},
                           {"name": "A", "length_m": 13, "width_m": 13}]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {
        "report": ["report", "--config", str(cfg), "--out", str(out)],
        "simulate dataset": ["simulate", "dataset", "--config", str(cfg), "--env-name", "A", "--out", str(out)],
    }[command]
    code, stdout, err = _run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert err == "locus: error: environments[1].name 'A' repeats environments[0].name\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "simulate dataset"])
def test_config_must_be_a_json_object(capsys, tmp_path, command):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    argv = {"report": ["report"], "simulate dataset": ["simulate", "dataset", "--env-name", "roomA"]}[command]
    code, stdout, err = _run(capsys, [*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert (code, stdout, err) == (2, "", "locus: error: the config must be a JSON object, got [1, 2]\n")
    assert not (tmp_path / "out").exists()


def test_simulate_snapshots_refuses_an_angle_outside_the_field_of_view(capsys, tmp_path):
    out = tmp_path / "snap.csv"
    code, stdout, err = _run(capsys, ["simulate", "snapshots", "--angles=95", "--out", str(out)])
    assert code == 2 and stdout == ""
    assert err == "locus: error: source angle must lie in [-90, 90] deg, got 95.0\n"
    assert not out.exists()


def test_simulate_snapshots_rejects_nan_snr(capsys, tmp_path):
    out = tmp_path / "snap.csv"
    argv = ["simulate", "snapshots", "--angles=10", "--snapshots", "16", "--out", str(out)]
    code, _, err = _run(capsys, argv + ["--snr-db", "nan"])
    assert code == 2
    assert "noise_power_db" in err
    assert not out.exists()
    code, _, _ = _run(capsys, argv + ["--snr-db", "inf"])
    assert code == 0 and out.exists()


@pytest.mark.parametrize("snr", ["-inf", "-4000"])
def test_simulate_snapshots_rejects_an_snr_whose_noise_power_overflows(capsys, tmp_path, snr):
    out = tmp_path / "snap.csv"
    code, stdout, err = _run(capsys, ["simulate", "snapshots", "--angles=10", "--snr-db=" + snr, "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err == f"locus: error: noise_power_db must be -inf or a number whose power is a finite float, got {-float(snr)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "simulate dataset"])
def test_an_overflowing_path_loss_law_fails_naming_gamma(capsys, tmp_path, command):
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, path_loss={"gamma": 1e308, "sigma": 3.0, "p_r_d0": -40.0})
    argv = {
        "report": ["report", "--config", cfg, "--out", str(out)],
        "simulate dataset": ["simulate", "dataset", "--config", cfg, "--env-name", "roomA", "--out", str(out)],
    }[command]
    code, stdout, err = _run(capsys, argv)
    assert (code, stdout) == (2, "")
    assert "error: gamma 1e+308 gives a non-finite mean RSSI at distance" in err, err
    assert not out.exists()


SIGMA_LIMIT_ERROR = ("locus: error: sigma 1e+308 of anchor 1 in roomA gives an outlier screen limit "
                     "(rssi_sigma_multiple 3.0 * sigma) beyond the float range\n")


@pytest.mark.parametrize("command", ["report", "simulate dataset"])
def test_a_sigma_whose_screen_limit_overflows_fails_naming_sigma(capsys, tmp_path, command):
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, n_per_point=5, path_loss={"gamma": 2.5, "sigma": 1e308, "p_r_d0": -40.0})
    argv = {
        "report": ["report", "--config", cfg, "--out", str(out)],
        "simulate dataset": ["simulate", "dataset", "--config", cfg, "--env-name", "roomA", "--out", str(out)],
    }[command]
    assert _run(capsys, argv) == (2, "", SIGMA_LIMIT_ERROR)
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_sigma_near_the_float_range_draws_only_finite_rows(capsys, tmp_path):
    """At sigma 5e307 the screen limit (3 sigma, 1.5e308) is finite, but a
    shadowing draw past about 3.6 sigma is not: this config's draw has one,
    whose row the screen rejects and redraws, with no numpy overflow warning."""
    out = tmp_path / "ds.json"
    cfg = _config_file(tmp_path, n_per_point=50, path_loss={"gamma": 2.5, "sigma": 5e307, "p_r_d0": -40.0})
    code, stdout, err = _run(capsys, ["simulate", "dataset", "--config", cfg, "--env-name", "roomA", "--out", str(out)])
    assert (code, err) == (0, "")
    doc = json.loads(out.read_text())
    features = np.array([s["features"] for s in doc["samples"]])
    assert features.shape == (150, 6) and np.isfinite(features).all() and doc["rejects"] >= 1
    assert stdout == f"wrote {out} (150 samples, {doc['rejects']} redraws)\n"


def test_an_overflowing_shadowing_draw_writes_no_dataset(tmp_path):
    """Run as a child, outside the test suite's RuntimeWarning filter: the
    refusal comes before any draw, so no numpy overflow warning reaches stderr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = tmp_path / "ds.json"
    cfg = _config_file(tmp_path, n_per_point=5, path_loss={"gamma": 2.5, "sigma": 1e308, "p_r_d0": -40.0})
    proc = subprocess.run(
        [sys.executable, "-m", "locus.cli", "simulate", "dataset", "--config", cfg, "--env-name", "roomA",
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", SIGMA_LIMIT_ERROR)
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n_per_point, train_fraction", [(1, 0.8), (2, 0.9)])
def test_report_refuses_a_split_with_an_empty_side_before_any_cell(capsys, tmp_path, monkeypatch, threads,
                                                                    n_per_point, train_fraction):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell was drawn or a worker started")

    monkeypatch.setattr(pipeline, "generate_dataset", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setenv("LOCUS_THREADS", threads)
    out = tmp_path / "out"
    cfg = _config_file(tmp_path, seeds=[0, 1], n_per_point=n_per_point, train_fraction=train_fraction)
    code, stdout, err = _run(capsys, ["report", "--config", cfg, "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err == (f"locus: error: train_fraction {train_fraction} of n_per_point {n_per_point} "
                   "leaves an empty train or test split at every test point\n")
    assert not out.exists()


@pytest.mark.parametrize("n_per_point", ["1", "2"])
def test_simulate_dataset_draws_a_count_that_a_sweep_could_not_split(capsys, tmp_path, n_per_point):
    """The split rule is the sweep's: a dataset of any positive count is drawn."""
    out = tmp_path / "ds.json"
    cfg = _config_file(tmp_path, train_fraction=0.9)
    argv = ["simulate", "dataset", "--config", cfg, "--env-name", "roomA", "--n-per-point", n_per_point, "--out", str(out)]
    code, stdout, _ = _run(capsys, argv)
    assert code == 0 and stdout.startswith(f"wrote {out} ({3 * int(n_per_point)} samples")


# ---------------------------------------------------------------------------
# malformed model and dataset files fail by name


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """A hybrid dataset (3 points x 10 samples) and an MLP trained on it."""
    tmp = tmp_path_factory.mktemp("good")
    ds_path, model_path = tmp / "ds.json", tmp / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "dataset", "--config", _config_file(tmp), "--env-name", "roomA",
                     "--n-per-point", "10", "--seed", "3", "--out", str(ds_path)]) == 0
        assert main(["train", "--data", str(ds_path), "--model", "mlp", "--out", str(model_path),
                     "--epochs", "1", "--batch-size", "16"]) == 0
    return json.loads(ds_path.read_text()), json.loads(model_path.read_text())


_DELETE = object()


def _set(doc, path, value):
    """Set, or with _DELETE remove, the entry at path in a JSON document."""
    *keys, last = path
    for key in keys:
        doc = doc[key]
    if value is _DELETE:
        del doc[last]
    else:
        doc[last] = value


# (case, path into the model file, new value, words the error must name)
BAD_MODELS = [
    ("nan_weight", ("params", "w1", "data", 5), float("nan"), ["'w1'", "non-finite"]),
    ("inf_bias", ("params", "b0", "data", 0), float("inf"), ["'b0'", "non-finite"]),
    ("short_data", ("params", "w2", "data", 0), _DELETE, ["'w2'", "'data'", "'shape'"]),
    ("reshaped", ("params", "w1", "shape"), [16, 64], ["'w1'", "(16, 32)", "(16, 64)"]),
    ("missing_array", ("params", "b1"), _DELETE, ["'b1'", "missing"]),
    ("unexpected_array", ("params", "bias"), {"shape": [2], "data": [0.0, 0.0]}, ["'bias'", "unexpected"]),
    ("input_dim", ("input_dim",), 5, ["input_dim 5", "6"]),
    ("arch", ("arch", "hidden"), [32, 16], ["arch", "[32, 32]"]),
    ("nan_norm", ("norm", "feature_min", 2), float("nan"), ["'feature_min'", "finite"]),
    ("short_norm", ("norm", "feature_min", 5), _DELETE, ["'feature_min'", "6 finite"]),
    ("long_target_norm", ("norm", "target_max"), [9.0, 9.0, 9.0], ["'target_max'", "2 finite"]),
    ("empty_norm", ("norm",), {}, ["norm 'feature_min'", "6 finite"]),
    ("list_norm", ("norm",), [1], ["norm must be a JSON object, got [1]"]),
    ("unknown_norm_key", ("norm", "scale"), 2.0, ["unknown norm key 'scale'"]),
    ("null_norm", ("norm",), None, ["error: norm must be a JSON object, got None"]),
    ("version", ("version",), 2, ["error: unsupported model version 2"]),
]


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("case,path,value,words", BAD_MODELS, ids=[c[0] for c in BAD_MODELS])
def test_bad_model_file_exits_2_naming_the_field(capsys, tmp_path, good_files, command, case, path, value, words):
    ds_doc, model_doc = copy.deepcopy(good_files)
    _set(model_doc, path, value)
    (tmp_path / "model.json").write_text(json.dumps(model_doc))
    (tmp_path / "ds.json").write_text(json.dumps(ds_doc))
    features = ",".join(str(v) for v in ds_doc["samples"][0]["features"])
    if command == "predict":
        argv = ["predict", "--features=" + features]
    else:
        argv = ["eval", "--data", str(tmp_path / "ds.json")]
    code, out, err = _run(capsys, [*argv, "--model", str(tmp_path / "model.json")])
    assert code == 2
    assert out == ""
    for word in words:
        assert word in err, (word, err)


# (case, path into the dataset file, new value, words the error must name)
BAD_DATASETS = [
    ("missing_samples", ("samples",), _DELETE, ["no 'samples'"]),
    ("missing_environment", ("environment",), _DELETE, ["no 'environment'"]),
    ("ragged_features", ("samples", 3, "features", 5), _DELETE, ["sample 3", "'features'", "6"]),
    ("nan_feature", ("samples", 4, "features", 2), float("nan"), ["sample 4", "'features'", "finite"]),
    ("inf_target", ("samples", 7, "target", 1), float("inf"), ["sample 7", "'target'", "finite"]),
    ("text_feature", ("samples", 2, "features", 0), "loud", ["sample 2", "'features'"]),
    ("missing_point_id", ("samples", 3, "point_id"), _DELETE, ["sample 3", "'point_id'"]),
    ("negative_point_id", ("samples", 5, "point_id"), -1, ["sample 5", "'point_id'", "nonnegative"]),
    ("foreign_point_id", ("samples", 5, "point_id"), 42,
     ["error: dataset sample 5: 'point_id' 42 is not one of the environment's 3 test points"]),
    ("target_off_point", ("samples", 7, "target"), [500, -3],
     ["dataset sample 7: 'target' [500.0, -3.0] is not the position", "of test point 0"]),
    ("env_unknown_key", ("environment", "anchors", 0, "zz"), 1, ["environment.anchors[0].zz"]),
    ("env_text_number", ("environment", "test_points", 1, "x"), "2.5", ["environment.test_points[1].x", "finite number"]),
    ("env_bool_sign", ("environment", "anchors", 2, "sx"), True, ["environment.anchors[2].sx", "integer"]),
    ("env_missing_key", ("environment", "anchors", 1, "y"), _DELETE, ["environment.anchors[1].y", "missing"]),
    ("env_anchor_id", ("environment", "anchors", 0, "id"), 4, ["error: environment.anchors[0].id must be 1, 2 or 3, got 4"]),
    ("text_seed", ("seed",), "abc", ["error: seed must be an integer, got 'abc'"]),
    ("fractional_seed", ("seed",), 2.7, ["error: seed must be an integer, got 2.7"]),
    ("negative_seed", ("seed",), -1, ["error: seed must be at least 0, got -1"]),
    ("negative_rejects", ("rejects",), -5, ["error: rejects must be at least 0, got -5"]),
    ("fractional_rejects", ("rejects",), 1.5, ["error: rejects must be an integer, got 1.5"]),
    ("empty_samples", ("samples",), [], ["error: samples must be a nonempty list, got []"]),
    ("number_samples", ("samples",), 5, ["error: samples must be a nonempty list, got 5"]),
    ("version", ("version",), 2, ["error: not a recognized dataset document"]),
    ("aoa_layout", ("layout",), "aoa", ["error: layout must be one of"]),
    ("deleted_sample", ("samples", 0), _DELETE, ["error: every test point must contribute the same sample count"]),
    ("deleted_anchor", ("environment", "anchors", 2), _DELETE, ["anchors must hold exactly 3 anchors, got 2"]),
    ("shared_anchor_position", ("environment", "anchors", 1, "x"), 0.0, ["pairwise distinct positions"]),
]


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case,path,value,words", BAD_DATASETS, ids=[c[0] for c in BAD_DATASETS])
def test_bad_dataset_file_exits_2_naming_the_field(capsys, tmp_path, good_files, command, case, path, value, words):
    ds_doc, model_doc = copy.deepcopy(good_files)
    _set(ds_doc, path, value)
    (tmp_path / "model.json").write_text(json.dumps(model_doc))
    (tmp_path / "ds.json").write_text(json.dumps(ds_doc))
    if command == "train":
        argv = ["train", "--model", "mlp", "--epochs", "1", "--out", str(tmp_path / "out.json")]
    else:
        argv = ["eval", "--model", str(tmp_path / "model.json")]
    code, out, err = _run(capsys, [*argv, "--data", str(tmp_path / "ds.json")])
    assert code == 2
    assert out == ""
    for word in words:
        assert word in err, (word, err)
    assert not (tmp_path / "out.json").exists()


# (case, the model file's split, words the error must name)
BAD_SPLITS = [
    ("empty", {}, ["missing config key split.train_fraction"]),
    ("list", [1], ["split must be a JSON object, got [1]"]),
    ("unknown_key", {"train_fraction": 0.8, "seed": 0, "shuffle": True}, ["unknown config key split.shuffle"]),
    ("text_fraction", {"train_fraction": "0.8", "seed": 0}, ["split.train_fraction must be a finite number, got '0.8'"]),
    ("whole_fraction", {"train_fraction": 1.0, "seed": 0}, ["split.train_fraction must lie in (0, 1), got 1.0"]),
    ("fractional_seed", {"train_fraction": 0.8, "seed": 2.7}, ["split.seed must be an integer, got 2.7"]),
    ("negative_seed", {"train_fraction": 0.8, "seed": -1}, ["split.seed must be at least 0, got -1"]),
]


@pytest.mark.parametrize("case,value,words", BAD_SPLITS, ids=[c[0] for c in BAD_SPLITS])
def test_bad_model_split_exits_2_naming_the_key(capsys, tmp_path, good_files, case, value, words):
    ds_doc, model_doc = copy.deepcopy(good_files)
    model_doc["split"] = value
    (tmp_path / "model.json").write_text(json.dumps(model_doc))
    (tmp_path / "ds.json").write_text(json.dumps(ds_doc))
    code, out, err = _run(capsys, ["eval", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "ds.json")])
    assert code == 2
    assert out == ""
    for word in words:
        assert word in err, (word, err)


def test_eval_refuses_a_dataset_of_the_other_layout(capsys, tmp_path, good_files):
    ds_doc, model_doc = copy.deepcopy(good_files)
    ds_doc["layout"] = "rssi"
    for sample in ds_doc["samples"]:
        sample["features"] = sample["features"][:3]
    (tmp_path / "model.json").write_text(json.dumps(model_doc))
    (tmp_path / "ds.json").write_text(json.dumps(ds_doc))
    code, out, err = _run(capsys, ["eval", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "ds.json")])
    assert code == 2
    assert out == ""
    assert err == "locus: error: the model takes 6 features, but the dataset's rssi layout has 3\n"


def test_model_without_split_is_scored_on_the_whole_dataset(capsys, tmp_path, good_files):
    ds_doc, model_doc = copy.deepcopy(good_files)
    (tmp_path / "ds.json").write_text(json.dumps(ds_doc))
    for value in (None, _DELETE):
        _set(model_doc, ("split",), value)
        (tmp_path / "model.json").write_text(json.dumps(model_doc))
        code, out, _ = _run(capsys, ["eval", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "ds.json")])
        assert code == 0
        assert json.loads(out)["n_test"] == len(ds_doc["samples"])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_predict_rejects_non_finite_feature_rows(capsys, tmp_path, good_files, fmt):
    _, model_doc = good_files
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_doc))
    good = "-50,-60,-55,10,20,30"
    for bad in ("nan,-60,-55,10,20,30", "-50,-60,-55,10,inf,30"):
        code, out, err = _run(capsys, ["predict", "--model", str(model_path), "--format", fmt,
                                       f"--features={good};{bad}"])
        assert code == 2
        assert out == ""
        assert "feature row 2 is not finite" in err and "prediction" not in err
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text(f"{bad}\n{good}\n")
        code, out, err = _run(capsys, ["predict", "--model", str(model_path), "--format", fmt,
                                       "--input", str(csv_path)])
        assert code == 2
        assert out == ""
        assert "feature row 1 is not finite" in err and "prediction" not in err


def test_predict_rejects_a_prediction_that_overflows(capsys, tmp_path, good_files):
    # Every entry of the file is finite, but the x target span overflows to inf.
    _, model_doc = copy.deepcopy(good_files)
    model_doc["norm"]["target_min"][0], model_doc["norm"]["target_max"][0] = -1e308, 1e308
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_doc))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--features=-50,-60,-55,10,20,30"])
    assert code == 2
    assert out == ""
    assert "prediction for feature row 1 is not finite" in err


# ---------------------------------------------------------------------------
# number lists read from flags and CSV files

FEATURES = "-50,-60,-55,10,20,30"

# (case, argv with {file} and {model} placeholders, text of {file} or None, words the error must name)
BAD_TEXT = [
    ("ragged_snapshot_row", ["aoa", "--input", "{file}"], "1,0,2,0,3,0\n1,0,2,0\n",
     ["in.csv line 2:", "expected 6 values, got 4"]),
    ("odd_snapshot_width", ["aoa", "--input", "{file}"], "1,0,2\n3,0,4\n", ["in.csv:", "re,im pairs", "(2, 3)"]),
    ("empty_field_rssi_flag", ["locate", "--room", "corridor", "--gamma", "2.5", "--p-r-d0=-40",
                               "--rssi=-52.1,,-63.9,-60.2"], None, ["field 2 of the rssi values", "''"]),
    ("empty_field_distances_flag", ["simulate", "rssi", "--gamma", "2.5", "--p-r-d0=-40", "--distances=1,2,"],
     None, ["field 3 of the distances"]),
    ("nan_distance_csv", ["simulate", "rssi", "--gamma", "2.5", "--p-r-d0=-40", "--distances=nan,inf", "--format", "csv"],
     None, ["error: distance must be a finite number, got nan"]),
    ("inf_distance_csv", ["simulate", "rssi", "--gamma", "2.5", "--p-r-d0=-40", "--distances=2,inf", "--format", "csv"],
     None, ["error: distance must be a finite number, got inf"]),
    ("nan_distance_json", ["simulate", "rssi", "--gamma", "2.5", "--p-r-d0=-40", "--distances=nan,inf"],
     None, ["error: distance must be a finite number, got nan"]),
    ("inf_distance_json", ["simulate", "rssi", "--gamma", "2.5", "--p-r-d0=-40", "--distances=2,-inf", "--format", "json"],
     None, ["error: distance must be a finite number, got -inf"]),
    ("empty_field_features_flag", ["predict", "--model", "{model}", f"--features={FEATURES};-50,,-55,10,20,30"],
     None, ["field 2 of the features"]),
    ("empty_field_fit_row", ["fit", "--input", "{file}"], "distance_m,rssi_dbm\n1,-40\n\n2,\n4,-55\n",
     ["in.csv line 4:", "field 2 of the values", "''"]),
    ("empty_field_snapshot_row", ["aoa", "--input", "{file}"], "1,0,2,0\n1,,2,0\n", ["in.csv line 2:", "field 2"]),
    ("text_field_predict_row", ["predict", "--model", "{model}", "--input", "{file}"],
     f"{FEATURES}\n-50,-60,loud,10,20,30\n", ["in.csv line 2:", "field 3 of the features", "'loud'"]),
    ("header_only_fit", ["fit", "--input", "{file}"], "distance_m,rssi_dbm\n\n", ["in.csv has no data rows"]),
    ("header_only_snapshots", ["aoa", "--input", "{file}"], "re0,im0,re1,im1\n", ["in.csv has no data rows"]),
    ("empty_file_predict", ["predict", "--model", "{model}", "--input", "{file}"], "", ["in.csv has no data rows"]),
    ("short_numeric_first_line_predict", ["predict", "--model", "{model}", "--input", "{file}"],
     f"1,2,3\n{FEATURES}\n", ["in.csv line 1:", "expected 6 features, got 3"]),
    ("wide_numeric_first_line_fit", ["fit", "--input", "{file}"], "1,-40,0\n2,-47\n4,-55\n",
     ["in.csv line 1:", "expected 2 values, got 3"]),
]


@pytest.mark.parametrize("case,argv,text,words", BAD_TEXT, ids=[c[0] for c in BAD_TEXT])
def test_malformed_number_text_exits_2_naming_where(capsys, tmp_path, good_files, case, argv, text, words):
    _, model_doc = good_files
    model_path, path = tmp_path / "model.json", tmp_path / "in.csv"
    model_path.write_text(json.dumps(model_doc))
    if text is not None:
        path.write_text(text)
    code, out, err = _run(capsys, [a.format(file=path, model=model_path) for a in argv])
    assert code == 2
    assert out == ""
    for word in words:
        assert word in err, (word, err)


def test_blank_lines_inside_each_csv_are_skipped(capsys, tmp_path, good_files):
    _, model_doc = good_files
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_doc))
    snap = tmp_path / "snap.csv"
    assert _run(capsys, ["simulate", "snapshots", "--angles=17.3", "--snapshots", "16", "--out", str(snap)])[0] == 0
    files = {
        "fit": ("distance_m,rssi_dbm\n1,-40\n2,-47.6\n4,-55\n8,-62.4\n", []),
        "aoa": (snap.read_text(), []),
        "predict": (f"{FEATURES}\n-52,-58,-57,12,18,33\n-49,-61,-54,9,21,29\n", ["--model", str(model_path)]),
    }
    for command, (text, extra) in files.items():
        outputs = []
        for content in (text, "\n" + text.replace("\n", "\n\n  \n", 2)):
            path = tmp_path / f"{command}.csv"
            path.write_text(content)
            code, out, err = _run(capsys, [command, "--input", str(path), *extra])
            assert code == 0, (command, err)
            outputs.append(out)
        assert outputs[0] == outputs[1], command


def test_snapshot_csv_roundtrip(tmp_path):
    spec = ArraySpec(m=5, spacing_wavelengths=0.5, snapshots=12)
    rng = np.random.default_rng(8)
    x = simulate_snapshots(spec, [-5.0], noise_power_db=-10.0, rng=rng)
    path = tmp_path / "snap.csv"
    path.write_text(cli._snapshots_csv(x))
    back = cli._read_snapshots(path, 0.5)
    assert back.array == spec
    assert back.data.tobytes() == x.data.tobytes()


def test_fit_csv_with_header(tmp_path):
    path = tmp_path / "fit.csv"
    path.write_text("distance_m,rssi_dbm\n1.0,-40.0\n5.5,-61.2\n9.0,-66.0\n")
    rows = cli._read_rows(path, "values", 2)
    assert rows.shape == (3, 2)
    assert rows[1].tolist() == [5.5, -61.2]


def test_print_json_refuses_nan(capsys):
    with pytest.raises(ValueError):
        cli._print_json({"overall_mae_mm": float("nan")})
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation(tmp_path):
    # The child imports the locus package this test imported, installed or not.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "locus.cli", "simulate", "rssi",
         "--gamma", "2.5", "--p-r-d0=-40", "--distances", "1,2", "--format", "csv"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "distance_m,rssi_dbm"

    proc = subprocess.run(
        [sys.executable, "-m", "locus.cli", "fit", "--input", "/missing.csv"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "locus: error:" in proc.stderr

    # The documented clean-checkout form of the reference experiment, on a tiny config.
    proc = subprocess.run(
        [sys.executable, "-m", "locus.cli", "report", "--config", _config_file(tmp_path), "--out", "out"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "total_rejects" in json.loads(proc.stdout)
    for name in ("report.json", "mae_table.csv", "improvement_table.csv", "loss_history.csv"):
        assert (tmp_path / "out" / name).is_file(), name
