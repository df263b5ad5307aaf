"""Fast tests of the benchmark's own code: checks, tracer, oracles and contract.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import locus  # noqa: E402
from locus.pipeline import load_config, run_experiment  # noqa: E402


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """A tiny-sized traced sweep of every workload, keyed by workload name."""
    runs = {}
    for name in workloads.WORKLOADS:
        cfg = workloads.make_config(name, seed=1, tiny=True)
        out = str(tmp_path_factory.mktemp(name))
        tracer = Tracer()
        tracer.install(locus)
        try:
            run_experiment(load_config(cfg), out_dir=out)
        finally:
            tracer.uninstall()
        _, report, errors = checks.check_output_dir(out, cfg)
        runs[name] = (cfg, report, errors, tracer)
    return runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_the_output_checks(tiny_runs, name):
    cfg, report, errors, _ = tiny_runs[name]
    assert errors == []
    assert len(report["runs"]) == workloads.n_cells(cfg) * len(cfg["layouts"]) * len(cfg["models"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run_passes_the_oracles(tiny_runs, name):
    cfg, _, _, tracer = tiny_runs[name]
    res = tracer.check_oracles(locus)
    assert res["aoa.failed"] == 0 and res["position.failed"] == 0
    assert res["position.checked"] > 0
    assert (res["aoa.checked"] > 0) == (cfg["aoa_mode"] == "music")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(tiny_runs, name):
    cfg, _, _, tracer = tiny_runs[name]
    layers = tracer.layer_metrics()
    assert set(layers) | {"setup.import_s", "setup.load_config_s", "trace.overhead_s"} == set(bench.PER_LAYER_UNITS)
    assert layers["pipeline.draws"] >= workloads.n_cells(cfg) * 10 * cfg["n_per_point"]
    assert (layers["aoa.estimate_aoa.calls"] > 0) == (cfg["aoa_mode"] == "music")
    assert (layers["neural.train.steps"] > 0) == ("mlp" in cfg["models"])
    assert ("pipeline.estimate_aoa" in tracer.unobserved()) == (cfg["aoa_mode"] == "fast")
    # The tracer puts back every function it wrapped.
    assert not hasattr(locus.pipeline.run_experiment, "__wrapped__")
    assert not hasattr(locus.neural.MlpModel.loss_and_gradients, "__wrapped__")


@pytest.fixture
def fast_report(tiny_runs):
    cfg, report, _, _ = tiny_runs["report_fast"]
    return cfg, copy.deepcopy(report)


def _errors_of_text(tmp_path, text, cfg):
    (tmp_path / "report.json").write_text(text)
    for name in checks.TABLE_FILES:
        (tmp_path / name).write_text("x\n")
    return checks.check_output_dir(str(tmp_path), cfg)[2]


def test_nan_mae_fails(fast_report, tmp_path):
    cfg, report = fast_report
    report["runs"][0]["mae_mm"] = float("nan")
    errors = _errors_of_text(tmp_path, json.dumps(report), cfg)
    assert errors and "non-finite" in errors[0]


def test_missing_run_row_fails(fast_report):
    cfg, report = fast_report
    del report["runs"][3]
    assert any("missing run rows" in e for e in checks.check_report(report, cfg))


def test_hybrid_worse_than_rssi_fails(fast_report):
    cfg, report = fast_report
    room, fam = cfg["environments"][0]["name"], "mlp"
    rows = {r["layout"]: r for r in report["runs"] if (r["environment"], r["model"]) == (room, fam)}
    rows["hybrid"]["mae_mm"], rows["rssi"]["mae_mm"] = rows["rssi"]["mae_mm"], rows["hybrid"]["mae_mm"]
    table = report["mae_table_mm"][room]
    table[f"{fam}_hybrid"], table[f"{fam}_rssi"] = table[f"{fam}_rssi"], table[f"{fam}_hybrid"]
    a, b = table[f"{fam}_rssi"], table[f"{fam}_hybrid"]
    report["improvement_percent"][room][fam] = 100.0 * (a - b) / a
    errors = checks.check_report(report, cfg)
    assert any("hybrid MAE" in e for e in errors)
    assert not any("mae_table_mm" in e or "improvement_percent" in e for e in errors)


def test_steps_cut_short_fails(fast_report):
    cfg, report = fast_report
    run = next(r for r in report["runs"] if r["model"] == "cnn")
    run["steps"] -= 1
    assert any("steps" in e for e in checks.check_report(report, cfg))


@pytest.mark.parametrize("table", ["mae_table_mm", "improvement_percent", "baseline_mae_mm"])
def test_edited_aggregate_fails(fast_report, table):
    cfg, report = fast_report
    row = report[table][cfg["environments"][1]["name"]]
    key = sorted(row)[0]
    row[key] += 0.01
    assert any(table in e for e in checks.check_report(report, cfg))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_fast", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
