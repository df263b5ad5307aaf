"""End-to-end acceptance checks.

Each test asserts one advertised guarantee at its stated tolerance and runtime
budget and records a PASS/FAIL verdict line. The full experiment sweep (the
most expensive check) runs once in a session fixture and is shared by every
test that inspects its output.
"""

import hashlib
import json
import math
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from locus import neural
from locus.aoa import correlation_matrix, eigendecompose, estimate_aoa
from locus.channel import (
    ArraySpec,
    NlosModel,
    PathLossParams,
    expected_rssi,
    fit_path_loss,
    simulate_rssi,
    simulate_snapshots,
    steering_matrix,
)
from locus.cli import main as cli_main
from locus.environment import STANDARD_ROOMS, Point2D, standard_environment, true_aoa, true_distance
from locus.pipeline import NormStats, generate_dataset, load_config, run_experiment, split
from locus.trilat import DistanceVector, hybrid_position, trilaterate

REPO = Path(__file__).resolve().parent.parent
PROFILE_CONFIG = REPO / "configs" / "paper_repro.json"

# sha256 of the reference sweep's report.json, unchanged since it was first
# recorded: a change that moves it on purpose rewrites it and says why.
REFERENCE_REPORT_SHA256 = "8a4d6c355a47f4a447908f2d7abb916c90527e0e2a52810d496cdbf0a91d0350"

MODEL_FAMILIES = ("mlp", "rbf", "cnn")
ROOMS = ("big_classroom", "corridor", "small_classroom")


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """One full experiment sweep through the CLI, shared across tests."""
    out = tmp_path_factory.mktemp("sweep")
    t0 = time.perf_counter()
    code = cli_main(["report", "--config", str(PROFILE_CONFIG), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    report = json.loads((out / "report.json").read_text()) if code == 0 else None
    return SimpleNamespace(out=out, code=code, elapsed=elapsed, report=report)


# ---------------------------------------------------------------------------
# closed-form geometry


def test_roundtrip_geometry(verdict):
    """Noiseless inputs recover 1000 random in-room points per environment."""
    t0 = time.perf_counter()
    params = PathLossParams(gamma=2.5, sigma=0.0, p_r_d0=-40.0)
    worst_hybrid = 0.0
    worst_trilat = 0.0
    rng = np.random.default_rng(2026)
    for env in map(standard_environment, STANDARD_ROOMS):
        length, width = env.length_m, env.width_m
        anchors = np.array([[a.position.x, a.position.y] for a in env.anchors])
        pts = np.empty((0, 2))
        while pts.shape[0] < 1000:
            cand = rng.uniform((0, 0), (length, width), size=(1200, 2))
            # stay in the region where the propagation law is invertible
            dmin = np.min(np.linalg.norm(cand[:, None, :] - anchors[None], axis=2), axis=1)
            pts = np.vstack([pts, cand[dmin >= params.d0]])
        pts = pts[:1000]
        for px, py in pts:
            p = Point2D(float(px), float(py))
            d = DistanceVector(tuple(true_distance(env, i, p) for i in (1, 2, 3)))
            thetas = [true_aoa(env, i, p) for i in (1, 2, 3)]
            est = hybrid_position(env, d, thetas)
            worst_hybrid = max(worst_hybrid, math.hypot(est.p.x - px, est.p.y - py))
            rssi = [expected_rssi(params, di) for di in d.d]
            est2 = trilaterate(env, [params] * 3, rssi)
            worst_trilat = max(worst_trilat, math.hypot(est2.p.x - px, est2.p.y - py))
    elapsed = time.perf_counter() - t0
    ok = worst_hybrid <= 1e-9 and worst_trilat <= 1e-6 and elapsed < 5.0
    assert verdict(
        "geometry round-trip",
        ok,
        f"hybrid worst {worst_hybrid:.2e} m (<=1e-9), trilat worst {worst_trilat:.2e} m (<=1e-6), {elapsed:.1f}s (<5s)",
    )


def test_path_loss_recovery(verdict):
    """Fitted exponent and spread stay near truth on 1000-sample draws."""
    t0 = time.perf_counter()
    truth = PathLossParams(gamma=2.5, sigma=3.0, p_r_d0=-40.0)
    gammas, sigmas = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dists = rng.uniform(1.0, 15.0, size=1000)
        result = fit_path_loss(dists, [simulate_rssi(truth, float(d), rng) for d in dists])
        gammas.append(result.params.gamma)
        sigmas.append(result.params.sigma)
    g_med = statistics.median(gammas)
    s_med = statistics.median(sigmas)
    elapsed = time.perf_counter() - t0
    ok = abs(g_med - 2.5) <= 0.1 and abs(s_med - 3.0) <= 0.3 and elapsed < 5.0
    assert verdict(
        "path-loss recovery",
        ok,
        f"median gamma {g_med:.4f} (2.5+-0.1), median sigma {s_med:.4f} (3.0+-0.3), {elapsed:.1f}s (<5s)",
    )


def test_aoa_estimation_accuracy(verdict):
    """Subspace scan: <1 deg RMSE at SNR 20, exact orthogonality without noise."""
    t0 = time.perf_counter()
    spec = ArraySpec(m=8, spacing_wavelengths=0.5, snapshots=256)
    errors = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        theta = float(rng.uniform(-60.0, 60.0))
        x = simulate_snapshots(spec, [theta], noise_power_db=-20.0, rng=rng)
        est = estimate_aoa(x, 1, grid_step_deg=0.1)[0]
        errors.append(est - theta)
    rmse = float(np.sqrt(np.mean(np.square(errors))))

    worst_orth = 0.0
    for theta in (-41.0, 3.5, 27.0):
        rng = np.random.default_rng(7)
        x = simulate_snapshots(spec, [theta], noise_power_db=-math.inf, rng=rng)
        un = eigendecompose(correlation_matrix(x))[1][:, 1:]
        a = steering_matrix(spec, [theta])[:, 0]
        worst_orth = max(worst_orth, float(np.max(np.abs(un.conj().T @ a))))
    elapsed = time.perf_counter() - t0
    ok = rmse < 1.0 and worst_orth < 1e-6 and elapsed < 60.0
    assert verdict(
        "aoa estimation accuracy",
        ok,
        f"RMSE {rmse:.4f} deg (<1), noiseless orthogonality {worst_orth:.2e} (<1e-6), {elapsed:.1f}s (<60s)",
    )


def test_gradient_finite_difference(verdict):
    """Backprop matches central differences for 10 random setups per family."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = {fam: 0.0 for fam in MODEL_FAMILIES}
    for i in range(10):
        n = int(rng.integers(2, 7))

        d = int(rng.integers(1, 7))
        hidden = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 3))))
        mlp = neural.make_mlp(d, hidden=hidden, seed=1000 + i)
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, 2))
        worst["mlp"] = max(worst["mlp"], neural.gradient_check(mlp, x, y))

        d = int(rng.integers(1, 7))
        data = rng.normal(size=(max(n, 3), d))
        k = int(rng.integers(1, data.shape[0] + 1))
        rbf = neural.RbfModel.init(data, k=k, seed=2000 + i)
        y = rng.normal(size=(data.shape[0], 2))
        worst["rbf"] = max(worst["rbf"], neural.gradient_check(rbf, data, y))

        length = int(rng.integers(3, 11))
        cnn = neural.make_cnn(length, seed=3000 + i)
        x = rng.normal(size=(n, length))
        y = rng.normal(size=(n, 2))
        worst["cnn"] = max(worst["cnn"], neural.gradient_check(cnn, x, y))
    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 30.0
    detail = ", ".join(f"{fam} {v:.2e}" for fam, v in worst.items())
    assert verdict(
        "gradient finite-difference checks",
        ok,
        f"worst rel err {detail} (<1e-4), {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# protocol fidelity


def test_split_normalization_reproducibility(verdict):
    """400/100 per point at 0.8/500, norm round-trip, bit-stable regeneration."""
    env = standard_environment("small_classroom")
    params = PathLossParams(gamma=2.5, sigma=3.0, p_r_d0=-40.0)
    nlos = NlosModel(excess_loss_db=4.0, aoa_bias_deg_sigma=4.0)
    ds = generate_dataset(env, params, nlos, 500, layout="hybrid", seed=31)
    tr, te = split(ds, 0.8, seed=5)
    counts_ok = all(
        int(np.sum(tr.point_ids == pid)) == 400 and int(np.sum(te.point_ids == pid)) == 100
        for pid in range(len(env.test_points))
    )

    stats = NormStats.fit(tr)
    back = stats.denormalize_targets(stats.normalize_targets(ds.targets))
    norm_err = float(np.max(np.abs(back - ds.targets)))

    ds2 = generate_dataset(env, params, nlos, 500, layout="hybrid", seed=31)
    data_stable = (
        np.array_equal(ds.features, ds2.features)
        and np.array_equal(ds.targets, ds2.targets)
        and ds.rejects == ds2.rejects
    )

    cfg = load_config(
        {
            "seeds": [0, 1],
            "n_per_point": 25,
            "models": ["mlp", "rbf"],
            "layouts": ["rssi", "hybrid"],
            "path_loss": {"gamma": 2.5, "sigma": 3.0, "p_r_d0": -40.0},
            "train": {"learning_rate": 0.02, "batch_size": 16, "epochs": 8},
            "environments": [
                {
                    "name": "roomA",
                    "length_m": 9,
                    "width_m": 7,
                    "test_point_seed": 13,
                    "n_points": 4,
                    "nlos": {"excess_loss_db": 1.0, "aoa_bias_deg_sigma": 1.0},
                }
            ],
        }
    )
    r1 = json.dumps(run_experiment(cfg), sort_keys=True)
    r2 = json.dumps(run_experiment(cfg), sort_keys=True)
    report_stable = r1 == r2

    ok = counts_ok and norm_err < 1e-12 and data_stable and report_stable
    assert verdict(
        "split, normalization and reproducibility",
        ok,
        f"per-point split 400/100 {counts_ok}, norm round-trip {norm_err:.2e} (<1e-12), "
        f"dataset bit-stable {data_stable}, report bit-stable {report_stable}",
    )


# ---------------------------------------------------------------------------
# experiment sweep (shared run)


def _mean_mae(report, env, family, layout):
    return report["mae_table_mm"][env][f"{family}_{layout}"]


def test_sweep_runtime_budget(sweep, verdict):
    ok = sweep.code == 0 and sweep.elapsed < 900.0
    assert verdict(
        "experiment sweep runtime",
        ok,
        f"exit code {sweep.code}, {sweep.elapsed:.0f}s (<900s) at 500 samples per point",
    )


def test_reference_report_keeps_its_bits(sweep, verdict):
    assert sweep.code == 0
    digest = hashlib.sha256((sweep.out / "report.json").read_bytes()).hexdigest()
    assert verdict("reference report.json bits", digest == REFERENCE_REPORT_SHA256, f"sha256 {digest}")


def test_hybrid_beats_rssi_everywhere(sweep, verdict):
    assert sweep.report is not None
    gaps = []
    for env in ROOMS:
        for fam in MODEL_FAMILIES:
            rssi = _mean_mae(sweep.report, env, fam, "rssi")
            hybrid = _mean_mae(sweep.report, env, fam, "hybrid")
            gaps.append((100.0 * (rssi - hybrid) / rssi, env, fam))
    worst = min(gaps)
    ok = all(g[0] > 0 for g in gaps)
    assert verdict(
        "hybrid layout beats rssi-only",
        ok,
        f"worst improvement {worst[0]:.1f}% ({worst[1]}/{worst[2]}), all 9 env x family cells positive: {ok}",
    )


def test_music_mode_hybrid_beats_rssi_everywhere(tmp_path, verdict):
    """The reference config in aoa_mode music, at its first two seeds and 20
    samples per point: the subspace estimator keeps hybrid ahead of rssi."""
    cfg = json.loads(PROFILE_CONFIG.read_text())
    cfg.update(aoa_mode="music", seeds=cfg["seeds"][:2], n_per_point=20)
    report = run_experiment(load_config(cfg), out_dir=tmp_path)
    gaps = []
    for env in ROOMS:
        for fam in MODEL_FAMILIES:
            rssi = _mean_mae(report, env, fam, "rssi")
            hybrid = _mean_mae(report, env, fam, "hybrid")
            gaps.append((100.0 * (rssi - hybrid) / rssi, env, fam))
    worst = min(gaps)
    ok = all(g[0] > 0 for g in gaps)
    assert verdict(
        "music mode: hybrid beats rssi-only",
        ok,
        f"seeds 0-1, 20 samples per point; worst improvement {worst[0]:.1f}% ({worst[1]}/{worst[2]})",
    )


def test_big_room_error_below_small_room(sweep, verdict):
    assert sweep.report is not None
    detail = []
    ok = True
    for layout in ("rssi", "hybrid"):
        big = float(np.mean([_mean_mae(sweep.report, "big_classroom", f, layout) for f in MODEL_FAMILIES]))
        small = float(np.mean([_mean_mae(sweep.report, "small_classroom", f, layout) for f in MODEL_FAMILIES]))
        ok = ok and big < small
        detail.append(f"{layout}: big {big:.0f}mm vs small {small:.0f}mm")
    assert verdict("big room error below small room", ok, "; ".join(detail))


def test_training_beats_untrained(sweep, verdict):
    assert sweep.report is not None
    worst = None
    for env in ROOMS:
        for layout in ("rssi", "hybrid"):
            for fam in MODEL_FAMILIES:
                rows = [
                    r
                    for r in sweep.report["runs"]
                    if r["environment"] == env and r["layout"] == layout and r["model"] == fam
                ]
                assert len(rows) == 10
                trained = float(np.mean([r["mae_mm"] for r in rows]))
                untrained = float(np.mean([r["untrained_mae_mm"] for r in rows]))
                cut = 100.0 * (untrained - trained) / untrained
                if worst is None or cut < worst[0]:
                    worst = (cut, env, layout, fam)
    ok = worst[0] >= 50.0
    assert verdict(
        "training beats untrained start",
        ok,
        f"worst error reduction {worst[0]:.1f}% ({worst[1]}/{worst[2]}/{worst[3]}), threshold 50%",
    )


def test_report_tables_complete(sweep, verdict):
    mae_path = sweep.out / "mae_table.csv"
    imp_path = sweep.out / "improvement_table.csv"
    ok = sweep.code == 0 and mae_path.exists() and imp_path.exists()
    cells = 0
    min_improvement = None
    if ok:
        lines = mae_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        expected_cols = [f"{f}_{l}" for f in MODEL_FAMILIES for l in ("rssi", "hybrid")]
        ok = ok and header[0] == "environment" and sorted(header[1:]) == sorted(expected_cols)
        rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
        ok = ok and sorted(rows) == sorted(ROOMS)
        for vals in rows.values():
            for v in vals:
                ok = ok and float(v) > 0
                cells += 1
        imp_lines = imp_path.read_text().strip().splitlines()
        for ln in imp_lines[1:]:
            for v in ln.split(",")[1:]:
                imp = float(v)
                ok = ok and imp > 0
                if min_improvement is None or imp < min_improvement:
                    min_improvement = imp
    assert verdict(
        "end-to-end report tables",
        ok,
        f"mae cells populated {cells}/18, smallest improvement entry "
        f"{min_improvement if min_improvement is None else round(min_improvement, 1)}%",
    )
