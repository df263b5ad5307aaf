#!/usr/bin/env python3
"""Benchmark of the `locus report` sweep.

    python3 perfbench/run.py --workload report_fast --seed 1 --seconds 36 --trace 0

Each sweep runs serially in a fresh child process (child.py) with
LOCUS_THREADS unset and BLAS at one thread; sweeps run one after another,
never side by side. A run starts with a few set-up probes, then repeats
whole sweeps of the same generated config until the next one would end after
--seconds. Every sweep's report is checked (checks.py) and must be
byte-identical to the run's first one.

With --trace 0 the last stdout line holds the end-to-end metrics, medians
over the run's sweeps. With --trace 1 the run alternates untraced and traced
sweeps and reports the per-layer metrics of the traced ones, plus the
tracing overhead (traced minus untraced wall time); no end-to-end metric
comes from a traced run. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 5
# Whole rounds a run makes even when --seconds is short: untraced runs need
# two sweeps for the byte-identity check, traced runs one (untraced, traced) pair.
MIN_ROUNDS = {0: 2, 1: 1}
# The whole run, children included, must end well within 180 s.
HARD_LIMIT_S = 165.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hybrid_mae_mm": "mm",
    "rssi_mae_mm": "mm",
}

PER_LAYER_UNITS = {
    "neural.step_us.mlp": "us",
    "neural.step_us.cnn": "us",
    "neural.grad_us.mlp": "us",
    "neural.grad_us.cnn": "us",
    "neural.sgd_overhead_us": "us",
    "neural.train.steps": "count",
    "neural.kmeans.s": "s",
    "neural.kmeans.calls": "count",
    "neural.fit_rbf_output.s": "s",
    "neural.forward_batch.s": "s",
    "aoa.estimate_aoa.calls": "count",
    "aoa.estimate_aoa.us": "us",
    "aoa.eigendecompose.us": "us",
    "aoa.spatial_spectrum.us": "us",
    "aoa.peak_pick.us": "us",
    "channel.simulate_snapshots.calls": "count",
    "channel.simulate_snapshots.us": "us",
    "pipeline.generate_dataset.s": "s",
    "pipeline.generate_dataset.self_s": "s",
    "pipeline.draws": "count",
    "pipeline.accepted_per_draw": "ratio",
    "pipeline.split.s": "s",
    "pipeline.baselines.s": "s",
    "pipeline.evaluate_mae.s": "s",
    "pipeline.write_report_files.s": "s",
    "pipeline.run_experiment.self_s": "s",
    "trilat.trilaterate.calls": "count",
    "trilat.trilaterate.us": "us",
    "hybrid.hybrid_position.calls": "count",
    "hybrid.hybrid_position.us": "us",
    "setup.import_s": "s",
    "setup.load_config_s": "s",
    "trace.overhead_s": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LOCUS_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(config_path: str, out_dir: str, trace: int, hard_deadline: float) -> dict | None:
    """One child process; its result dict, or None when it failed."""
    timeout = max(1.0, hard_deadline - time.monotonic())
    spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, config_path, out_dir, str(trace), repr(spawn)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"sweep child timed out after {timeout:.0f} s")
        return None
    if proc.returncode != 0:
        log(f"sweep child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"sweep child printed no result:\n{proc.stdout[-2000:]}")
        return None


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Measure one workload for `seconds`; returns the result object."""
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + HARD_LIMIT_S
    cfg = workloads.make_config(workload, seed)
    cells = workloads.n_cells(cfg)
    os.makedirs(OUT_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=OUT_ROOT) as tmp:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as f:
            json.dump(cfg, f, indent=2)

        setups = []
        for _ in range(SETUP_PROBES):
            probe = run_child(config_path, "-", 0, hard_deadline)
            if probe is None:
                raise SystemExit("set-up probe failed; is the program importable?")
            setups.append(probe["setup"])

        errors = []
        sweeps = {0: [], 1: []}
        first_report = None
        mae = None
        oracle = []
        unobserved = set()
        attempted = failed = 0
        rounds = 0
        round_s = 0.0
        plan = (0, 1) if trace else (0,)
        while rounds < MIN_ROUNDS[trace] or time.monotonic() + round_s <= deadline:
            r0 = time.monotonic()
            for kind in plan:
                out_dir = os.path.join(tmp, f"sweep{attempted // cells}")
                attempted += cells
                res = run_child(config_path, out_dir, kind, hard_deadline)
                if res is None:
                    failed += cells
                    continue
                raw, report, errs = checks.check_output_dir(out_dir, cfg)
                shutil.rmtree(out_dir, ignore_errors=True)
                if first_report is None:
                    first_report = raw
                elif raw != first_report:
                    errs.append("report.json differs from the run's first sweep")
                errors.extend(errs)
                if mae is None and report is not None:
                    mae = checks.mae_means(report)
                setups.append(res["setup"])
                sweeps[kind].append(res)
                if kind:
                    oracle.append(res["oracle"])
                    unobserved.update(res["unobserved"])
            rounds += 1
            round_s = time.monotonic() - r0
            if time.monotonic() >= hard_deadline - round_s:
                break

    if not sweeps[0] or (trace and not sweeps[1]):
        raise SystemExit("no sweep completed")
    if mae is None or not all(math.isfinite(v) for v in mae.values()):
        raise SystemExit(f"no sweep wrote a report with finite MAE means: {errors[:3]}")
    for o in oracle:
        if o["aoa.failed"] or o["position.failed"]:
            errors.append(f"oracle mismatch: {o}")

    untraced = [s["sweep"] for s in sweeps[0]]
    if trace:
        traced = sweeps[1]
        metrics = {k: statistics.median(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
        metrics["setup.import_s"] = median_of(setups, "import_s")
        metrics["setup.load_config_s"] = median_of(setups, "load_config_s")
        metrics["trace.overhead_s"] = (
            statistics.median(t["sweep"]["wall_s"] for t in traced) - median_of(untraced, "wall_s")
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": median_of(untraced, "wall_s"),
            "cpu_s": median_of(untraced, "cpu_s"),
            "setup_s": median_of(setups, "setup_s"),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
            "hybrid_mae_mm": mae["hybrid"],
            "rssi_mae_mm": mae["rssi"],
        }
        units = END_TO_END_UNITS

    for e in errors[:20]:
        log(f"CHECK FAILED: {e}")
    summary = {
        "workload": workload,
        "seed": seed,
        "experiment_seeds": cfg["seeds"],
        "sweeps_untraced": len(sweeps[0]),
        "sweeps_traced": len(sweeps[1]),
        "setup_samples": len(setups),
        "sweep_wall_s": {kind: [round(r["sweep"]["wall_s"], 3) for r in sweeps[kind]] for kind in (0, 1)},
        "not_observed": sorted(unobserved),
        "oracle": oracle,
    }
    return {
        "summary": summary,
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "locus", "__init__.py")):
        log(f"no locus package under {os.path.join(ROOT, 'src')}; run from a checkout of the repository")
        return 2
    out = run(args.workload, args.seed, args.seconds, args.trace)
    s = out["summary"]
    print(
        f"{s['workload']} seed {s['seed']} (experiment seeds {s['experiment_seeds']}): "
        f"{s['sweeps_untraced']} untraced + {s['sweeps_traced']} traced sweeps, "
        f"{s['setup_samples']} set-up samples; sweep wall times (s) untraced "
        f"{s['sweep_wall_s'][0]}, traced {s['sweep_wall_s'][1]}"
    )
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6f} {m['unit']}")
    if s["not_observed"]:
        print(f"  not observed: {', '.join(s['not_observed'])}")
    for o in s["oracle"]:
        print(f"  oracle: {json.dumps(o)}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
