"""Output checks on one sweep's report, computed apart from the program.

Every check derives what the report must hold from the workload config
alone; none compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import os
from statistics import fmean

import workloads

# report.json rounds every float to six decimals, so an aggregate recomputed
# from rounded rows differs from the rounded aggregate by about 1e-6.
AGGREGATE_TOL = 1e-5

TABLE_FILES = ("mae_table.csv", "improvement_table.csv", "loss_history.csv")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report.json")


def parse_report(text: str) -> dict:
    """Parse report.json, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def mae_means(report: dict) -> dict[str, float]:
    """Mean trained MAE (mm) over all runs of each layout."""
    out = {}
    for layout in ("hybrid", "rssi"):
        vals = [r["mae_mm"] for r in report["runs"] if r["layout"] == layout]
        out[layout] = fmean(vals) if vals else math.nan
    return out


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= AGGREGATE_TOL


def check_report(report: dict, cfg: dict) -> list[str]:
    """All violations of the report contract for config cfg; empty when it holds."""
    errors = []
    rooms = [e["name"] for e in cfg["environments"]]
    seeds = list(cfg["seeds"])
    layouts = list(cfg["layouts"])
    models = list(cfg["models"])

    runs = report.get("runs", [])
    keys = [(r.get("environment"), r.get("seed"), r.get("layout"), r.get("model")) for r in runs]
    want = {(e, s, l, m) for e in rooms for s in seeds for l in layouts for m in models}
    missing = want - set(keys)
    extra = set(keys) - want
    if missing:
        errors.append(f"missing run rows: {sorted(missing)[:3]} ({len(missing)} in all)")
    if extra:
        errors.append(f"unexpected run rows: {sorted(extra, key=str)[:3]}")
    if len(keys) != len(set(keys)):
        errors.append("duplicate run rows")

    env_by_name = {e["name"]: e for e in cfg["environments"]}
    for r in runs:
        tag = f"{r.get('environment')}/{r.get('seed')}/{r.get('layout')}/{r.get('model')}"
        env = env_by_name.get(r.get("environment"))
        if env is not None:
            steps = 1 if r.get("model") == "rbf" else workloads.sgd_steps(cfg, env)
            if r.get("steps") != steps:
                errors.append(f"{tag}: steps {r.get('steps')} != {steps}")
        mae, untrained = r.get("mae_mm"), r.get("untrained_mae_mm")
        if not (isinstance(mae, (int, float)) and mae > 0):
            errors.append(f"{tag}: MAE {mae!r} is not a positive number")
        elif not (isinstance(untrained, (int, float)) and mae < untrained):
            errors.append(f"{tag}: trained MAE {mae} not below untrained {untrained}")

    table = report.get("mae_table_mm", {})
    for e in rooms:
        for m in models:
            for l in layouts:
                vals = [r["mae_mm"] for r in runs
                        if (r["environment"], r["model"], r["layout"]) == (e, m, l)]
                got = table.get(e, {}).get(f"{m}_{l}")
                if vals and not _close(got, fmean(vals)):
                    errors.append(f"mae_table_mm[{e}][{m}_{l}] {got!r} != mean {fmean(vals)}")

    if "rssi" in layouts and "hybrid" in layouts:
        improvement = report.get("improvement_percent", {})
        for e in rooms:
            for m in models:
                a = table.get(e, {}).get(f"{m}_rssi")
                b = table.get(e, {}).get(f"{m}_hybrid")
                if not all(isinstance(v, (int, float)) for v in (a, b)):
                    continue
                if not b < a:
                    errors.append(f"{e}/{m}: hybrid MAE {b} not below rssi MAE {a}")
                got = improvement.get(e, {}).get(m)
                if a > 0 and not _close(got, 100.0 * (a - b) / a):
                    errors.append(f"improvement_percent[{e}][{m}] {got!r} != {100.0 * (a - b) / a}")

    baselines = report.get("baselines", [])
    cells = [(b.get("environment"), b.get("seed")) for b in baselines]
    want_cells = {(e, s) for e in rooms for s in seeds}
    if len(cells) != len(want_cells) or set(cells) != want_cells:
        errors.append(f"baseline rows {len(cells)} do not cover the {len(want_cells)} cells once each")
    for b in baselines:
        if not b.get("hybrid_closed_form", math.inf) < b.get("trilat", -math.inf):
            errors.append(
                f"{b.get('environment')}/{b.get('seed')}: hybrid closed form "
                f"{b.get('hybrid_closed_form')} not below trilateration {b.get('trilat')}"
            )
    baseline_table = report.get("baseline_mae_mm", {})
    for e in rooms:
        for key in ("trilat", "hybrid_closed_form"):
            vals = [b[key] for b in baselines if b.get("environment") == e and key in b]
            got = baseline_table.get(e, {}).get(key)
            if vals and not _close(got, fmean(vals)):
                errors.append(f"baseline_mae_mm[{e}][{key}] {got!r} != mean {fmean(vals)}")
    return errors


def check_output_dir(out_dir: str, cfg: dict) -> tuple[bytes, dict | None, list[str]]:
    """Read and check one sweep's output directory.

    Returns the raw report.json bytes, the parsed report (None when it does
    not parse) and the list of violations.
    """
    path = os.path.join(out_dir, "report.json")
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        return b"", None, [f"report.json not written: {exc}"]
    try:
        report = parse_report(raw.decode())
    except ValueError as exc:
        return raw, None, [f"report.json does not parse: {exc}"]
    errors = check_report(report, cfg)
    for name in TABLE_FILES:
        p = os.path.join(out_dir, name)
        if not (os.path.isfile(p) and os.path.getsize(p) > 0):
            errors.append(f"{name} not written")
    return raw, report, errors
