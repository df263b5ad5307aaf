"""Command line interface.

Subcommands: fit, simulate, locate, aoa, train, predict, eval, report.
Exit codes: 0 success, 1 usage error, 2 runtime failure (message on stderr).
Numbers printed to stdout or written into report tables are rounded to six
decimals; model and dataset files keep full precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import neural
from .aoa import estimate_aoa, grid_size, music_spectrum
from .channel import ArraySpec, PathLossParams, SnapshotMatrix, fit_path_loss, json_form, read_section, simulate_rssi, simulate_snapshots
from .environment import STANDARD_ROOMS, Environment, standard_environment
from .pipeline import (
    LAYOUTS,
    ExperimentConfig,
    MusicSpec,
    NormStats,
    SplitSpec,
    UsageError,
    dataset_from_dict,
    dataset_to_dict,
    evaluate_mae,
    json_text,
    load_config,
    path_loss_from_dict,
    run_experiment,
    split,
)
from .trilat import hybrid_position, rssi_distances, trilaterate


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for runtime errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _print_json(obj):
    print(json_text(obj))


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _write_json(path, obj):
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    with open(path, "w") as f:
        f.write(text)


def _floats(text, what, n=None):
    """The comma separated numbers of text. ValueError naming `what` for a field
    that is empty or not a number, or for a count other than n when n is given."""
    vals = []
    for j, field in enumerate(text.split(","), 1):
        try:
            vals.append(float(field))
        except ValueError:
            raise ValueError(f"field {j} of the {what} is not a number: {field.strip()!r}") from None
    if n is not None and len(vals) != n:
        raise ValueError(f"expected {n} {what}, got {len(vals)}")
    return vals


def _is_header(line):
    """True when a non-empty field of the CSV line is not a number."""
    try:
        [float(field) for field in line.split(",") if field.strip()]
    except ValueError:
        return True
    return False


def _read_rows(path, what, n=None):
    """The rows of a CSV file of numbers as a (rows, n) array; n defaults to the first row's count.

    Blank lines are skipped, and so is the first non-blank line if it is a
    header. Any other bad row raises ValueError naming the file and its line,
    counted from 1.
    """
    with open(path) as f:
        lines = [(i, line) for i, line in enumerate(f, 1) if line.strip()]
    if lines and _is_header(lines[0][1]):
        lines = lines[1:]
    if not lines:
        raise ValueError(f"{path} has no data rows")
    rows = []
    for i, line in lines:
        try:
            rows.append(_floats(line, what, n))
        except ValueError as e:
            raise ValueError(f"{path} line {i}: {e}") from None
        n = len(rows[0])
    return np.array(rows)


def _snapshots_csv(x: SnapshotMatrix) -> str:
    """The snapshot file `locus aoa` reads: one row per sensor, a re,im pair per snapshot."""
    pairs = np.stack([x.data.real, x.data.imag], axis=-1).reshape(len(x.data), -1)
    return "".join(",".join(map(repr, row)) + "\n" for row in pairs.tolist())


def _read_snapshots(path, spacing_wavelengths) -> SnapshotMatrix:
    """The snapshots of a file that _snapshots_csv wrote; the spacing is not stored there."""
    rows = _read_rows(path, "values")
    if rows.shape[0] < 2 or rows.shape[1] % 2:
        raise ValueError(f"{path}: expected two or more sensor rows of re,im pairs, got shape {rows.shape}")
    array = ArraySpec(rows.shape[0], spacing_wavelengths, rows.shape[1] // 2)
    return SnapshotMatrix(rows[:, 0::2] + 1j * rows[:, 1::2], array)


def _grid_step(text):
    """The value of --grid-step, refused (exit 1, naming the flag) unless grid_size takes it."""
    try:
        grid_size(float(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return float(text)


def _int_at_least(low):
    """A flag type that refuses (exit 1, naming the flag) anything but an integer >= low."""

    def parse(text):
        if not (text.isdecimal() and int(text) >= low):
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def _finite_at_least(low):
    """A flag type that refuses (exit 1, naming the flag) anything but a finite number >= low."""

    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text!r}")
        return value

    return parse


_seed = _int_at_least(0)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_fit(args):
    rows = _read_rows(args.input, "values", 2)
    result = fit_path_loss(rows[:, 0], rows[:, 1], d0=args.d0)
    _print_json({**asdict(result.params), "residual_rms": result.residual_rms, "n_samples": len(rows)})
    return 0


def _cmd_simulate_rssi(args):
    params = PathLossParams(args.gamma, args.sigma, args.p_r_d0, args.d0)
    dists = _floats(args.distances, "distances")
    rng = np.random.default_rng(args.seed)
    rows = [(d, simulate_rssi(params, d, rng)) for d in dists for _ in range(args.n)]
    if args.format == "csv":
        print("distance_m,rssi_dbm")
        for d, r in rows:
            print(f"{d:.6f},{r:.6f}")
    else:
        _print_json({"samples": [{"distance_m": d, "rssi_dbm": r} for d, r in rows]})
    return 0


def _cmd_simulate_snapshots(args):
    spec = ArraySpec(m=args.m, spacing_wavelengths=args.spacing, snapshots=args.snapshots)
    angles = _floats(args.angles, "angles")
    rng = np.random.default_rng(args.seed)
    x = simulate_snapshots(spec, angles, noise_power_db=-args.snr_db, rng=rng)
    text = _snapshots_csv(x)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_simulate_dataset(args):
    config = load_config(args.config)
    by_name = {spec.env.name: spec for spec in config.envs}
    if args.env_name not in by_name:
        raise ValueError(f"environment {args.env_name!r} not in config ({sorted(by_name)})")
    if args.n_per_point is not None:
        config = replace(config, n_per_point=args.n_per_point)
    ds = config.dataset(by_name[args.env_name], args.seed, args.layout)
    _write_json(args.out, dataset_to_dict(ds))
    print(f"wrote {args.out} ({ds.n} samples, {ds.rejects} redraws)")
    return 0


def _cmd_locate(args):
    if (args.gamma is None) != (args.p_r_d0 is None):
        raise UsageError("--gamma and --p-r-d0 go together")
    if args.d0 is not None and args.gamma is None:
        raise UsageError("--d0 goes only with --gamma and --p-r-d0; a --params file carries its own d0")
    if args.method == "hybrid" and args.aoa is None:
        raise UsageError("--method hybrid needs --aoa A1,A2,A3")
    env = standard_environment(args.room) if args.room else read_section(Environment, _read_json(args.env), "")
    # sigma is 0.0: inverting RSSI to distance reads only gamma, p_r_d0 and d0.
    params = (path_loss_from_dict(_read_json(args.params)) if args.gamma is None
              else PathLossParams(args.gamma, 0.0, args.p_r_d0, PathLossParams.d0 if args.d0 is None else args.d0))
    rssi = _floats(args.rssi, "rssi values", 3)
    if args.method == "trilat":
        est = trilaterate(env, params, rssi)
    else:
        est = hybrid_position(env, rssi_distances(params, rssi), _floats(args.aoa, "angles", 3))
    _print_json({"x": est.p.x, "y": est.p.y, "residual": est.residual})
    return 0


def _cmd_aoa(args):
    x = _read_snapshots(args.input, args.spacing)
    if args.spectrum:
        grid, power = music_spectrum(x, args.k, args.grid_step)
        with open(args.spectrum, "w") as f:
            f.write("angle_deg,power\n")
            for a, p in zip(grid, power):
                f.write(f"{a:.6f},{p:.6e}\n")
    angles = estimate_aoa(x, args.k, grid_step_deg=args.grid_step)
    _print_json({"angles_deg": list(angles)})
    return 0


def _cmd_train(args):
    spec = neural.TrainSpec(args.learning_rate, args.batch_size, args.epochs)
    ds = dataset_from_dict(_read_json(args.data))
    train_ds, test_ds = split(ds, args.train_fraction, seed=args.split_seed)
    stats = NormStats.fit(train_ds)
    xn = stats.normalize_features(train_ds.features)
    yn = stats.normalize_targets(train_ds.targets)
    model = neural.build(args.model, xn, args.seed, args.rbf_centers)
    [(_, history)] = neural.fit([(model, xn, yn, args.seed)], spec, ridge=args.ridge)
    try:
        train_mae, test_mae = (evaluate_mae(model, part, stats)[0] for part in (train_ds, test_ds))
    except ValueError as e:
        raise ValueError(f"training failed: {e}") from e
    doc = neural.model_to_dict(model, norm=stats.to_dict())
    doc["split"] = json_form(SplitSpec(args.train_fraction, args.split_seed))
    _write_json(args.out, doc)
    _print_json({"model": args.model, "out": args.out, "steps": int(history.size), "final_loss": float(history[-1]),
                 "train_mae_mm": train_mae, "test_mae_mm": test_mae})
    return 0


def _load_model(path):
    doc = _read_json(path)
    model, norm = neural.model_from_dict(doc)
    return model, NormStats.from_dict(norm, model.input_dim), doc


def _finite_rows(values, what):
    """values unchanged, or ValueError naming its first non-finite row, counted from 1."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"{what} {bad[0] + 1} is not finite")
    return values


def _cmd_predict(args):
    model, stats, _ = _load_model(args.model)
    rows = (_read_rows(args.input, "features", model.input_dim) if args.features is None
            else [_floats(part, "features", model.input_dim) for part in args.features.split(";")])
    x = _finite_rows(np.array(rows, dtype=float), "feature row")
    pred = model.forward_batch(stats.normalize_features(x))
    pred = _finite_rows(stats.denormalize_targets(pred), "prediction for feature row")
    if args.format == "csv":
        print("x_m,y_m")
        for px, py in pred:
            print(f"{px:.6f},{py:.6f}")
    else:
        _print_json({"predictions": [[float(px), float(py)] for px, py in pred]})
    return 0


def _cmd_eval(args):
    model, stats, doc = _load_model(args.model)
    ds = dataset_from_dict(_read_json(args.data))
    if ds.features.shape[1] != model.input_dim:
        raise ValueError(f"the model takes {model.input_dim} features, "
                         f"but the dataset's {ds.layout} layout has {ds.features.shape[1]}")
    if doc.get("split") is not None:
        spec = read_section(SplitSpec, doc["split"], "split.")
        _, ds = split(ds, spec.train_fraction, seed=spec.seed)
    overall, per_point = evaluate_mae(model, ds, stats)
    _print_json({"model_family": model.family, "environment": ds.env.name, "layout": ds.layout,
                 "per_point_mae_mm": per_point, "overall_mae_mm": overall, "n_test": ds.n})
    return 0


def _cmd_report(args):
    config = load_config(args.config)
    report = run_experiment(config, out_dir=args.out)
    keys = ("mae_table_mm", "improvement_percent", "baseline_mae_mm", "total_rejects")
    _print_json({"out_dir": args.out, **{key: report[key] for key in keys}})
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="locus", description="Indoor positioning toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="fit path loss parameters from distance,rssi CSV")
    p.add_argument("--input", required=True, help="CSV file with distance_m,rssi_dbm rows")
    p.add_argument("--d0", type=float, default=PathLossParams.d0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="generate synthetic measurements")
    sim = p.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    q = sim.add_parser("rssi", help="draw shadowed RSSI readings at given distances")
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--sigma", type=float, default=0.0)
    q.add_argument("--p-r-d0", type=float, required=True)
    q.add_argument("--d0", type=float, default=PathLossParams.d0)
    q.add_argument("--distances", required=True, help="comma separated distances in meters")
    q.add_argument("--n", type=_int_at_least(1), default=1, help="draws per distance")
    q.add_argument("--seed", type=_seed, default=0)
    q.add_argument("--format", choices=["json", "csv"], default="json")
    q.set_defaults(func=_cmd_simulate_rssi)

    q = sim.add_parser("snapshots", help="simulate array snapshots for given source angles")
    q.add_argument("--m", type=int, default=ArraySpec.m, help="sensor count")
    q.add_argument("--spacing", type=float, default=ArraySpec.spacing_wavelengths, help="element spacing in wavelengths")
    q.add_argument("--snapshots", type=int, default=ArraySpec.snapshots)
    q.add_argument("--angles", required=True, help="comma separated source angles in degrees")
    q.add_argument("--snr-db", type=float, default=MusicSpec.snr_db)
    q.add_argument("--seed", type=_seed, default=0)
    q.add_argument("--out", help="write CSV here instead of stdout")
    q.set_defaults(func=_cmd_simulate_snapshots)

    q = sim.add_parser("dataset", help="generate a measurement dataset for one environment")
    q.add_argument("--config", required=True, help="experiment config JSON")
    q.add_argument("--env-name", required=True)
    q.add_argument("--layout", choices=LAYOUTS, default="hybrid")
    q.add_argument("--n-per-point", type=int, default=None)
    q.add_argument("--seed", type=_seed, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_simulate_dataset)

    p = sub.add_parser("locate", help="closed-form position from one observation")
    p.add_argument("--method", choices=["trilat", "hybrid"], default="trilat")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--env", help="environment JSON file")
    g.add_argument("--room", choices=sorted(STANDARD_ROOMS), help="standard room by name")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--params", help="path loss params JSON (object or list of 3)")
    g.add_argument("--gamma", type=float, help="path loss exponent, with --p-r-d0")
    p.add_argument("--p-r-d0", type=float)
    p.add_argument("--d0", type=float, help=f"reference distance, with --gamma (default {PathLossParams.d0})")
    p.add_argument("--rssi", required=True, help="three comma separated RSSI values")
    p.add_argument("--aoa", help="three comma separated angles (hybrid method)")
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("aoa", help="estimate source angles from a snapshot CSV")
    p.add_argument("--input", required=True, help="snapshot CSV (see simulate snapshots)")
    p.add_argument("--k", type=int, default=1, help="source count")
    p.add_argument("--spacing", type=float, default=ArraySpec.spacing_wavelengths)
    # Finer than the sweep's music.grid_step_deg: one estimate, not one per sample.
    p.add_argument("--grid-step", type=_grid_step, default=0.1)
    p.add_argument("--spectrum", help="also write the angle,power scan to this CSV")
    p.set_defaults(func=_cmd_aoa)

    p = sub.add_parser("train", help="train a position regressor on a dataset file")
    p.add_argument("--data", required=True, help="dataset JSON from simulate dataset")
    p.add_argument("--model", choices=tuple(neural.FAMILIES), required=True)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--learning-rate", type=float, default=neural.TrainSpec.learning_rate)
    p.add_argument("--batch-size", type=int, default=neural.TrainSpec.batch_size)
    p.add_argument("--epochs", type=int, default=neural.TrainSpec.epochs)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--split-seed", type=_seed, default=0)
    p.add_argument("--train-fraction", type=float, default=ExperimentConfig.train_fraction)
    p.add_argument("--rbf-centers", type=_int_at_least(1), default=ExperimentConfig.rbf_centers)
    p.add_argument("--ridge", type=_finite_at_least(0), default=neural.RIDGE_DEFAULT)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict positions with a trained model")
    p.add_argument("--model", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--features", help="semicolon separated rows of comma separated features")
    g.add_argument("--input", help="CSV file, one feature row per line")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="evaluate a trained model on a dataset's test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="run the full experiment sweep from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="report_out", help="output directory for tables")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"locus: error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure: diagnostics on stderr, exit 2
        print(f"locus: error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
