"""Command line interface.

Subcommands: fit, simulate, locate, aoa, train, predict, eval, report.
Exit codes: 0 success, 1 usage error, 2 runtime failure (message on stderr).
Numbers printed to stdout or written into report tables are rounded to six
decimals; model and dataset files keep full precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from . import neural
from .aoa import estimate_aoa, grid_size, music_spectrum
from .channel import ArraySpec, PathLossParams, simulate_rssi, simulate_snapshots, snapshots_from_csv, snapshots_to_csv
from .environment import STANDARD_ROOMS, load_environment, make_environment
from .hybrid import hybrid_position
from .pipeline import (
    ExperimentConfig,
    MusicSpec,
    NormStats,
    UsageError,
    _round6,
    dataset_from_dict,
    dataset_to_dict,
    evaluate_mae,
    load_config,
    path_loss_from_dict,
    run_experiment,
    split,
)
from .plfit import fit_path_loss, read_fit_samples_csv
from .trilat import rssi_distances, trilaterate


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for runtime errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _print_json(obj):
    print(json.dumps(_round6(obj), indent=2, sort_keys=True, allow_nan=False))


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _parse_floats(text, n=None, what="values"):
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse {what}: {text!r}")
    if n is not None and len(vals) != n:
        raise ValueError(f"expected {n} {what}, got {len(vals)}")
    return vals


def _grid_step(text):
    """The value of --grid-step, refused (exit 1, naming the flag) unless grid_size takes it."""
    try:
        grid_size(float(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return float(text)


def _load_env(args):
    if getattr(args, "env", None):
        return load_environment(args.env)
    if getattr(args, "room", None):
        length, width = STANDARD_ROOMS[args.room]
        return make_environment(args.room, length, width)
    raise ValueError("pass --env FILE or --room NAME")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_fit(args):
    with open(args.input) as f:
        samples = read_fit_samples_csv(f.read())
    result = fit_path_loss(samples, d0=args.d0)
    _print_json({**asdict(result.params), "residual_rms": result.residual_rms, "n_samples": result.n_samples})
    return 0


def _cmd_simulate_rssi(args):
    params = PathLossParams(args.gamma, args.sigma, args.p_r_d0, args.d0)
    dists = _parse_floats(args.distances, what="distances")
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
    angles = _parse_floats(args.angles, what="angles")
    rng = np.random.default_rng(args.seed)
    x = simulate_snapshots(spec, angles, noise_power_db=-args.snr_db, rng=rng)
    text = snapshots_to_csv(x)
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
    if args.n_per_point:
        config = replace(config, n_per_point=args.n_per_point)
    ds = config.dataset(by_name[args.env_name], args.seed, args.layout)
    _write_json(args.out, dataset_to_dict(ds))
    print(f"wrote {args.out} ({ds.n} samples, {ds.rejects} redraws)")
    return 0


def _cmd_locate(args):
    env = _load_env(args)
    if args.params:
        params = path_loss_from_dict(_read_json(args.params))
    elif args.gamma is None or args.p_r_d0 is None:
        raise ValueError("pass --params FILE or --gamma/--p-r-d0 (and optionally --sigma/--d0)")
    else:
        params = PathLossParams(args.gamma, args.sigma, args.p_r_d0, args.d0)
    rssi = _parse_floats(args.rssi, 3, "rssi values")
    if args.method == "trilat":
        est = trilaterate(env, params, rssi)
    else:
        if not args.aoa:
            raise ValueError("--method hybrid needs --aoa A1,A2,A3")
        thetas = _parse_floats(args.aoa, 3, "angles")
        est = hybrid_position(env, rssi_distances(params, rssi), thetas)
    _print_json({"x": est.p.x, "y": est.p.y, "residual": est.residual})
    return 0


def _cmd_aoa(args):
    with open(args.input) as f:
        x = snapshots_from_csv(f.read(), spacing_wavelengths=args.spacing)
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
    ds = dataset_from_dict(_read_json(args.data))
    train_ds, test_ds = split(ds, args.train_fraction, seed=args.split_seed)
    stats = NormStats.fit(train_ds)
    xn = stats.normalize_features(train_ds.features)
    yn = stats.normalize_targets(train_ds.targets)
    model = neural.build(args.model, xn, args.seed, args.rbf_centers)
    spec = neural.TrainSpec(args.learning_rate, args.batch_size, args.epochs)
    history = neural.fit([model], [xn], [yn], spec, [args.seed], ridge=args.ridge)[0]
    try:
        train_mae, test_mae = (evaluate_mae(model, part, stats).overall_mae_mm for part in (train_ds, test_ds))
    except ValueError as e:
        raise ValueError(f"training failed: {e}") from e
    doc = neural.model_to_dict(model, norm=stats.to_dict())
    doc["split"] = {"train_fraction": args.train_fraction, "seed": args.split_seed}
    _write_json(args.out, doc)
    _print_json({"model": args.model, "out": args.out, "steps": int(history.size), "final_loss": float(history[-1]),
                 "train_mae_mm": train_mae, "test_mae_mm": test_mae})
    return 0


def _load_model(path):
    doc = _read_json(path)
    model, norm = neural.model_from_dict(doc)
    stats = NormStats.from_dict(norm, model.input_dim) if norm else None
    return model, stats, doc


def _finite_rows(values, what):
    """values unchanged, or ValueError naming its first non-finite row, counted from 1."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"{what} {bad[0] + 1} is not finite")
    return values


def _cmd_predict(args):
    model, stats, _ = _load_model(args.model)
    if args.features:
        rows = [_parse_floats(part, model.input_dim, "features") for part in args.features.split(";")]
    elif args.input:
        with open(args.input) as f:
            rows = []
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(_parse_floats(line, model.input_dim, "features"))
                except ValueError:
                    if rows:
                        raise
                    continue  # tolerate a single header line
    else:
        raise ValueError("pass --features or --input")
    x = _finite_rows(np.array(rows, dtype=float), "feature row")
    pred = model.forward_batch(stats.normalize_features(x) if stats else x)
    pred = _finite_rows(stats.denormalize_targets(pred) if stats else pred, "prediction for feature row")
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
    if stats is None:
        raise ValueError("model file has no normalization stats; retrain with this tool")
    meta = doc.get("split")
    if meta:
        _, test_ds = split(ds, meta["train_fraction"], seed=meta["seed"])
    else:
        test_ds = ds
    report = evaluate_mae(model, test_ds, stats)
    _print_json(report.to_dict())
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
    q.add_argument("--n", type=int, default=1, help="draws per distance")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--format", choices=["json", "csv"], default="json")
    q.set_defaults(func=_cmd_simulate_rssi)

    q = sim.add_parser("snapshots", help="simulate array snapshots for given source angles")
    q.add_argument("--m", type=int, default=ArraySpec.m, help="sensor count")
    q.add_argument("--spacing", type=float, default=ArraySpec.spacing_wavelengths, help="element spacing in wavelengths")
    q.add_argument("--snapshots", type=int, default=ArraySpec.snapshots)
    q.add_argument("--angles", required=True, help="comma separated source angles in degrees")
    q.add_argument("--snr-db", type=float, default=MusicSpec.snr_db)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", help="write CSV here instead of stdout")
    q.set_defaults(func=_cmd_simulate_snapshots)

    q = sim.add_parser("dataset", help="generate a measurement dataset for one environment")
    q.add_argument("--config", required=True, help="experiment config JSON")
    q.add_argument("--env-name", required=True)
    q.add_argument("--layout", choices=["rssi", "hybrid"], default="hybrid")
    q.add_argument("--n-per-point", type=int, default=None)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_simulate_dataset)

    p = sub.add_parser("locate", help="closed-form position from one observation")
    p.add_argument("--method", choices=["trilat", "hybrid"], default="trilat")
    p.add_argument("--env", help="environment JSON file")
    p.add_argument("--room", choices=sorted(STANDARD_ROOMS), help="standard room by name")
    p.add_argument("--params", help="path loss params JSON (object or list of 3)")
    p.add_argument("--gamma", type=float)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--p-r-d0", type=float)
    p.add_argument("--d0", type=float, default=PathLossParams.d0)
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
    p.add_argument("--model", choices=["mlp", "rbf", "cnn"], required=True)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--learning-rate", type=float, default=neural.TrainSpec.learning_rate)
    p.add_argument("--batch-size", type=int, default=neural.TrainSpec.batch_size)
    p.add_argument("--epochs", type=int, default=neural.TrainSpec.epochs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=ExperimentConfig.train_fraction)
    p.add_argument("--rbf-centers", type=int, default=ExperimentConfig.rbf_centers)
    p.add_argument("--ridge", type=float, default=neural.RIDGE_DEFAULT)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict positions with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", help="semicolon separated rows of comma separated features")
    p.add_argument("--input", help="CSV file, one feature row per line")
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
