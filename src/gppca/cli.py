"""Command-line front end: dataset generation, training, prediction, adaptation,
experiment runs, and plot-data export.

All commands share one JSON configuration format, validated against the
schema below; unknown keys are rejected with their dotted path. Every output
bundle records the hash of the canonical configuration, and rerunning a
command with the same configuration rewrites byte-identical files (timings
are printed, never written).

This module only parses documents, flags and CSV files, calls the library and
maps its errors to exit codes: every experiment and model default and range
check lives in `evaluation` and in the configuration types it builds.

`evaluate` sets each cell's training-set size from `evaluate.n_sweep` and its
seed from `evaluate.base_seed`, so it ignores `data.samples_per_task`,
`data.sequences_per_task` and `data.seed` in a configuration shared with
`generate`, and leaves them out of the configuration and hash it records.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from gppca import datasets as ds
from gppca import evaluation as ev
from gppca import gp_pca
from gppca.epca import ConvergenceError, FitOptions, ValidityError, ValidityStallError
from gppca.gaussian_geometry import DecompositionError
from gppca.kernels_gp import GpPrior, KernelConfig, TaskData

__all__ = ["main", "ConfigError", "DataError"]


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


# ---------------------------------------------------------------------------
# Configuration schema. Leaves are the value's type; every key may be absent,
# none may be null. Dicts nest. [float] is a list of numbers.

_FIT_SCHEMA = {
    "max_iters": int,
    "rel_tol": float,
}

_SCHEMA = {
    "experiment": str,
    "data": {
        # artificial
        "num_tasks": int,
        "samples_per_task": int,
        "noise_variance": float,
        "z_values": [float],
        "eval_points_per_task": int,
        "num_new_tasks": int,
        "new_task_samples": int,
        # vdp
        "alphas": [float],
        "sequences_per_task": int,
        "points_per_sequence": int,
        "dt": float,
        "substep": float,
        "initial_state": [float],
        "eval_sequences_per_task": int,
        "new_task_sequences": int,
        # shared
        "seed": int,
    },
    "kernel": {"kind": str, "lengthscale": float},
    "beta": float,
    "prior_mean": float,
    "model": {
        "mode": str,
        "latent_dim": int,
        "inducing_count": int,
    },
    "fit": dict(_FIT_SCHEMA),
    "adapt": dict(_FIT_SCHEMA),
    "evaluate": {
        "n_sweep": list,
        "repetitions": int,
        "base_seed": int,
        "methods": list,
    },
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate(doc, schema, path="") -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"section {path or '<root>'} must be an object")
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown configuration key {where!r}")
        spec = schema[key]
        if isinstance(spec, dict):
            _validate(value, spec, where)
            continue
        if value is None:
            raise ConfigError(f"key {where!r} must not be null; omit it to use the default")
        if spec == [float]:
            if not (isinstance(value, list) and all(map(_is_number, value))):
                raise ConfigError(f"key {where!r} must be a list of numbers, got {value!r}")
            continue
        if spec is float and _is_number(value):
            continue
        if spec is int and isinstance(value, bool):
            raise ConfigError(f"key {where!r} must be an integer")
        if not isinstance(value, spec):
            raise ConfigError(f"key {where!r} must be of type {spec.__name__}")


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration file {path} is not valid JSON: {exc}")
    _validate(doc, _SCHEMA)
    return doc


def _require_experiment(doc: dict, flag) -> str:
    experiment = flag or doc.get("experiment")
    if experiment is None:
        raise ConfigError("missing required field 'experiment' (set it in the config or pass --experiment)")
    if experiment not in ("artificial", "vdp"):
        raise ConfigError(f"experiment must be 'artificial' or 'vdp', got {experiment!r}")
    return experiment


def _data_config(doc: dict, experiment: str) -> dict:
    data = dict(doc.get("data", {}))
    generator = ds.ArtificialConfig if experiment == "artificial" else ds.VdpConfig
    allowed = {f.name for f in dataclasses.fields(generator)}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"key 'data.{key}' does not apply to the {experiment} experiment")
    if "initial_state" in data:
        data["initial_state"] = tuple(float(v) for v in data["initial_state"])
    return data


def _fit_options(doc: dict, section: str) -> FitOptions:
    """The `fit` or `adapt` section over that section's own defaults."""
    default = ev.ADAPT_OPTIONS if section == "adapt" else FitOptions()
    try:
        return dataclasses.replace(default, **doc.get(section, {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} options: {exc}")


def _hyper(doc: dict, experiment: str) -> GpPrior:
    defaults = ev.DEFAULT_HYPERPARAMS[experiment]
    kernel_doc = doc.get("kernel", {})
    lengthscale = float(kernel_doc.get("lengthscale", defaults["lengthscale"]))
    try:
        kernel = KernelConfig(kind=kernel_doc.get("kind", "rbf"), lengthscale=lengthscale)
    except ValueError as exc:
        raise ConfigError(f"invalid 'kernel' section: {exc}")
    beta = float(doc.get("beta", defaults["beta"]))
    try:
        return GpPrior(kernel=kernel, beta=beta, mean_fn=doc.get("prior_mean", 0.0))
    except ValueError as exc:
        raise ConfigError(f"invalid key 'beta' or 'prior_mean': {exc}")


def _float_list(values) -> list:
    return [float(v) for v in np.asarray(values, dtype=float).reshape(-1)]


# ---------------------------------------------------------------------------
# Commands.


def cmd_generate(args) -> int:
    doc = load_config(args.config)
    experiment = _require_experiment(doc, args.experiment)
    data_cfg = _data_config(doc, experiment)
    artificial = experiment == "artificial"
    try:
        generator_cfg = (ds.ArtificialConfig if artificial else ds.VdpConfig)(**data_cfg)
        # A trajectory that diverges (a large vdp alpha) makes a non-finite task.
        dataset = (ds.gen_artificial if artificial else ds.vdp_tasks)(generator_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'data' section: {exc}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ds.write_dataset_csv(dataset, outdir / "dataset.csv")
    echo = dict(doc)
    echo["experiment"] = experiment
    manifest = {
        "experiment": experiment,
        "config": echo,
        "config_hash": ev.config_hash(echo),
        "train_task_ids": [t.task_id for t in dataset.train_tasks],
        "new_task_ids": [t.task_id for t in dataset.new_tasks],
        "latents_train": _float_list(dataset.latents_train),
        "latents_new": _float_list(dataset.latents_new),
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {outdir / 'dataset.csv'} and manifest (config hash {manifest['config_hash'][:12]})")
    return 0


def _load_manifest(data_dir: Path) -> dict:
    path = data_dir / "manifest.json"
    if not path.exists():
        raise DataError(f"no manifest.json in {data_dir}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}")
    if not isinstance(manifest, dict):
        raise DataError(f"{path} must hold a JSON object")
    return manifest


def _load_training_data(data_dir: Path):
    manifest = _load_manifest(data_dir)
    ids = [manifest.get("train_task_ids"), manifest.get("new_task_ids")]
    if not (
        manifest.get("experiment") in ("artificial", "vdp") and "config_hash" in manifest
        and all(isinstance(v, list) and all(type(i) is int for i in v) for v in ids)
    ):
        raise DataError(
            f"{data_dir / 'manifest.json'} lacks what `generate` writes: 'experiment', "
            "'config_hash' and the integer lists 'train_task_ids' and 'new_task_ids'"
        )
    csv_path = data_dir / "dataset.csv"
    if not csv_path.exists():
        raise DataError(f"no dataset.csv in {data_dir}")
    try:
        return manifest, ds.read_dataset_csv(csv_path, *ids)
    except ValueError as exc:
        raise DataError(f"{csv_path}: {exc}")


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    manifest, dataset = _load_training_data(data_dir)
    doc = load_config(args.config) if args.config else manifest.get("config", {})
    _validate(doc, _SCHEMA)
    prior = _hyper(doc, manifest["experiment"])
    settings = {**ev.MODEL_DEFAULTS, **doc.get("model", {})}
    if args.mode is not None:
        settings["mode"] = args.mode
    if args.latent_dim is not None:
        settings["latent_dim"] = args.latent_dim
    tasks = dataset.train_tasks
    try:
        ev.check_model(**settings, tasks=len(tasks))
    except ValueError as exc:
        raise ConfigError(str(exc))
    opts = _fit_options(doc, "fit")
    model = ev.train_model(tasks, prior, **settings, opts=opts)
    mode = settings["mode"]
    train_echo = {
        "manifest_hash": manifest["config_hash"],
        "mode": mode,
        "latent_dim": settings["latent_dim"],
        "kernel": {"kind": prior.kernel.kind, "lengthscale": prior.kernel.lengthscale},
        "beta": prior.beta,
        "prior_mean": prior.mean_fn,
        "fit": {"max_iters": opts.max_iters, "rel_tol": opts.rel_tol},
        "inducing_count": len(model.anchor) if mode == "sparse" else None,
    }
    gp_pca.save_model(model, args.out, config_hash=ev.config_hash(train_echo))
    fr = model.fit_result
    print(
        f"trained {mode} model on {len(tasks)} tasks: objective {fr.objective!r} "
        f"after {fr.iterations} iterations (converged={fr.converged})"
    )
    print(f"wrote {args.out}")
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, num = spec.split(":")
        return np.linspace(float(lo), float(hi), int(num)).reshape(-1, 1)
    except ValueError:
        raise ConfigError(f"--grid must look like 'start:stop:count', got {spec!r}")


def _read_points_csv(path, with_y: bool, columns: int) -> np.ndarray:
    """The rows of a CSV with header x[,x1,...] (then y when `with_y`), as an array.

    It must have `columns` x columns, rows of the header's width and only
    finite values.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(v) for v in rec] for rec in reader]
    except FileNotFoundError:
        raise DataError(f"file not found: {path}")
    except (StopIteration, ValueError) as exc:
        raise DataError(f"{path}: malformed CSV ({exc})")
    x_cols = header[:-1] if with_y else header
    if not all(h.startswith("x") for h in x_cols) or (with_y and header[-1:] != ["y"]):
        raise DataError(f"{path}: expected header x[,x1,...]{',y' if with_y else ''}, got {header}")
    if len(x_cols) != columns:
        raise DataError(f"{path}: {len(x_cols)} input columns; the model's inputs have {columns}")
    if not rows or any(len(row) != len(header) for row in rows):
        raise DataError(f"{path}: expected one or more rows of {len(header)} values")
    values = np.asarray(rows)
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: every value must be finite")
    return values


def _write_prediction_csv(path, points: np.ndarray, means, variances) -> None:
    x_cols = ["x"] if points.shape[1] == 1 else [f"x{j}" for j in range(points.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*x_cols, "mean", "variance"])
        for row, m, v in zip(points, means, variances):
            writer.writerow([*(repr(float(c)) for c in row), repr(float(m)), repr(float(v))])


def cmd_predict(args) -> int:
    model = _load_model_checked(args.model)
    if args.task is not None and args.weights:
        raise ConfigError("pass either --task or --weights, not both")
    if args.task is not None:
        target = args.task
        if not 0 <= target < model.num_tasks:
            raise ConfigError(f"--task {target} out of range [0, {model.num_tasks})")
    elif args.weights:
        try:
            target = np.asarray([float(v) for v in args.weights.split(",")])
        except ValueError:
            raise ConfigError(f"--weights must be comma-separated numbers, got {args.weights!r}")
        if not np.isfinite(target).all():
            raise ConfigError(f"--weights must be finite, got {args.weights!r}")
        if target.shape[0] != model.latent_dim:
            raise ConfigError(
                f"--weights needs {model.latent_dim} components, got {target.shape[0]}"
            )
    else:
        raise ConfigError("provide either --task or --weights")
    if args.grid:
        points = _parse_grid(args.grid)
    elif args.inputs:
        points = _read_points_csv(args.inputs, with_y=False, columns=model.anchor.shape[1])
    else:
        raise ConfigError("provide either --grid or --inputs")
    means, variances = gp_pca.predict_batch(model, target, points)
    _write_prediction_csv(args.out, points, means, variances)
    print(f"wrote {args.out} ({points.shape[0]} predictions)")
    return 0


def _load_model_checked(path) -> gp_pca.GpPcaModel:
    try:
        return gp_pca.load_model(path)
    except FileNotFoundError:
        raise DataError(f"model file not found: {path}")
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot load model {path}: {exc}")


def cmd_adapt(args) -> int:
    model = _load_model_checked(args.model)
    rows = _read_points_csv(args.data, with_y=True, columns=model.anchor.shape[1])
    fewshot = TaskData(inputs=rows[:, :-1], outputs=rows[:, -1], task_id=-1)
    doc = load_config(args.config) if args.config else {}
    opts = _fit_options(doc, "adapt")
    w = gp_pca.adapt_new_task(model, fewshot, opts)
    print("adapted weights:", json.dumps([float(v) for v in w]))
    if args.out:
        augmented = gp_pca.with_extra_task(model, w)
        gp_pca.save_model(augmented, args.out, config_hash="")
        print(f"wrote {args.out} (task index {augmented.num_tasks - 1})")
    return 0


def cmd_evaluate(args) -> int:
    doc = load_config(args.config)
    experiment = _require_experiment(doc, None)
    data_cfg = _data_config(doc, experiment)
    for ignored in ("samples_per_task", "sequences_per_task", "seed"):  # set per cell
        data_cfg.pop(ignored, None)
    prior = _hyper(doc, experiment)
    try:
        cfg = ev.ExperimentConfig(
            experiment=experiment,
            **doc.get("evaluate", {}),
            **doc.get("model", {}),
            lengthscale=prior.kernel.lengthscale,
            beta=prior.beta,
            prior_mean=prior.mean_fn,
            data=data_cfg,
            fit_opts=_fit_options(doc, "fit"),
            adapt_opts=_fit_options(doc, "adapt"),
            jobs=args.jobs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    try:
        report = ev.run_experiment(cfg)
    except ev.DataSectionError as exc:
        raise ConfigError(str(exc))
    ev.write_report_files(report, args.out)
    print(f"config hash {report.config_hash[:12]}; wrote report files to {args.out}")
    for row in report.summary():
        print(
            f"  {row['method']:8s} N={row['n']:<4d} {row['split']:5s} "
            f"rmse {row['mean_rmse']:.4f} +- {row['std_rmse']:.4f}"
        )
    print(f"total wall clock: {report.total_seconds:.1f}s")
    return 0


def cmd_export_plot(args) -> int:
    if args.kind == "rmse":
        if not args.report:
            raise ConfigError("--kind rmse needs --report DIR")
        summary_path = Path(args.report) / "summary.json"
        if not summary_path.exists():
            raise DataError(f"no summary.json in {args.report}")
        with open(summary_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "N", "split", "mean_rmse", "std_rmse"])
            for row in summary["summary"]:
                writer.writerow(
                    [row["method"], row["n"], row["split"],
                     repr(row["mean_rmse"]), repr(row["std_rmse"])]
                )
    elif args.kind == "curves":
        if not args.model:
            raise ConfigError("--kind curves needs --model FILE")
        model = _load_model_checked(args.model)
        points = _parse_grid(args.grid or "0:1:101")
        latents = None
        if args.data:
            latents = _load_manifest(Path(args.data)).get("latents_train")
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            header = ["task_id", "x", "mean", "variance"]
            if latents is not None:
                header.append("latent")
            writer.writerow(header)
            for i in range(model.num_tasks):
                means, variances = gp_pca.predict_batch(model, i, points)
                for x, m, v in zip(points[:, 0], means, variances):
                    row = [i, repr(float(x)), repr(float(m)), repr(float(v))]
                    if latents is not None:
                        row.append(repr(float(latents[i])) if i < len(latents) else "")
                    writer.writerow(row)
    else:
        raise ConfigError(f"unknown --kind {args.kind!r}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gppca",
        description="Subspace learning over GP posteriors: generate, train, predict, adapt, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an experiment dataset")
    p.add_argument("--experiment", choices=["artificial", "vdp"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit the shared subspace on a dataset")
    p.add_argument("--data", required=True, help="dataset directory from `generate`")
    p.add_argument("--mode", choices=["exact", "sparse"])
    p.add_argument("--latent-dim", type=int, dest="latent_dim")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--task", type=int)
    p.add_argument("--weights")
    p.add_argument("--grid", help="start:stop:count over a 1-D input range")
    p.add_argument("--inputs", help="CSV of input points (x columns)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("adapt", help="place a new task on the subspace from few observations")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="few-shot CSV with columns x[,...],y")
    p.add_argument("--config")
    p.add_argument("--out", help="write the augmented model here")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("evaluate", help="run the multi-task benchmark protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-plot", help="emit plot-ready CSV tables")
    p.add_argument("--kind", required=True, choices=["rmse", "curves"])
    p.add_argument("--report", help="report directory from `evaluate`")
    p.add_argument("--model", help="model file for --kind curves")
    p.add_argument("--data", help="dataset directory (adds latents to curves)")
    p.add_argument("--grid", help="start:stop:count for --kind curves")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (DecompositionError, ValidityError, ValidityStallError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
