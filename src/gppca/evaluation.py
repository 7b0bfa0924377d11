"""Benchmark protocol: subspace-sharing GP versus independent GP baselines.

For each repetition and each training-set size N, one cell generates one
dataset, and every method evaluates on its splits. N comes from `n_sweep`
and each cell's generator seed from `base_seed` and the repetition, so the
generator keys `samples_per_task`, `sequences_per_task` and `seed` of
`data` have no effect here. A generator that rejects a cell's dataset (a
vdp trajectory that diverges) raises `DataSectionError`. The cell walks its
tasks as one ordered list, training tasks first, then held-out tasks. The
subspace method trains on the training tasks jointly, places each held-out
task on the learned subspace by few-shot projection, and predicts every
task from its weights; the baseline fits a plain GP per task on that
task's own data. RMSE is computed per task over its evaluation split,
averaged over the training or the held-out tasks to one cell value, and
mean/std are reported over repetitions. `summary.json` records one sha256
of each cell's evaluation arrays under "rep:n" (`split_hashes`), so two
runs can be checked to have evaluated on the same data.

Report files are deterministic given the configuration: the wall clock is
kept in memory and printed, never written, and the worker count is left out
of the recorded configuration, so rerunning a configuration reproduces the
output files byte for byte.

This module owns every experiment and model default, every range check on
those settings (`check_model`, `ExperimentConfig`) and the one step that
trains a model from them (`train_model`); the command line only parses.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import time
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Optional

import numpy as np

from gppca import gp_pca
from gppca.datasets import ArtificialConfig, VdpConfig, gen_artificial, vdp_tasks
from gppca.epca import FitOptions
from gppca.kernels_gp import GpPrior, KernelConfig, gp_predictive_batch
from gppca.sparse_gp import grid_inducing

__all__ = [
    "DataSectionError",
    "ExperimentConfig",
    "ExperimentReport",
    "rmse",
    "run_experiment",
    "config_hash",
    "check_model",
    "train_model",
    "write_report_files",
]

METHOD_GP = "gp"
METHOD_SUBSPACE = "gp_epca"
# Few-shot projection controls when a configuration sets none.
ADAPT_OPTIONS = FitOptions(rel_tol=1e-6, max_iters=20_000)
# Kernel lengthscale and noise precision per experiment when a configuration sets none.
DEFAULT_HYPERPARAMS = {
    "artificial": {"lengthscale": 0.2, "beta": 25.0},
    "vdp": {"lengthscale": 0.6, "beta": 50.0},
}
# Model settings when a configuration sets none.
MODEL_DEFAULTS = {"mode": "sparse", "latent_dim": 1, "inducing_count": 12}


class DataSectionError(ValueError):
    """The generator rejected a cell's dataset: the `data` section is at fault, not the model.

    `ExperimentConfig` checks each generator configuration before any cell
    runs, but only generating shows, for instance, that a vdp alpha makes
    RK4 diverge; a cell then raises this, with the generator's message.
    """


def rmse(predicted, truth) -> float:
    """Root mean squared error between two equal-length vectors."""
    p = np.asarray(predicted, dtype=float).reshape(-1)
    t = np.asarray(truth, dtype=float).reshape(-1)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"need equal nonempty lengths, got {p.shape} and {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def check_model(mode, latent_dim, inducing_count, tasks: int) -> None:
    """Raise ValueError naming the model key that is out of range for `tasks` training tasks.

    `inducing_count` is checked in sparse mode only; exact mode does not use it.
    """
    if mode not in ("exact", "sparse"):
        raise ValueError(f"mode must be 'exact' or 'sparse', got {mode!r}")
    if isinstance(latent_dim, bool) or not (isinstance(latent_dim, int) and 0 <= latent_dim < tasks):
        raise ValueError(
            f"latent_dim must be an integer in [0, {tasks - 1}] "
            f"for {tasks} training tasks, got {latent_dim!r}"
        )
    if mode == "sparse":
        _check_integer("inducing_count", inducing_count, 1)


def train_model(
    tasks, prior: GpPrior, mode: str, latent_dim: int, inducing_count: int, opts: FitOptions
) -> gp_pca.GpPcaModel:
    """Fit a model with settings that `check_model` accepts.

    Sparse mode places `inducing_count` grid inducing points over the
    stacked training inputs; exact mode anchors on their union.
    """
    inducing = None
    if mode == "sparse":
        inducing = grid_inducing(np.vstack([t.inputs for t in tasks]), inducing_count)
    return gp_pca.train(tasks, prior, latent_dim, mode=mode, opts=opts, inducing=inducing)


def _check_integer(key: str, value, low: int) -> None:
    """Raise ValueError naming `key` unless `value` is an integer (not a bool) >= `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")


def config_hash(doc) -> str:
    """Hash of the canonical JSON form of a configuration object."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=float)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, each checked at construction.

    A `lengthscale` or `beta` left as None takes the experiment's
    `DEFAULT_HYPERPARAMS`. Construction builds the GP prior from
    `lengthscale`, `beta` and `prior_mean` once and keeps it as the
    attribute `prior`, which every cell reads; it is not a field, so
    `to_dict`, `config_hash` and `summary.json` do not record it twice.
    """

    experiment: str  # "artificial" | "vdp"
    n_sweep: tuple = (10,)
    repetitions: int = 5
    base_seed: int = 0
    methods: tuple = (METHOD_GP, METHOD_SUBSPACE)
    mode: str = MODEL_DEFAULTS["mode"]
    latent_dim: int = MODEL_DEFAULTS["latent_dim"]
    inducing_count: int = MODEL_DEFAULTS["inducing_count"]
    lengthscale: Optional[float] = None  # None: the experiment's DEFAULT_HYPERPARAMS
    beta: Optional[float] = None  # None: the experiment's DEFAULT_HYPERPARAMS
    prior_mean: float = 0.0
    data: dict = field(default_factory=dict)  # generator overrides
    fit_opts: FitOptions = field(default_factory=FitOptions)
    adapt_opts: FitOptions = ADAPT_OPTIONS
    jobs: int = 1  # worker processes; how cells run, not what they compute

    def __post_init__(self):
        if self.experiment not in ("artificial", "vdp"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for key, value in DEFAULT_HYPERPARAMS[self.experiment].items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        kernel = KernelConfig(kind="rbf", lengthscale=self.lengthscale)
        prior = GpPrior(kernel=kernel, beta=self.beta, mean_fn=self.prior_mean)
        object.__setattr__(self, "prior", prior)
        for m in self.methods:
            if m not in (METHOD_GP, METHOD_SUBSPACE):
                raise ValueError(f"unknown method {m!r}")
        for n in self.n_sweep:
            _check_integer("evaluate.n_sweep entry", n, 1)
        object.__setattr__(self, "n_sweep", tuple(int(n) for n in self.n_sweep))
        object.__setattr__(self, "methods", tuple(self.methods))
        _check_integer("evaluate.repetitions", self.repetitions, 1)
        _check_integer("evaluate.base_seed", self.base_seed, 0)
        _check_integer("jobs", self.jobs, 1)
        if not self.n_sweep:
            raise ValueError("evaluate.n_sweep must list at least one training-set size")
        if not self.methods:
            raise ValueError("evaluate.methods must list at least one method")
        for key, values in (("evaluate.n_sweep", self.n_sweep), ("evaluate.methods", self.methods)):
            if len(set(values)) < len(values):
                raise ValueError(f"{key} must not repeat an entry, got {list(values)!r}")
        for n in self.n_sweep:  # the generator's own checks, before any cell runs
            try:
                data_cfg = _generator_config(self, n, self.base_seed)
                tasks = (
                    data_cfg.num_tasks if self.experiment == "artificial"
                    else len(data_cfg.alpha_grid())
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid 'data' section: {exc}") from None
        if METHOD_SUBSPACE in self.methods:
            check_model(self.mode, self.latent_dim, self.inducing_count, tasks)

    def to_dict(self) -> dict:
        """The settings that decide the results: every field except `jobs`."""
        doc = asdict(self)
        del doc["jobs"]
        doc["n_sweep"] = list(self.n_sweep)
        doc["methods"] = list(self.methods)
        return doc


@dataclass
class ExperimentReport:
    config: dict
    config_hash: str
    cells: list  # {method, n, repetition, split, rmse}
    per_task: list  # cells plus task_id and latent
    latents: list  # subspace weights per task: {repetition, n, task_id, kind, latent, w...}
    split_hashes: dict  # "rep:n" -> sha256 of the cell's evaluation arrays
    total_seconds: float  # wall clock of the run; in-memory only

    def summary(self) -> list:
        """Mean and population std of cell RMSE over repetitions."""
        groups: dict = {}
        for c in self.cells:
            groups.setdefault((c["method"], c["n"], c["split"]), []).append(c["rmse"])
        return [
            {
                "method": method,
                "n": n,
                "split": split,
                "mean_rmse": float(np.mean(vals)),
                "std_rmse": float(np.std(vals)),
                "repetitions": len(vals),
            }
            for (method, n, split), vals in sorted(groups.items())
        ]


def _cell_seed(base_seed: int, repetition: int) -> int:
    return int(np.random.SeedSequence(base_seed, spawn_key=(repetition,)).generate_state(1)[0])


def _generator_config(cfg: ExperimentConfig, n: int, seed: int):
    if cfg.experiment == "artificial":
        return ArtificialConfig(**{**cfg.data, "samples_per_task": n, "seed": seed})
    return VdpConfig(**{**cfg.data, "sequences_per_task": n, "seed": seed})


def _make_dataset(cfg: ExperimentConfig, n: int, seed: int):
    generate = gen_artificial if cfg.experiment == "artificial" else vdp_tasks
    try:
        return generate(_generator_config(cfg, n, seed))
    except ValueError as exc:  # e.g. a vdp alpha whose trajectory diverges to a non-finite task
        raise DataSectionError(f"invalid 'data' section: {exc}") from None


def _split_hash(dataset) -> str:
    h = hashlib.sha256()
    for task in [*dataset.train_eval, *dataset.new_eval]:
        h.update(np.ascontiguousarray(task.inputs).tobytes())
        h.update(np.ascontiguousarray(task.outputs).tobytes())
    return h.hexdigest()


def _run_cell(cfg: ExperimentConfig, rep: int, n: int) -> dict:
    seed = _cell_seed(cfg.base_seed, rep)
    dataset = _make_dataset(cfg, n, seed)
    # One ordered list: the first k tasks train the model, the rest are held out.
    k = len(dataset.train_tasks)
    tasks = [*dataset.train_tasks, *dataset.new_tasks]
    evals = [*dataset.train_eval, *dataset.new_eval]
    latents = [*dataset.latents_train, *dataset.latents_new]
    out = {
        "cells": [], "per_task": [], "latents": [],
        "split_hashes": {f"{rep}:{n}": _split_hash(dataset)},
    }

    for method in cfg.methods:
        if method == METHOD_GP:
            weights = None
            means = [gp_predictive_batch(cfg.prior, t, ev.inputs)[0] for t, ev in zip(tasks, evals)]
        else:
            model = train_model(
                dataset.train_tasks, cfg.prior, cfg.mode, cfg.latent_dim, cfg.inducing_count,
                cfg.fit_opts,
            )
            adapted = [gp_pca.adapt_new_task(model, t, cfg.adapt_opts) for t in tasks[k:]]
            weights = [*model.weights, *adapted]
            means = [gp_pca.predict_batch(model, w, ev.inputs)[0] for w, ev in zip(weights, evals)]

        rows = []
        for i, (task, ev, latent, mean) in enumerate(zip(tasks, evals, latents, means)):
            rows.append(
                {
                    "method": method, "n": n, "repetition": rep,
                    "split": "train" if i < k else "test", "task_id": task.task_id,
                    "latent": float(latent), "rmse": rmse(mean, ev.outputs),
                }
            )
            if weights is not None:
                out["latents"].append(
                    {
                        "repetition": rep, "n": n, "task_id": task.task_id,
                        "kind": "train" if i < k else "new", "latent": float(latent),
                        **{f"w{j}": float(v) for j, v in enumerate(weights[i])},
                    }
                )
        out["per_task"].extend(rows)
        for split, part in (("train", rows[:k]), ("test", rows[k:])):
            if part:
                out["cells"].append(
                    {
                        "method": method, "n": n, "repetition": rep, "split": split,
                        "rmse": float(np.mean([r["rmse"] for r in part])),
                    }
                )
    return out


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full protocol; deterministic given the configuration."""
    reps, ns = zip(*[(rep, n) for rep in range(cfg.repetitions) for n in cfg.n_sweep])
    start = time.perf_counter()
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel run pays its import

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outs = list(pool.map(_run_cell, [cfg] * len(reps), reps, ns))
    else:
        outs = [_run_cell(cfg, rep, n) for rep, n in zip(reps, ns)]

    def gathered(key, *order):  # rows that tie on `order` come from repeated settings, equal
        return sorted((row for out in outs for row in out[key]), key=itemgetter(*order))

    return ExperimentReport(
        config=cfg.to_dict(),
        config_hash=config_hash(cfg.to_dict()),
        cells=gathered("cells", "method", "n", "repetition", "split"),
        per_task=gathered("per_task", "method", "n", "repetition", "split", "task_id"),
        latents=gathered("latents", "repetition", "n", "task_id"),
        split_hashes={key: h for out in outs for key, h in out["split_hashes"].items()},
        total_seconds=time.perf_counter() - start,
    )


def write_report_files(report: ExperimentReport, outdir) -> None:
    """Write report.csv, per_task.csv, latents.csv and summary.json.

    The wall clock stays out of the files so identical configurations
    rewrite identical bytes.
    """
    import csv
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    with open(outdir / "report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "N", "repetition", "split", "rmse"])
        for c in report.cells:
            writer.writerow([c["method"], c["n"], c["repetition"], c["split"], repr(c["rmse"])])

    with open(outdir / "per_task.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "N", "repetition", "split", "task_id", "latent", "rmse"])
        for c in report.per_task:
            writer.writerow(
                [c["method"], c["n"], c["repetition"], c["split"], c["task_id"],
                 repr(c["latent"]), repr(c["rmse"])]
            )

    if report.latents:
        w_cols = [k for k in report.latents[0] if k.startswith("w")]
        w_cols.sort(key=lambda k: int(k[1:]))  # w2 before w10
        with open(outdir / "latents.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["repetition", "N", "task_id", "kind", "latent", *w_cols])
            for c in report.latents:
                writer.writerow(
                    [c["repetition"], c["n"], c["task_id"], c["kind"], repr(c["latent"]),
                     *(repr(c[k]) for k in w_cols)]
                )

    summary = {
        "config": report.config,
        "config_hash": report.config_hash,
        "summary": report.summary(),
        "split_hashes": report.split_hashes,
    }
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
