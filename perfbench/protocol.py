"""One round of the evaluation protocol, with its outputs captured.

A round is what `gppca evaluate` runs after reading its configuration:
`evaluation.run_experiment(cfg)` with `jobs = 1`, then
`evaluation.write_report_files`. The program's own code runs; `Capture`
only wraps, at the module attributes that `evaluation._run_cell` calls
through, the functions whose outputs the checks need and whose time the
metrics report:

- `evaluation._run_cell`: a cell that raises is recorded and returns no rows,
  so the round goes on (`run_experiment` alone stops at the first exception);
- `evaluation._make_dataset`: the generated dataset gets the evaluation
  splits the benchmark drew from its seed (`workloads.cell_inputs`);
- `evaluation.gp_predictive_batch`, `evaluation.grid_inducing`,
  `gp_pca.train`, `gp_pca.adapt_new_task`, `gp_pca.predict_batch`: their
  results are kept, and the last three are timed.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from gppca import evaluation, gp_pca
from gppca.evaluation import METHOD_SUBSPACE, ExperimentConfig

from spans import Patches


@dataclass
class CellRun:
    """Everything one cell produced, with the wall time of its timed calls."""

    n: int
    repetition: int
    dataset: object = None
    inducing: object = None
    model: object = None
    baseline: list = field(default_factory=list)  # (means, variances) per train task, then new
    adapted: list = field(default_factory=list)  # weights per held-out task
    predictions: list = field(default_factory=list)  # (means, variances) per train task, then new
    train_s: float = 0.0
    adapt_s: float = 0.0
    predict_s: float = 0.0
    predict_points: int = 0
    error: Optional[str] = None  # "ExcType: message" when the cell raised


class Capture:
    """The cells of one round, filled in by wrappers around the program's calls."""

    def __init__(self, inputs: dict):
        self.inputs = inputs  # (rep, n) -> workloads.CellInputs
        self.cells: list[CellRun] = []

    def install(self, patches: Patches) -> None:
        patches.replace(evaluation, "_run_cell", self._run_cell)
        patches.replace(evaluation, "_make_dataset", self._make_dataset)
        patches.replace(evaluation, "gp_predictive_batch", self._keep("baseline"))
        patches.replace(evaluation, "grid_inducing", self._keep("inducing"))
        patches.replace(gp_pca, "train", self._timed("model", "train_s"))
        patches.replace(gp_pca, "adapt_new_task", self._timed("adapted", "adapt_s"))
        patches.replace(gp_pca, "predict_batch", self._timed("predictions", "predict_s", points=True))

    def _run_cell(self, run_cell):
        def run(cfg, rep, n):
            cell = CellRun(n=n, repetition=rep)
            self.cells.append(cell)
            try:
                return run_cell(cfg, rep, n)
            except Exception as exc:  # a failed cell is counted, the round goes on
                cell.error = f"{type(exc).__name__}: {exc}"
                return {"cells": [], "per_task": [], "latents": [], "split_hashes": {}, "timings": {}}

        return run

    def _make_dataset(self, make):
        def made(cfg, n, seed):
            cell = self.cells[-1]
            own = self.inputs[(cell.repetition, n)]
            cell.dataset = replace(
                make(cfg, n, seed), train_eval=list(own.train_eval), new_eval=list(own.new_eval)
            )
            return cell.dataset

        return made

    def _store(self, slot, result) -> None:
        cell = self.cells[-1]
        if isinstance(getattr(cell, slot), list):
            getattr(cell, slot).append(result)
        else:
            setattr(cell, slot, result)

    def _keep(self, slot):
        def make(fn):
            def call(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._store(slot, result)
                return result

            return call

        return make

    def _timed(self, slot, seconds, points=False):
        def make(fn):
            def call(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                cell = self.cells[-1]
                setattr(cell, seconds, getattr(cell, seconds) + elapsed)
                if points:  # predict_batch(model, task_or_weights, x_plus)
                    cell.predict_points += len(args[2])
                self._store(slot, result)
                return result

            return call

        return make


REPORT_FILES = ("report.csv", "per_task.csv", "latents.csv", "summary.json")


def report_digest(outdir) -> str:
    h = hashlib.sha256()
    for name in REPORT_FILES:
        path = outdir / name
        if path.exists():
            h.update(name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Round:
    """Wall time and timed-call totals of one round, and digests of what it produced."""

    wall_s: float
    train_s: float
    adapt_s: float
    adapted: int
    predict_s: float
    predict_points: int
    outputs_digest: str
    report_digest: str
    cells: Optional[list] = None  # kept only when asked for, so later rounds hold no data
    report: object = None  # the ExperimentReport, kept with the cells


def run_round(cfg: ExperimentConfig, inputs: dict, outdir, tracer=None, keep_cells=False) -> Round:
    """`run_experiment` and `write_report_files` for one workload, timed as one wall interval.

    `inputs` maps (rep, n) to the cell's inputs made before timing. `tracer`,
    when given, is installed over the capture for this round.
    """
    capture = Capture(inputs)
    with Patches() as patches:
        capture.install(patches)
        if tracer is not None:
            tracer.install(patches)
        start = time.perf_counter()
        report = evaluation.run_experiment(cfg)
        evaluation.write_report_files(report, outdir)
        wall = time.perf_counter() - start
    cells = capture.cells
    return Round(
        wall_s=wall,
        train_s=sum(c.train_s for c in cells),
        adapt_s=sum(c.adapt_s for c in cells),
        adapted=sum(len(c.adapted) for c in cells),
        predict_s=sum(c.predict_s for c in cells),
        predict_points=sum(c.predict_points for c in cells),
        outputs_digest=outputs_digest(cells),
        report_digest=report_digest(outdir),
        cells=cells if keep_cells else None,
        report=report if keep_cells else None,
    )


def outputs_digest(cells) -> str:
    """Hash of every output of a round, to compare rounds bit for bit."""
    h = hashlib.sha256()

    def add(a):
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())

    for c in cells:
        h.update(repr((c.n, c.repetition, c.error)).encode())
        for means, variances in [*c.baseline, *c.predictions]:
            add(means)
            add(variances)
        for w in c.adapted:
            add(w)
        if c.model is not None:
            fit = c.model.fit_result
            for a in (fit.subspace.u0, fit.subspace.basis, fit.weights,
                      [fit.objective, fit.iterations, fit.converged]):
                add(a)
    return h.hexdigest()


def quality(cells, report) -> dict:
    """Mean gp_epca RMSE over the report's cells per split, summed fit objective,
    and every RMSE cell."""
    cell_rmse = {(r["method"], r["split"], r["n"], r["repetition"]): r["rmse"] for r in report.cells}

    def mean_of(split):
        return statistics.fmean(v for k, v in cell_rmse.items() if k[:2] == (METHOD_SUBSPACE, split))

    return {
        "test_rmse": mean_of("test"),
        "train_rmse": mean_of("train"),
        "fit_objective": sum(c.model.fit_result.objective for c in cells if c.error is None),
        "cell_rmse": cell_rmse,
    }
