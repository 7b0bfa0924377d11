"""Spans around the calls into each layer, recorded from the benchmark's side.

`Patches` replaces functions at the module attributes the program calls
through and puts the originals back; the protocol's output capture
(`protocol.Capture`) and the tracer both use it. `Tracer.install` puts a
wrapper on each target that records a span (name, start, end, parent) and,
for some, counts taken from the call's result. Nothing inside `src/`
changes. Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

from gppca import epca, evaluation, gp_pca


def _fit_counts(result):
    return {
        "epca.fit_iterations": result.iterations,
        "epca.fit_steps": len(result.history) - 1,  # accepted objective values after the start
        "epca.fit_unconverged": int(not result.converged),
    }


def _tasks(result):
    return {"datasets.tasks": len(result.train_tasks) + len(result.new_tasks)}


def _moved(result):  # projections start at w = 0
    return {"epca.project_moved": int(np.any(np.asarray(result) != 0.0))}


class Patches:
    """Functions replaced at module attributes; `restore` (or leaving the `with`
    block) puts the originals back in reverse order."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, make) -> None:
        """Set `owner.attr` to `make(original)`."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# (owner module, attribute, span name, counts taken from the result). `evaluation`
# imported the generators and the baseline by name, so they are wrapped there.
TARGETS = (
    (evaluation, "_run_cell", "evaluation.cell", None),
    (evaluation, "gen_artificial", "datasets.gen", _tasks),
    (evaluation, "vdp_tasks", "datasets.gen", _tasks),
    (gp_pca, "union_inputs", "kernels_gp.union", None),
    (gp_pca, "exact_posterior", "kernels_gp.exact_posterior", None),
    (gp_pca, "predictive_batch", "kernels_gp.predictive", None),
    (evaluation, "gp_predictive_batch", "kernels_gp.baseline", None),
    (gp_pca, "variational_coords", "sparse_gp.coords", None),
    (gp_pca, "sparse_predictive_batch", "sparse_gp.predictive", None),
    (gp_pca, "natural_to_moment", "gaussian_geometry.convert", None),
    (gp_pca, "moment_to_natural", "gaussian_geometry.convert", None),
    (epca, "fit", "epca.fit", _fit_counts),
    (epca, "project_point", "epca.project", _moved),
    (gp_pca, "task_coordinates", "gp_pca.coords", None),
    (gp_pca, "train", "gp_pca.train", None),
    (gp_pca, "adapt_new_task", "gp_pca.adapt", None),
    (gp_pca, "predict_batch", "gp_pca.predict", None),
    (evaluation, "write_report_files", "evaluation.report", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []  # name, start, end, parent (index or None)
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, fn, name, counts=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent})
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index]["end"] = time.perf_counter()
            if counts is not None:
                for key, value in counts(result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self, patches: Patches) -> None:
        for owner, attr, name, counts in TARGETS:
            patches.replace(owner, attr, lambda fn, name=name, counts=counts: self.wrap(fn, name, counts))

    def metrics(self, wall_s: float) -> dict:
        """Per-layer totals, calls, self times and medians, plus the uncovered wall time."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        durations = defaultdict(list)
        top = 0.0
        for span in self.spans:
            d = span["end"] - span["start"]
            total[span["name"]] += d
            calls[span["name"]] += 1
            durations[span["name"]].append(d)
            if span["parent"] is None:
                top += d
            else:
                child[span["parent"]] += d
        self_time = defaultdict(float)
        for i, span in enumerate(self.spans):
            self_time[span["name"]] += (span["end"] - span["start"]) - child[i]

        def s(name):
            return total.get(name, 0.0)

        out = {
            "datasets.gen_s": (s("datasets.gen"), "s"),
            "datasets.tasks": (self.counts["datasets.tasks"], "count"),
            "kernels_gp.union_s": (s("kernels_gp.union"), "s"),
            "kernels_gp.exact_posterior_s": (s("kernels_gp.exact_posterior"), "s"),
            "kernels_gp.exact_posterior_calls": (calls["kernels_gp.exact_posterior"], "count"),
            "kernels_gp.predictive_s": (s("kernels_gp.predictive"), "s"),
            "kernels_gp.baseline_s": (s("kernels_gp.baseline"), "s"),
            "sparse_gp.coords_s": (s("sparse_gp.coords"), "s"),
            "sparse_gp.coords_calls": (calls["sparse_gp.coords"], "count"),
            "sparse_gp.predictive_s": (s("sparse_gp.predictive"), "s"),
            "gaussian_geometry.convert_s": (s("gaussian_geometry.convert"), "s"),
            "gaussian_geometry.convert_calls": (calls["gaussian_geometry.convert"], "count"),
            "epca.fit_s": (s("epca.fit"), "s"),
            "epca.fit_iterations": (self.counts["epca.fit_iterations"], "count"),
            "epca.fit_steps": (self.counts["epca.fit_steps"], "count"),
            "epca.fit_unconverged": (self.counts["epca.fit_unconverged"], "count"),
            "epca.project_s": (s("epca.project"), "s"),
            "epca.project_calls": (calls["epca.project"], "count"),
            "epca.project_moved": (self.counts["epca.project_moved"], "count"),
        }
        for layer in ("coords", "train", "adapt", "predict"):
            name = f"gp_pca.{layer}"
            out[f"{name}_s"] = (s(name), "s")
            out[f"{name}_self_s"] = (self_time.get(name, 0.0), "s")
        for layer in ("adapt", "predict"):
            d = durations.get(f"gp_pca.{layer}")
            out[f"gp_pca.{layer}_p50_ms"] = (1e3 * statistics.median(d) if d else 0.0, "ms")
        out["evaluation.cell_s"] = (s("evaluation.cell"), "s")
        out["evaluation.report_s"] = (s("evaluation.report"), "s")
        out["trace.uncovered_s"] = (wall_s - top, "s")
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
