"""Multi-task subspace learning over GP posteriors, prediction, adaptation.

Training builds one Gaussian coordinate point per task, either

- exact mode: the posterior of f(X) over the deduplicated union X of all
  task inputs, converted to natural coordinates, or
- sparse mode: the variational posterior over a given inducing set, in the
  rescaled chart of `sparse_gp` (a KL-isometric linear substitution),

and fits a flat subspace through those points with `epca`. Every point on
the fitted subspace is again a valid posterior parameter, so predictions at
arbitrary inputs come from reconstructing a task's coordinates and running
the ordinary predictive equations. The extension from the anchor set to any
test set is an affine map of the coordinates that preserves KL divergences,
which is what makes fitting over the anchor set equivalent to fitting over
any enlarged input set; `joint_posterior_coords` in `tests/oracles.py`
realizes it explicitly for the theorem tests.

New tasks are placed on the subspace by computing their posterior
coordinates from the few observations available and projecting onto the
fitted subspace (the unique KL-minimizing projection).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from gppca import epca
from gppca.epca import FitOptions, FitResult, Subspace, ValidityError
from gppca.gaussian_geometry import (
    DecompositionError,
    MomentGaussian,
    moment_to_natural,
    natural_to_moment,
    pack_natural,
    unpack_natural,
)
from gppca.kernels_gp import (
    GpPrior,
    KernelConfig,
    TaskData,
    as_anchor,
    exact_posterior,
    predictive_batch,
    union_inputs,
)
from gppca.sparse_gp import InducingSet, sparse_predictive_batch, variational_coords

__all__ = [
    "GpPcaModel",
    "train",
    "task_coordinates",
    "predict_batch",
    "adapt_new_task",
    "save_model",
    "load_model",
    "MODEL_FORMAT_VERSION",
]

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GpPcaModel:
    """Trained artifact: prior, anchor inputs, fitted subspace and task weights.

    In exact mode `anchor` is the union of the training inputs; in sparse
    mode it is the inducing set and all coordinates live in the rescaled
    chart. `anchor` may be given as points or as an `InducingSet`; it is
    stored as points, and `anchor_set` holds the `InducingSet`.

    Constructing the model factors the prior over the anchor once
    (`anchor_set.factor(prior)`: K, its Cholesky factor, mu0 and K^-1 mu0),
    and every prediction and adaptation reads that factor; a sparse model's
    first prediction adds K^-1 to it. Next to it, the first adaptation
    factors the subspace offset once (`subspace.offset_factor`), and every
    later adaptation starts its projection from that factor. The factors and
    `fit_result` (training diagnostics) are not persisted; a loaded model
    builds its factors again.
    """

    prior: GpPrior
    anchor: np.ndarray
    subspace: Subspace
    weights: np.ndarray  # (tasks, latent_dim)
    mode: str
    latent_dim: int
    fit_result: Optional[FitResult] = None
    anchor_set: InducingSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        anchor_set = as_anchor(self.anchor)
        weights = np.asarray(self.weights, dtype=float)
        if self.mode not in ("exact", "sparse"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if weights.ndim != 2 or weights.shape[1] != self.latent_dim:
            raise ValueError(f"weights shape {weights.shape} does not match latent dim")
        object.__setattr__(self, "anchor", anchor_set.points)
        object.__setattr__(self, "anchor_set", anchor_set)
        object.__setattr__(self, "weights", weights)
        anchor_set.factor(self.prior)

    @property
    def num_tasks(self) -> int:
        return self.weights.shape[0]


def _task_point(prior: GpPrior, task: TaskData, anchor: InducingSet, mode: str) -> np.ndarray:
    """Flattened natural coordinates of one task's posterior over `anchor`."""
    if mode == "sparse":
        nat, _ = variational_coords(prior, task, anchor)
        return pack_natural(nat)
    return pack_natural(moment_to_natural(exact_posterior(prior, task, anchor)))


def task_coordinates(
    tasks: Sequence[TaskData],
    prior: GpPrior,
    mode: str,
    inducing: Optional[InducingSet] = None,
) -> tuple[np.ndarray, InducingSet]:
    """Flattened natural coordinates of each task posterior, plus the anchor set.

    The anchor is the union of the task inputs (exact) or `inducing`
    (sparse); all tasks share its factor.
    """
    if mode == "exact":
        anchor = InducingSet(union_inputs(tasks))
    elif mode == "sparse":
        if inducing is None:
            raise ValueError("sparse mode requires an inducing set")
        anchor = inducing
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return np.asarray([_task_point(prior, task, anchor, mode) for task in tasks]), anchor


def train(
    tasks: Sequence[TaskData],
    prior: GpPrior,
    latent_dim: int,
    mode: str = "exact",
    opts: Optional[FitOptions] = None,
    inducing: Optional[InducingSet] = None,
) -> GpPcaModel:
    """Fit the shared subspace through all task posteriors.

    Requires at least two tasks and latent_dim <= len(tasks) - 1. The
    returned model's stored objective is exactly `epca.objective` of its
    weights and subspace on the training coordinates.
    """
    tasks = list(tasks)
    if len(tasks) < 2:
        raise ValueError(f"need at least two tasks, got {len(tasks)}")
    if latent_dim > len(tasks) - 1:
        raise ValueError(f"latent dimension {latent_dim} exceeds task count {len(tasks)} - 1")
    coords, anchor = task_coordinates(tasks, prior, mode, inducing)
    result = epca.fit(coords, latent_dim, opts)
    return GpPcaModel(
        prior=prior,
        anchor=anchor,
        subspace=result.subspace,
        weights=result.weights,
        mode=mode,
        latent_dim=latent_dim,
        fit_result=result,
    )


def _reconstructed_moments(model: GpPcaModel, w: np.ndarray) -> MomentGaussian:
    flat = epca.reconstruct(w, model.subspace)
    nat = unpack_natural(flat, model.anchor.shape[0])
    try:
        return natural_to_moment(nat)
    except DecompositionError as exc:
        raise ValidityError(None, weights=w) from exc


def _resolve_weights(model: GpPcaModel, task_or_weights) -> np.ndarray:
    if isinstance(task_or_weights, (int, np.integer)):
        idx = int(task_or_weights)
        if not 0 <= idx < model.num_tasks:
            raise IndexError(f"task index {idx} out of range [0, {model.num_tasks})")
        return model.weights[idx]
    w = np.asarray(task_or_weights, dtype=float).reshape(-1)
    if w.shape[0] != model.latent_dim:
        raise ValueError(f"weight length {w.shape[0]} != latent dim {model.latent_dim}")
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {w.tolist()}")
    return w


def predict_batch(model: GpPcaModel, task_or_weights, x_plus):
    """Means and variances at each test point for a task index or weight vector.

    The predictive equations read the model's anchor factor; nothing over
    the anchor is recomputed.
    """
    w = _resolve_weights(model, task_or_weights)
    rho = _reconstructed_moments(model, w)
    if model.mode == "exact":
        return predictive_batch(model.prior, rho, model.anchor_set, x_plus)
    return sparse_predictive_batch(model.prior, rho, model.anchor_set, x_plus)


def adapt_new_task(
    model: GpPcaModel, fewshot: TaskData, opts: Optional[FitOptions] = None
) -> np.ndarray:
    """Weights of a new task from few observations.

    Computes the new task's posterior coordinates over the model's anchor
    (fixed by the model, not re-derived from the few-shot inputs) under the
    model's prior, reading the model's anchor factor, and projects them onto
    the fitted subspace.
    """
    if len(fewshot) == 0:
        raise ValueError("few-shot task must contain at least one observation")
    point = _task_point(model.prior, fewshot, model.anchor_set, model.mode)
    return epca.project_point(point, model.subspace, opts)


# ---------------------------------------------------------------------------
# Persistence: versioned JSON with row-major arrays at full precision.


def _require(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"model file is missing field {key!r}")
    return doc[key]


def model_to_dict(model: GpPcaModel, config_hash: str = "") -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "mode": model.mode,
        "kernel": {
            "kind": model.prior.kernel.kind,
            "lengthscale": float(model.prior.kernel.lengthscale),
        },
        "beta": float(model.prior.beta),
        "latent_dim": int(model.latent_dim),
        "anchor": [[float(v) for v in row] for row in model.anchor],
        "u0": [float(v) for v in model.subspace.u0],
        "basis": [[float(v) for v in row] for row in model.subspace.basis],
        "weights": [[float(v) for v in row] for row in model.weights],
        "prior_mean_constant": model.prior.mean_fn,
        "config_hash": config_hash,
    }


def model_from_dict(doc: dict) -> GpPcaModel:
    version = _require(doc, "version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    kernel_doc = _require(doc, "kernel")
    prior = GpPrior(
        kernel=KernelConfig(
            kind=_require(kernel_doc, "kind"),
            lengthscale=float(_require(kernel_doc, "lengthscale")),
        ),
        beta=float(_require(doc, "beta")),
        mean_fn=float(_require(doc, "prior_mean_constant")),
    )
    latent_dim = int(_require(doc, "latent_dim"))
    anchor = np.asarray(_require(doc, "anchor"), dtype=float)
    u0 = np.asarray(_require(doc, "u0"), dtype=float)
    basis = np.asarray(_require(doc, "basis"), dtype=float).reshape(latent_dim, u0.shape[0])
    weights = np.asarray(_require(doc, "weights"), dtype=float)  # one row per task, even at L = 0
    return GpPcaModel(
        prior=prior,
        anchor=anchor,
        subspace=Subspace(u0=u0, basis=basis),
        weights=weights,
        mode=_require(doc, "mode"),
        latent_dim=latent_dim,
    )


def save_model(model: GpPcaModel, path, config_hash: str = "") -> None:
    doc = model_to_dict(model, config_hash)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> GpPcaModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def with_extra_task(model: GpPcaModel, w: np.ndarray) -> GpPcaModel:
    """Model with one more weight row (an adapted task) appended; it shares both factors."""
    w = np.asarray(w, dtype=float).reshape(1, model.latent_dim)
    return replace(
        model, anchor=model.anchor_set, weights=np.vstack([model.weights, w]), fit_result=None
    )
