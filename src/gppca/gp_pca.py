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

A prediction factors its reconstruction's -2 Theta once, strictly
(`gaussian_geometry.flat_natural_to_moment`): weights whose reconstruction
lies off the cone of valid posteriors, even just past its boundary, raise
`ValidityError`, as they do in the fit and the projection. The moments come
from that one factor: mu equals that of `natural_to_moment` on the point
with its block symmetrized bit for bit, so predictive means
equal those predicted from the chain's moments bit for bit, and variances
differ from theirs by the rounding of Sigma, which is taken from the
factor's triangular inverse. The predictive equations then read the
anchor's factor: exact means come from a vector solve against its Cholesky
factor, and exact variances from its kept triangular inverse, so both
differ from a per-call solve against k(X, x+) by rounding
(`kernels_gp.predictive_batch`).

New tasks are placed on the subspace by computing their posterior
coordinates from the few observations available and projecting onto the
fitted subspace (the unique KL-minimizing projection). At every latent
dimension that projection is moment matching along the basis rows:
`epca.project_point` factors the task point once for its expectations
along the rows, and solves for the weights by Newton steps in the Fisher
metric until the Newton decrement is at most 1e-3 rel_tol nats; it lands
at the KL minimum and computes no KL. On a line (latent dimension 1, the
default) the steps are scalar, in the eigenbasis of the line's precision
pencil, which the subspace keeps. `adapt_new_task` calls it through the
`epca` module attribute.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from gppca import epca
from gppca.epca import FitOptions, FitResult, Subspace, ValidityError
from gppca.gaussian_geometry import (
    DecompositionError,
    MomentGaussian,
    flat_natural_to_moment,
    moment_to_natural,
    natural_to_moment,  # noqa: F401  (perfbench/spans.py wraps it at this attribute)
    pack_natural,
)
from gppca.kernels_gp import (
    GpPrior,
    KernelConfig,
    TaskData,
    _require_finite,
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
    stored as points, and `anchor_set` holds the `InducingSet`. The subspace
    alone fixes the latent dimension (`latent_dim` reads it) and the flat
    dimension: construction rejects weights of another width, and a subspace
    whose flat dimension is not d + d^2 for the anchor's d points. It also
    rejects a non-finite entry of the anchor, weights, u0 or basis, naming
    the field.

    Constructing the model factors the prior over the anchor once
    (`anchor_set.factor(prior)`: K, its Cholesky factor, mu0 and K^-1 mu0),
    and every prediction and adaptation reads that factor; a model's first
    prediction adds K^-1 (sparse) or the Cholesky factor's inverse (exact)
    to it. Next to it, the subspace keeps the blocks of its basis rows
    (`subspace.basis_blocks`) and, on a line, the offset's factor
    (`subspace.line_pencil`), from which every adaptation's moment-matching
    solve starts; with two or more basis rows each adaptation factors its
    start w = 0 itself. The factors and `fit_result` (training diagnostics)
    are not persisted; a loaded model builds its factors again.
    A pickled or deep-copied model is rebuilt through the constructor, with
    read-only anchor and subspace arrays, and factors its anchor again.
    """

    prior: GpPrior
    anchor: np.ndarray
    subspace: Subspace
    weights: np.ndarray  # (tasks, subspace.latent_dim)
    mode: str
    fit_result: Optional[FitResult] = None
    anchor_set: InducingSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.anchor, InducingSet):  # a set's points are finite already
            _require_finite("model field 'anchor'", np.asarray(self.anchor, dtype=float))
        anchor_set = as_anchor(self.anchor)
        weights = np.asarray(self.weights, dtype=float)
        if self.mode not in ("exact", "sparse"):
            raise ValueError(f"unknown mode {self.mode!r}")
        latent, flat, d = self.subspace.latent_dim, self.subspace.flat_dim, len(anchor_set)
        if weights.ndim != 2 or weights.shape[1] != latent:
            raise ValueError(f"weights shape {weights.shape} does not match latent dim {latent}")
        if flat != d + d * d:
            raise ValueError(
                f"subspace flat dim {flat} does not match {d} anchor points (flat dim {d + d * d})"
            )
        for name, a in (("weights", weights), ("u0", self.subspace.u0), ("basis", self.subspace.basis)):
            _require_finite(f"model field {name!r}", a)
        object.__setattr__(self, "anchor", anchor_set.points)
        object.__setattr__(self, "anchor_set", anchor_set)
        object.__setattr__(self, "weights", weights)
        anchor_set.factor(self.prior)

    def __reduce__(self):
        return type(self), (
            self.prior, self.anchor_set, self.subspace, self.weights,
            self.mode, self.fit_result,
        )

    @property
    def latent_dim(self) -> int:
        return self.subspace.latent_dim

    @property
    def num_tasks(self) -> int:
        return self.weights.shape[0]


def _task_point(prior: GpPrior, task: TaskData, anchor: InducingSet, mode: str) -> np.ndarray:
    """Flattened natural coordinates of one task's posterior over `anchor`."""
    if mode == "sparse":
        return variational_coords(prior, task, anchor)[1]
    return pack_natural(moment_to_natural(exact_posterior(prior, task, anchor)))


def task_coordinates(
    tasks: Sequence[TaskData],
    prior: GpPrior,
    mode: str,
    inducing: Optional[InducingSet] = None,
) -> tuple[np.ndarray, InducingSet]:
    """Flattened natural coordinates of each task posterior, plus the anchor set.

    The anchor is the union of the task inputs (exact) or `inducing`
    (sparse); all tasks share its factor. Exact mode takes no inducing set:
    passing one raises ValueError rather than leaving it unused.
    """
    if mode == "exact":
        if inducing is not None:
            raise ValueError("mode='exact' anchors on the union of the task inputs; pass inducing=None")
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
    returned model's stored objective is exactly the summed KL of its
    weights and subspace on the training coordinates, as `epca.fit`
    recomputes it for the parameters it returns.
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
        fit_result=result,
    )


def _reconstructed_moments(model: GpPcaModel, w: np.ndarray) -> MomentGaussian:
    """Moments of the reconstruction at `w`, from one strict factorization of its -2 Theta.

    A reconstruction off the cone raises ValidityError naming `w`, even
    when it lies so close to the cone that a jittered factor would exist.
    """
    flat = epca.reconstruct(w, model.subspace)
    try:
        return flat_natural_to_moment(flat, len(model.anchor_set))
    except DecompositionError as exc:
        raise ValidityError(None, weights=w) from exc


def _resolve_weights(model: GpPcaModel, task_or_weights) -> np.ndarray:
    if np.asarray(task_or_weights).dtype == bool:
        raise TypeError(
            f"expected a task index or a weight vector, got the boolean {task_or_weights!r}"
        )
    if isinstance(task_or_weights, (int, np.integer)):
        idx = int(task_or_weights)
        if not 0 <= idx < model.num_tasks:
            raise IndexError(f"task index {idx} out of range [0, {model.num_tasks})")
        return model.weights[idx]
    w = np.asarray(task_or_weights, dtype=float).reshape(-1)
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {w.tolist()}")
    return w


def predict_batch(model: GpPcaModel, task_or_weights, x_plus):
    """Means and variances at each test point for a task index or weight vector.

    The reconstruction at the weights is factored once, strictly; one off
    the cone raises ValidityError. The predictive equations read the
    model's anchor factor; nothing over the anchor is recomputed. A boolean
    is neither a task index nor a weight and raises TypeError.
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
    the fitted subspace with `epca.project_point`, read from the module at
    each call.
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


def _number(value, name: str) -> float:
    """A model field that must be a finite JSON number; a boolean or a string is not one.

    JSON 1e400 parses to inf, and an integer can lie beyond float range.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ValueError(f"model field {name!r} must be a finite number, got {value!r}")


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
            lengthscale=_number(_require(kernel_doc, "lengthscale"), "kernel.lengthscale"),
        ),
        beta=_number(_require(doc, "beta"), "beta"),
        mean_fn=_number(_require(doc, "prior_mean_constant"), "prior_mean_constant"),
    )
    latent_dim = _require(doc, "latent_dim")
    if isinstance(latent_dim, bool) or not isinstance(latent_dim, int) or latent_dim < 0:
        raise ValueError(f"model field 'latent_dim' must be a non-negative integer, got {latent_dim!r}")
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
    )


def save_model(model: GpPcaModel, path, config_hash: str = "") -> None:
    doc = model_to_dict(model, config_hash)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
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
