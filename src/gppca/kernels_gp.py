"""Kernel evaluation and exact GP regression posteriors over a shared anchor set.

For task data (X_i, y_i) with Gaussian likelihood precision beta and an RBF
prior, the posterior of f at an arbitrary anchor set X is Gaussian with

    mu    = mu0(X) + K_i (K_ii + beta^-1 I)^-1 (y_i - mu0(X_i))
    Sigma = K - K_i (K_ii + beta^-1 I)^-1 K_i^T

where K = k(X, X) and K_i = k(X, X_i). Predictions at new inputs x+ come
either directly from the task data (`gp_predictive_batch`, the independent-GP
baseline) or from a stored anchor posterior (`predictive_batch`); the two
routes agree, which the tests check.

The predictive mean from an anchor posterior uses the centered form
mu0(x+) + k^T K^-1 (mu - mu0(X)), which reproduces the prior when the
posterior equals the prior and coincides with the uncentered form for the
default zero prior mean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.linalg import cho_solve

from gppca.gaussian_geometry import MomentGaussian, chol_pd, _sym

__all__ = [
    "KernelConfig",
    "TaskData",
    "GpPrior",
    "gram",
    "exact_posterior",
    "predictive_batch",
    "gp_predictive_batch",
    "union_inputs",
    "coincident",
    "as_points",
]


def as_points(x) -> np.ndarray:
    """Coerce inputs to an (n, p) float array; scalars and (n,) become 1-D points."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        return a.reshape(1, 1)
    if a.ndim == 1:
        return a.reshape(-1, 1)
    if a.ndim == 2:
        return a
    raise ValueError(f"input points must be at most 2-D, got shape {a.shape}")


@dataclass(frozen=True)
class KernelConfig:
    """RBF kernel k(x, x') = exp(-|x - x'|^2 / (2 l^2)) with lengthscale l."""

    kind: str = "rbf"
    lengthscale: float = 1.0

    def __post_init__(self):
        if self.kind != "rbf":
            raise ValueError(f"unsupported kernel kind {self.kind!r}; expected 'rbf'")
        if not self.lengthscale > 0:
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")


@dataclass(frozen=True)
class TaskData:
    """One regression task: inputs (n, p), outputs (n,), and an integer id."""

    inputs: np.ndarray
    outputs: np.ndarray
    task_id: int = 0

    def __post_init__(self):
        inputs = as_points(self.inputs)
        outputs = np.asarray(self.outputs, dtype=float).reshape(-1)
        if inputs.shape[0] != outputs.shape[0]:
            raise ValueError(
                f"task {self.task_id}: {inputs.shape[0]} inputs vs {outputs.shape[0]} outputs"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class GpPrior:
    """GP prior: mean function (constant or callable), kernel, noise precision beta."""

    kernel: KernelConfig = field(default_factory=KernelConfig)
    beta: float = 100.0
    mean_fn: Union[float, Callable[[np.ndarray], np.ndarray]] = 0.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    def mean_at(self, points) -> np.ndarray:
        """Prior mean evaluated at an (n, p) point set, as an (n,) vector."""
        pts = as_points(points)
        if callable(self.mean_fn):
            vals = np.asarray(self.mean_fn(pts), dtype=float).reshape(-1)
            if vals.shape[0] != pts.shape[0]:
                raise ValueError("mean_fn returned wrong number of values")
            return vals
        return np.full(pts.shape[0], float(self.mean_fn))


def gram(cfg: KernelConfig, a, b) -> np.ndarray:
    """Gram matrix k(A, B) of shape (len(A), len(B))."""
    pa = as_points(a)
    pb = as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")
    d2 = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2)
    return np.exp(-d2 / (2.0 * cfg.lengthscale**2))


def coincident(a, b, tol: float = 1e-12) -> np.ndarray:
    """Boolean (len(A), len(B)) matrix: rows a_i and b_j lie within `tol` in max-norm."""
    pa = as_points(a)
    pb = as_points(b)
    return np.max(np.abs(pa[:, None, :] - pb[None, :, :]), axis=2) <= tol


def union_inputs(tasks, tol: float = 1e-12) -> np.ndarray:
    """Deduplicated concatenation of all task inputs, in task order.

    A row within `tol` in max-norm of an earlier kept row is dropped, so the
    anchor gram matrix stays nonsingular.
    """
    rows = [task.inputs for task in tasks]
    points = np.concatenate(rows) if rows else np.zeros((0, 1))
    if points.shape[0] == 0:
        raise ValueError("no inputs found across tasks")
    earlier = np.tril(coincident(points, points, tol), -1)
    keep = np.ones(points.shape[0], dtype=bool)
    for i in np.flatnonzero(earlier.any(axis=1)):
        keep[i] = not np.any(earlier[i] & keep)
    return points[keep]


def exact_posterior(prior: GpPrior, task: TaskData, anchor) -> MomentGaussian:
    """Posterior of f(anchor) given one task's data under the shared prior."""
    anchor = as_points(anchor)
    k_anchor = gram(prior.kernel, anchor, anchor)
    mu0 = prior.mean_at(anchor)
    if len(task) == 0:
        return MomentGaussian(mu=mu0, sigma=_sym(k_anchor))
    k_cross = gram(prior.kernel, anchor, task.inputs)
    k_task = gram(prior.kernel, task.inputs, task.inputs)
    noisy = k_task + np.eye(len(task)) / prior.beta
    chol = chol_pd(noisy, "K_ii + beta^-1 I")
    resid = task.outputs - prior.mean_at(task.inputs)
    mu = mu0 + k_cross @ cho_solve((chol, True), resid)
    sigma = k_anchor - k_cross @ cho_solve((chol, True), k_cross.T)
    return MomentGaussian(mu=mu, sigma=_sym(sigma))


def _clamped_variance(var: np.ndarray) -> np.ndarray:
    low = float(np.min(var)) if var.size else 0.0
    if low < -1e-10:
        warnings.warn(
            f"predictive variance clamped from {low:.3e} to 0", RuntimeWarning, stacklevel=3
        )
    return np.maximum(var, 0.0)


def predictive_batch(prior: GpPrior, rho: MomentGaussian, anchor, x_plus):
    """Predictive mean and variance at each test point, from an anchor posterior.

    mean(x+) = mu0(x+) + k^T K^-1 (mu - mu0(X))
    var(x+)  = k(x+,x+) + k^T K^-1 (Sigma - K) K^-1 k
    """
    anchor = as_points(anchor)
    test = as_points(x_plus)
    if rho.dim != anchor.shape[0]:
        raise ValueError(f"posterior dim {rho.dim} does not match anchor size {anchor.shape[0]}")
    k_anchor = gram(prior.kernel, anchor, anchor)
    chol = chol_pd(k_anchor, "K(anchor, anchor)")
    k_cross = gram(prior.kernel, anchor, test)  # (n, t)
    w = cho_solve((chol, True), k_cross)  # K^-1 k, (n, t)
    mu0_anchor = prior.mean_at(anchor)
    means = prior.mean_at(test) + w.T @ (rho.mu - mu0_anchor)
    mid = rho.sigma - k_anchor
    variances = 1.0 + np.einsum("nt,nm,mt->t", w, mid, w)  # k(x,x) = 1 for RBF
    return means, _clamped_variance(variances)


def gp_predictive_batch(prior: GpPrior, task: TaskData, x_plus):
    """Standard GP regression predictive, directly from task data.

    mean(x+) = mu0(x+) + k^T (K_ii + beta^-1 I)^-1 (y - mu0)
    var(x+)  = k(x+,x+) - k^T (K_ii + beta^-1 I)^-1 k
    """
    test = as_points(x_plus)
    if len(task) == 0:
        return prior.mean_at(test), np.ones(test.shape[0])
    k_task = gram(prior.kernel, task.inputs, task.inputs)
    noisy = k_task + np.eye(len(task)) / prior.beta
    chol = chol_pd(noisy, "K_ii + beta^-1 I")
    k_cross = gram(prior.kernel, task.inputs, test)
    w = cho_solve((chol, True), k_cross)
    means = prior.mean_at(test) + w.T @ (task.outputs - prior.mean_at(task.inputs))
    variances = 1.0 - np.einsum("nt,nt->t", k_cross, w)
    return means, _clamped_variance(variances)
