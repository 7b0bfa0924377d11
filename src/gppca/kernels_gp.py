"""Kernel evaluation and exact GP regression posteriors over a shared anchor set.

For task data (X_i, y_i) with Gaussian likelihood precision beta and an RBF
prior, the posterior of f at an arbitrary anchor set X is Gaussian with

    mu    = mu0(X) + K_i (K_ii + beta^-1 I)^-1 (y_i - mu0(X_i))
    Sigma = K - K_i (K_ii + beta^-1 I)^-1 K_i^T

where K = k(X, X) and K_i = k(X, X_i). Predictions at new inputs x+ come
either directly from the task data (`gp_predictive_batch`, the independent-GP
baseline) or from a stored anchor posterior (`predictive_batch`); the two
routes agree, which the tests check.

An anchor is an `InducingSet`: the union of the task inputs in exact mode,
the inducing points in sparse mode. It factors the prior over its points
once per kernel and prior mean (`InducingSet.factor`), so every posterior,
prediction and adaptation over one anchor shares one Cholesky factor of K.

The predictive mean from an anchor posterior uses the centered form
mu0(x+) + k^T K^-1 (mu - mu0(X)), which reproduces the prior when the
posterior equals the prior and coincides with the uncentered form for the
default zero prior mean. It takes K^-1 (mu - mu0(X)) from one vector solve
against the anchor's Cholesky factor L. The variances need K^-1 k(X, x+)
for every test point; they take it as L^-T (L^-1 k) from the anchor's kept
triangular inverse L^-1 (`PriorFactor.chol_inv`), two matrix products in
place of a Cholesky solve with one right-hand side per test point.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from gppca.gaussian_geometry import MomentGaussian, chol_pd, chol_solve, _sym

__all__ = [
    "KernelConfig",
    "TaskData",
    "GpPrior",
    "InducingSet",
    "PriorFactor",
    "as_anchor",
    "gram",
    "exact_posterior",
    "predictive_batch",
    "gp_predictive_batch",
    "union_inputs",
    "distinct_rows",
    "coincident",
    "as_points",
]


# Max-norm distance at or under which two input rows count as one point.
COINCIDENT_TOL = 1e-12


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
        if not (math.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ValueError(f"lengthscale must be positive and finite, got {self.lengthscale}")


@dataclass(frozen=True)
class TaskData:
    """One regression task: inputs (n, p), outputs (n,), and an integer id; all finite."""

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
        if not (np.isfinite(inputs).all() and np.isfinite(outputs).all()):
            raise ValueError(f"task {self.task_id}: inputs and outputs must be finite")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class GpPrior:
    """GP prior: constant mean, kernel, noise precision beta."""

    kernel: KernelConfig = field(default_factory=KernelConfig)
    beta: float = 100.0
    mean_fn: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (isinstance(self.mean_fn, numbers.Real) and math.isfinite(self.mean_fn)):
            raise ValueError(f"mean_fn must be a finite number, got {self.mean_fn!r}")
        object.__setattr__(self, "mean_fn", float(self.mean_fn))

    def mean_at(self, points) -> np.ndarray:
        """Prior mean evaluated at an (n, p) point set, as an (n,) vector."""
        return np.full(as_points(points).shape[0], self.mean_fn)


def gram(cfg: KernelConfig, a, b) -> np.ndarray:
    """Gram matrix k(A, B) of shape (len(A), len(B)).

    Works in one array: the differences are squared, scaled and
    exponentiated in place, and 1-D inputs skip the sum over their one
    feature. The result is exp(-sum((a_i - b_j)^2) / (2 l^2)) bit for bit.
    """
    pa = as_points(a)
    pb = as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")
    if pa.shape[1] == 1:
        d2 = pa - pb.T
        np.square(d2, out=d2)
    else:
        diff = pa[:, None, :] - pb[None, :, :]
        d2 = np.sum(np.square(diff, out=diff), axis=2)
    np.divide(d2, -2.0 * cfg.lengthscale**2, out=d2)  # x / (-c) is -x / c exactly
    return np.exp(d2, out=d2)


def coincident(a, b) -> np.ndarray:
    """Boolean (len(A), len(B)) matrix: a_i and b_j lie within `COINCIDENT_TOL` in max-norm."""
    pa = as_points(a)
    pb = as_points(b)
    return np.max(np.abs(pa[:, None, :] - pb[None, :, :]), axis=2) <= COINCIDENT_TOL


def union_inputs(tasks) -> np.ndarray:
    """Deduplicated concatenation of all task inputs, in task order.

    A row within `COINCIDENT_TOL` in max-norm of an earlier kept row is
    dropped, so the anchor gram matrix stays nonsingular.
    """
    rows = [task.inputs for task in tasks]
    points = np.concatenate(rows) if rows else np.zeros((0, 1))
    if points.shape[0] == 0:
        raise ValueError("no inputs found across tasks")
    return distinct_rows(points)


def distinct_rows(points: np.ndarray) -> np.ndarray:
    """`points` without each row within `COINCIDENT_TOL` in max-norm of an earlier kept row."""
    earlier = np.tril(coincident(points, points), -1)
    keep = np.ones(points.shape[0], dtype=bool)
    for i in np.flatnonzero(earlier.any(axis=1)):
        keep[i] = not np.any(earlier[i] & keep)
    return points[keep]


@dataclass(frozen=True)
class PriorFactor:
    """The prior over an anchor Z, factored once; every array is read-only.

    `gram` is K = k(Z, Z) as computed, without jitter; `chol` is its lower
    `chol_pd` factor L (jittered only if K itself does not factor); `mean`
    is mu0(Z) and `kinv_mean` is K^-1 mu0(Z).

    Two inverses are computed when first read and kept, each by the route
    that reads it:

    - `kinv` is K^-1 = `chol_solve(chol, I)`, symmetrized. Sparse
      predictions read it, so a sparse model inverts K_mm once.
    - `chol_inv` is L^-1, lower triangular, from LAPACK dtrtri (imported on
      first read, like `chol_solve`'s dpotrs). Exact predictions read it,
      so an exact model inverts its factor once.

    An exact anchor keeps L^-1 and never computes K^-1. Against a 50-digit
    reference, at 48,000 test points on the four `artificial-exact`
    benchmark anchors (60 points, cond(K) 2.7e11 to 2.8e11), means from an
    explicit K^-1 were off by up to 1.0e-4 and means from L^-1 by up to
    1.3e-11, against 4.2e-14 for a vector solve. So means come from that
    solve and only the variances from L^-1, which were off by up to 3.5e-12
    (explicit K^-1: 1.1e-4).

    The constructor stores read-only copies. A pickled or deep-copied factor
    is rebuilt through it and computes `kinv` and `chol_inv` again when they
    are read.
    """

    gram: np.ndarray
    chol: np.ndarray
    mean: np.ndarray
    kinv_mean: np.ndarray

    def __post_init__(self):
        for name in ("gram", "chol", "mean", "kinv_mean"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __reduce__(self):
        return type(self), (self.gram, self.chol, self.mean, self.kinv_mean)

    @cached_property
    def kinv(self) -> np.ndarray:
        kinv = _sym(chol_solve(self.chol, np.eye(self.chol.shape[0])))
        kinv.setflags(write=False)
        return kinv

    @cached_property
    def chol_inv(self) -> np.ndarray:
        from scipy.linalg.lapack import dtrtri  # deferred, as in `chol_solve`

        # A factor with a positive diagonal always inverts (info == 0); the
        # copy dtrtri makes keeps the zeros above the diagonal.
        chol_inv, _ = dtrtri(self.chol, lower=1)
        chol_inv.setflags(write=False)
        return chol_inv


@dataclass(frozen=True)
class InducingSet:
    """Anchor inputs Z: finite, and pairwise distinct under `COINCIDENT_TOL` (1e-12).

    `factor(prior)` computes the prior's `PriorFactor` over Z on its first
    call and returns the same one afterwards, one per kernel and prior mean.
    `points` is a read-only copy, so the factors cannot go stale. A pickled
    or deep-copied set is rebuilt through the constructor, without the
    factors, which it computes again when asked.
    """

    points: np.ndarray
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = as_points(self.points).copy()
        pts.setflags(write=False)
        if pts.shape[0] < 1:
            raise ValueError("inducing set must contain at least one point")
        _require_finite("inducing points", pts)
        pairs = np.argwhere(np.triu(coincident(pts, pts), 1))
        if pairs.size:
            i, j = pairs[0]
            raise ValueError(f"inducing points {i} and {j} coincide")
        object.__setattr__(self, "points", pts)

    def __reduce__(self):
        return type(self), (self.points,)

    def __len__(self) -> int:
        return self.points.shape[0]

    def factor(self, prior: GpPrior) -> PriorFactor:
        key = (prior.kernel, prior.mean_fn)
        found = self._factors.get(key)
        if found is None:
            k = gram(prior.kernel, self.points, self.points)
            chol = chol_pd(k, "K(anchor, anchor)")
            mean = prior.mean_at(self.points)
            found = PriorFactor(gram=k, chol=chol, mean=mean, kinv_mean=chol_solve(chol, mean))
            self._factors[key] = found
        return found


def _require_finite(name: str, a: np.ndarray) -> None:
    """Raise ValueError naming `name` and the first non-finite entry of `a`, if there is one."""
    finite = np.isfinite(a)
    if not finite.all():
        index = np.unravel_index(np.argmin(finite), a.shape)
        raise ValueError(f"{name} must be finite, got {a[index]} at {[int(i) for i in index]}")


def as_anchor(anchor) -> InducingSet:
    """`anchor` itself if it is an `InducingSet`, else an `InducingSet` of its points."""
    return anchor if isinstance(anchor, InducingSet) else InducingSet(anchor)


def exact_posterior(prior: GpPrior, task: TaskData, anchor) -> MomentGaussian:
    """Posterior of f(anchor) given one task's data under the shared prior.

    `anchor` is an `InducingSet` or its points; K and mu0 over it come from
    its factor.
    """
    anchor = as_anchor(anchor)
    factor = anchor.factor(prior)
    if len(task) == 0:
        return MomentGaussian(mu=factor.mean.copy(), sigma=_sym(factor.gram))
    k_cross = gram(prior.kernel, anchor.points, task.inputs)
    k_task = gram(prior.kernel, task.inputs, task.inputs)
    noisy = k_task + np.eye(len(task)) / prior.beta
    chol = chol_pd(noisy, "K_ii + beta^-1 I")
    resid = task.outputs - prior.mean_at(task.inputs)
    mu = factor.mean + k_cross @ chol_solve(chol, resid)
    sigma = factor.gram - k_cross @ chol_solve(chol, k_cross.T)
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
    var(x+)  = k(x+,x+) + w^T (Sigma - K) w,   w = K^-1 k

    `anchor` is an `InducingSet` or its points; K, its factor L and mu0(X)
    come from the anchor's factor, and K in Sigma - K is the unjittered one.
    K^-1 (mu - mu0(X)) is one vector solve against L. w is L^-T (L^-1 k),
    two matrix products with the factor's kept `chol_inv`, which rounds more
    than a solve; only the variances read it (see `PriorFactor`). The
    variances of all test points are column sums of w * ((Sigma - K) w), one
    more matrix product.
    """
    anchor = as_anchor(anchor)
    test = as_points(x_plus)
    if rho.dim != len(anchor):
        raise ValueError(f"posterior dim {rho.dim} does not match anchor size {len(anchor)}")
    factor = anchor.factor(prior)
    k_cross = gram(prior.kernel, test, anchor.points).T  # k(X, x+) bit for bit, (n, t)
    w = factor.chol_inv.T @ (factor.chol_inv @ k_cross)  # K^-1 k, (n, t)
    means = prior.mean_at(test) + k_cross.T @ chol_solve(factor.chol, rho.mu - factor.mean)
    variances = 1.0 + np.einsum("at,at->t", w, (rho.sigma - factor.gram) @ w)  # k(x,x) = 1 for RBF
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
    w = chol_solve(chol, k_cross)
    means = prior.mean_at(test) + w.T @ (task.outputs - prior.mean_at(task.inputs))
    variances = 1.0 - np.einsum("nt,nt->t", k_cross, w)
    return means, _clamped_variance(variances)
