"""Flat-subspace PCA over Gaussian natural coordinates by KL-minimizing descent.

Data are Gaussians given as flattened natural coordinates (theta, vec(Theta))
of length D = d + d^2. A rank-L e-flat subspace

    point(w) = u0 + sum_l w_l u_l

is fitted by descent on the weights W (I x L) and the stacked basis U
((L+1) x D rows u0, u1, ..., uL). The loss is sum_i KL(data_i || recon_i),
the exponential-family PCA loss of Collins, Dasgupta & Schapire (2001); each
reconstruction is the projection of its point onto the subspace along the
mixture geodesic. The per-point loss gradient with respect to the
reconstruction is the expectation-coordinate residual R_i = eta(recon_i) -
eta(data_i), giving

    dE/dW = R U~^T          (U~ = basis rows only)
    dE/dU = [1 | W]^T R     (offset row receives the plain column sum)

Iterates must stay inside the cone of valid parameters (Theta negative
definite). The joint fit runs a limited-memory quasi-Newton descent whose
line search treats any invalid candidate as a barrier value, so accepted
iterates are always valid Gaussians and the objective over them is
non-increasing (plain alternating gradient steps provably crawl on the scale
degeneracy between W and the basis and cannot reach the tolerances this
module is tested at). The barrier carries no gradient, so that line search
can fail outright; the fit then continues with the backtracking descent
described next. Single-point projections are convex in w and use a monotone
backtracking descent: candidates that leave the cone or fail to decrease the
objective are shrunk by `_BACKTRACK_FACTOR`, with quasi-Newton step proposals
and `_LEARNING_RATE` as the scale of steepest-descent steps.

One routine, `_project_batch`, projects a batch of points onto a subspace:
the fit's final polish passes the batch it already factored, and
`project_point` (few-shot adaptation) is its one-point case. Each point stops
on its own, once its weight gradient norm falls below rel_tol times the norm
of its dual coordinates, and reports its own early stop.

Each `Subspace` factors its offset u0 once, on first read
(`Subspace.offset_factor`), and every projection evaluates w = 0 from that
factor: `project_point` starts there, so adapting many tasks to one model
factors the offset once, not once per task.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from gppca.gaussian_geometry import dim_from_flat

__all__ = [
    "FitOptions",
    "Subspace",
    "FitResult",
    "ValidityError",
    "ValidityStallError",
    "ConvergenceError",
    "reconstruct",
    "objective",
    "gradients",
    "project_point",
    "fit",
]

_MAX_BACKTRACKS = 40
_BACKTRACK_FACTOR = 0.5  # step shrink per rejected line-search candidate
_LEARNING_RATE = 0.1  # scale of a steepest-descent step
_LBFGS_MEMORY = 20
_BARRIER = 1e15  # line-search value reported for reconstructions outside the cone


class ValidityError(RuntimeError):
    """A point outside the cone of valid Gaussians (Theta not negative definite).

    `data` tells whether the offending point is an input point itself or the
    reconstruction of input point `task_index` on the subspace. A
    reconstruction at given `weights` (a prediction) has no input point:
    `task_index` is None and the message names the weights.
    """

    def __init__(self, task_index: Optional[int], data: bool = False, weights=None):
        self.task_index = task_index
        self.data = data
        self.weights = weights
        if data:
            message = (
                f"input point {task_index} is not a valid Gaussian: "
                "its Theta is not negative definite"
            )
        elif task_index is None:
            shown = np.array2string(np.asarray(weights, dtype=float), separator=", ")
            message = f"reconstruction at weights {shown} violates negative definite Theta"
        else:
            message = f"reconstruction for point {task_index} violates negative definite Theta"
        super().__init__(message)

    # Pickled as the constructor's arguments, so an error raised in a worker
    # process arrives intact.
    def __reduce__(self):
        return type(self), (self.task_index, self.data, self.weights)


class ValidityStallError(RuntimeError):
    """Backtracking could not find any valid step."""


class ConvergenceError(RuntimeError):
    """Projection descent hit the iteration cap before reaching stationarity."""

    def __init__(self, grad_norm: float, tol: float, iters: int):
        self.grad_norm = grad_norm
        self.tol = tol
        self.iters = iters
        super().__init__(
            f"projection did not converge in {iters} iterations: "
            f"gradient norm {grad_norm:.3e} > tolerance {tol:.3e}"
        )

    def __reduce__(self):
        return type(self), (self.grad_norm, self.tol, self.iters)


@dataclass(frozen=True)
class FitOptions:
    """Descent controls shared by fitting and projection."""

    max_iters: int = 10_000
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class Subspace:
    """Affine subspace in natural coordinates: offset u0 (D,) and basis rows (L, D).

    `u0` and `basis` are read-only copies, so `offset_factor` cannot go stale.
    `offset_factor` is `_natural_to_dual` of the offset, computed when first
    read and kept, with read-only arrays; every projection reads it for its
    evaluations at w = 0. An offset off the cone raises `_InvalidBatch` on
    each read and keeps nothing.
    """

    u0: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        u0 = np.array(self.u0, dtype=float).reshape(-1)
        basis = np.array(self.basis, dtype=float)
        if basis.size == 0:
            basis = basis.reshape(0, u0.shape[0])
        if basis.ndim != 2 or basis.shape[1] != u0.shape[0]:
            raise ValueError(f"basis shape {basis.shape} does not match offset length {u0.shape[0]}")
        for name, a in (("u0", u0), ("basis", basis)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def offset_factor(self) -> tuple:
        factor = _natural_to_dual(self.u0[None, :], dim_from_flat(self.flat_dim))
        for a in factor:
            a.setflags(write=False)
        return factor

    @property
    def latent_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def flat_dim(self) -> int:
        return self.u0.shape[0]


@dataclass(frozen=True)
class FitResult:
    subspace: Subspace
    weights: np.ndarray  # (I, L)
    objective: float
    iterations: int
    # True if L-BFGS-B met its tolerance (status 0), or if its line search failed
    # and the cone-aware continuation then took at least one step and converged
    # as `_Minimizer.run` defines it. False at the iteration cap, and when the
    # continuation finds no valid or no decreasing step from where it started.
    converged: bool
    history: np.ndarray = field(repr=False)  # objective at each accepted evaluation


def reconstruct(w: np.ndarray, subspace: Subspace) -> np.ndarray:
    """Affine reconstruction u0 + w @ basis."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != subspace.latent_dim:
        raise ValueError(f"weight length {w.shape[0]} != latent dim {subspace.latent_dim}")
    return subspace.u0 + w @ subspace.basis


class _InvalidBatch(Exception):
    """A batch holds a point off the cone.

    `index`, the first slice of `stack` that does not factor, is searched for
    only when read: the fit's line searches discard it. Without a stack it is -1.
    """

    def __init__(self, stack: Optional[np.ndarray] = None):
        self.stack = stack

    @property
    def index(self) -> int:
        if self.stack is None:
            return -1
        for i, a in enumerate(self.stack):
            try:
                np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                return i
        return 0


def _strict_cholesky(stack: np.ndarray) -> np.ndarray:
    """Batched Cholesky without jitter; raises _InvalidBatch, which can name the offending slice."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        raise _InvalidBatch(stack) from None


def _batched_logdet(chol: np.ndarray) -> np.ndarray:
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    return 2.0 * np.sum(np.log(diag), axis=-1)


def _natural_to_dual(points: np.ndarray, d: int):
    """Per-point moments and expectation coordinates of natural points (n, D).

    Returns (precisions, log det Sigma, means, covariances, expectation
    coordinates); raises _InvalidBatch with the first point whose Theta is
    not negative definite.
    """
    n = points.shape[0]
    vec = points[:, :d]
    mat = points[:, d:].reshape(n, d, d)
    mat = 0.5 * (mat + np.transpose(mat, (0, 2, 1)))
    a = -2.0 * mat  # Sigma^-1 per point, must be PD
    logdet = -_batched_logdet(_strict_cholesky(a))
    mu = np.linalg.solve(a, vec[..., None])[..., 0]
    sigma = np.linalg.inv(a)
    dual_mat = sigma + np.einsum("ni,nj->nij", mu, mu)
    return a, logdet, mu, sigma, np.concatenate([mu, dual_mat.reshape(n, -1)], axis=1)


class _PointBatch:
    """Precomputed per-point quantities of the data.

    For each data Gaussian stores its moments, log-determinant and
    expectation coordinates, so KL values and dual residuals against a batch
    of reconstructions cost one batched factorization per evaluation.
    """

    def __init__(self, points: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.count, self.flat_dim = points.shape
        self.dim = dim_from_flat(self.flat_dim)
        self.primal = points
        try:
            _, self.logdet, self.mu, self.sigma, self.dual = _natural_to_dual(points, self.dim)
        except _InvalidBatch as exc:
            raise ValidityError(exc.index, data=True) from None

    def row(self, i: int) -> "_PointBatch":
        """The one-point batch of point i, sliced from this batch without factoring it again."""
        row = object.__new__(_PointBatch)
        row.__dict__.update(vars(self), count=1)
        for name in ("primal", "logdet", "mu", "sigma", "dual"):
            setattr(row, name, getattr(self, name)[i : i + 1])
        return row

    def evaluate(self, weights: np.ndarray, u0: np.ndarray, basis: np.ndarray):
        """KL objective and expectation coordinates of the reconstructions u0 + W U~.

        Returns (total_kl, duals); raises _InvalidBatch, naming the first
        offending point, if a reconstruction leaves the cone.
        """
        return self.evaluate_factored(_natural_to_dual(u0 + weights @ basis, self.dim))

    def evaluate_factored(self, recon: tuple):
        """`evaluate` against reconstructions already passed through `_natural_to_dual`."""
        a, logdet_rec, mu_rec, _, duals = recon
        # KL(data || recon): the reconstruction precision is `a` exactly.
        trace = np.einsum("nij,nij->n", a, self.sigma)
        diff = mu_rec - self.mu
        quad = np.einsum("ni,nij,nj->n", diff, a, diff)
        kl = 0.5 * (trace + quad - self.dim + logdet_rec - self.logdet)
        return float(np.sum(kl)), duals

    def gradient(self, weights: np.ndarray, basis: np.ndarray, duals: np.ndarray):
        """(dW, dU) of the objective from the reconstructions' `duals`."""
        residual = duals - self.dual
        d_w = residual @ basis.T
        w_aug = np.concatenate([np.ones((self.count, 1)), weights], axis=1)
        return d_w, w_aug.T @ residual


def _evaluate_checked(batch: _PointBatch, weights, subspace: Subspace):
    """(weights as (I, L), total KL, duals); a reconstruction off the cone raises ValidityError."""
    weights = np.asarray(weights, dtype=float).reshape(batch.count, subspace.latent_dim)
    try:
        total, duals = batch.evaluate(weights, subspace.u0, subspace.basis)
    except _InvalidBatch as exc:
        raise ValidityError(exc.index) from None
    return weights, total, duals


def objective(weights: np.ndarray, subspace: Subspace, points) -> float:
    """Summed KL between the data points and their reconstructions."""
    return _evaluate_checked(_PointBatch(points), weights, subspace)[1]


def gradients(weights: np.ndarray, subspace: Subspace, points) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the objective: (dW of shape (I, L), dU of shape (L+1, D)).

    Row 0 of dU is the offset gradient, the plain column sum of the dual
    residuals; rows 1..L correspond to the basis vectors.
    """
    batch = _PointBatch(points)
    weights, _, duals = _evaluate_checked(batch, weights, subspace)
    return batch.gradient(weights, subspace.basis, duals)


# ---------------------------------------------------------------------------
# Monotone quasi-Newton descent with validity backtracking.


class _Minimizer:
    """Limited-memory quasi-Newton descent over one flat parameter vector.

    `evaluate(p)` returns (objective, payload) or raises _InvalidBatch;
    `gradient(p, payload)` returns the flat gradient. Every accepted step
    strictly decreases the objective; candidates that leave the valid cone
    or fail to decrease are backtracked by `_BACKTRACK_FACTOR` up to
    _MAX_BACKTRACKS times. A stall with an active quasi-Newton memory resets
    to a steepest step once before declaring stationarity.
    """

    def __init__(self, evaluate: Callable, gradient: Callable, opts: FitOptions):
        self.evaluate = evaluate
        self.gradient = gradient
        self.opts = opts
        self.s_list: list[np.ndarray] = []
        self.y_list: list[np.ndarray] = []

    def _direction(self, g: np.ndarray) -> np.ndarray:
        if not self.s_list:
            return -_LEARNING_RATE * g
        q = g.copy()
        alphas = []
        rhos = [1.0 / float(y @ s) for s, y in zip(self.s_list, self.y_list)]
        for s, y, rho in zip(reversed(self.s_list), reversed(self.y_list), reversed(rhos)):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        s_last, y_last = self.s_list[-1], self.y_list[-1]
        q *= float(s_last @ y_last) / float(y_last @ y_last)
        for s, y, rho, a in zip(self.s_list, self.y_list, rhos, reversed(alphas)):
            q += s * (a - rho * float(y @ q))
        descent = -q
        if float(descent @ g) >= 0.0:  # model lost descent property
            self.s_list.clear()
            self.y_list.clear()
            return -_LEARNING_RATE * g
        return descent

    def _push_pair(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)) and sy > 0:
            self.s_list.append(s)
            self.y_list.append(y)
            if len(self.s_list) > _LBFGS_MEMORY:
                self.s_list.pop(0)
                self.y_list.pop(0)

    def _line_search(self, p, kl_cur, direction):
        t = 1.0
        saw_valid = False
        for _ in range(_MAX_BACKTRACKS):
            candidate = p + t * direction
            try:
                kl_new, payload = self.evaluate(candidate)
            except _InvalidBatch:
                t *= _BACKTRACK_FACTOR
                continue
            saw_valid = True
            if kl_new < kl_cur and np.isfinite(kl_new):
                return candidate, kl_new, payload, True
            t *= _BACKTRACK_FACTOR
        if not saw_valid:
            raise ValidityStallError(
                f"no valid step found after {_MAX_BACKTRACKS} backtracks"
            )
        return p, kl_cur, None, False

    def run(self, p0: np.ndarray, stop_grad_tol: float = 0.0):
        """Returns (p, kl, history, iterations, converged, grad_norm).

        Converged means any of: gradient norm under `stop_grad_tol`,
        relative objective change under rel_tol, or no strictly decreasing
        valid step at line-search resolution (a stall, i.e. numeric
        stationarity). Only exhausting max_iters counts as non-convergence.
        """
        opts = self.opts
        kl, payload = self.evaluate(p0)
        p = p0.copy()
        g = self.gradient(p, payload)
        history = [kl]
        iteration = 0
        for iteration in range(1, opts.max_iters + 1):
            grad_norm = float(np.linalg.norm(g))
            if stop_grad_tol > 0.0 and grad_norm < stop_grad_tol:
                return p, kl, history, iteration - 1, True, grad_norm
            direction = self._direction(g)
            p_new, kl_new, payload, accepted = self._line_search(p, kl, direction)
            if not accepted and self.s_list:
                # quasi-Newton direction exhausted; retry once from steepest
                self.s_list.clear()
                self.y_list.clear()
                p_new, kl_new, payload, accepted = self._line_search(
                    p, kl, -_LEARNING_RATE * g
                )
            if not accepted:
                # stationary at line-search resolution
                return p, kl, history, iteration, True, float(np.linalg.norm(g))
            g_new = self.gradient(p_new, payload)
            self._push_pair(p_new - p, g_new - g)
            change = kl - kl_new
            p, kl, g = p_new, kl_new, g_new
            history.append(kl)
            if change <= opts.rel_tol * max(abs(kl), 1e-300):
                return p, kl, history, iteration, True, float(np.linalg.norm(g))
        return p, kl, history, opts.max_iters, False, float(np.linalg.norm(g))


def _mean_point(batch: _PointBatch) -> np.ndarray:
    """Natural point whose expectation coordinates are the mean of the data's.

    The mean lies in the convex cone of expectation coordinates, so the
    resulting point is always a valid Gaussian; it serves as the initial offset.
    """
    d = batch.dim
    mean_dual = np.mean(batch.dual, axis=0)
    vec = mean_dual[:d]
    mat = mean_dual[d:].reshape(d, d)
    mat = 0.5 * (mat + mat.T)
    sigma = mat - np.outer(vec, vec)
    sigma = 0.5 * (sigma + sigma.T)
    lam = np.linalg.inv(sigma)
    lam = 0.5 * (lam + lam.T)
    return np.concatenate([lam @ vec, (-0.5 * lam).reshape(-1)])


def _initial_subspace(
    batch: _PointBatch, latent_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Offset, basis and weights to start the descent from, and the objective there.

    The offset is the always-valid mean-dual point, the basis holds the
    top-L right singular vectors of the centered data, and the weights are
    the least-squares scores of the data against that frame, halved until
    every starting reconstruction is a valid Gaussian (weights of zero put
    the start at the offset itself, which is always valid). The objective is
    `_BARRIER` if the start is off the cone or not finite.
    """
    u0 = _mean_point(batch)
    centered = batch.primal - np.mean(batch.primal, axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:latent_dim].copy()
    if basis.shape[0] < latent_dim:  # degenerate data: pad deterministically
        pad = np.zeros((latent_dim - basis.shape[0], batch.flat_dim))
        for k in range(pad.shape[0]):
            pad[k, (basis.shape[0] + k) % batch.flat_dim] = 1.0
        basis = np.vstack([basis, pad])
    # Deterministic sign: largest-magnitude entry of each row is positive.
    for row in basis:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    weights = (batch.primal - u0) @ basis.T  # rows are orthonormal
    for _ in range(80):
        try:
            total = batch.evaluate(weights, u0, basis)[0]
            break
        except _InvalidBatch:
            weights *= 0.5
    else:
        weights = np.zeros((batch.count, latent_dim))
        try:
            total = batch.evaluate(weights, u0, basis)[0]
        except _InvalidBatch:
            total = _BARRIER
    return u0, basis, weights, total if np.isfinite(total) else _BARRIER


def _normalize(u0, basis, weights):
    """Rescale basis rows to unit norm, folding the scale into the weights."""
    norms = np.linalg.norm(basis, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    return u0, basis / norms[:, None], weights * norms[None, :]


def fit(points, latent_dim: int, opts: Optional[FitOptions] = None) -> FitResult:
    """Fit a rank-`latent_dim` affine subspace to Gaussian coordinate points.

    Descends the summed KL jointly over (W, u0, basis) with L-BFGS-B until
    the relative objective change falls below opts.rel_tol or opts.max_iters
    is reached, then polishes each weight row by projecting its point onto
    the final basis (`_project_batch`). L-BFGS-B's line search fails when
    its trial steps leave the cone; the descent then resumes from its last
    iterate with the cone-aware `_Minimizer` for the remaining iterations. The objective over
    accepted steps never increases. The returned `objective` is recomputed
    exactly for the returned (normalized) parameters.

    `converged` is True when L-BFGS-B met its tolerance, or when its line
    search failed and the continuation then took at least one step and
    converged (relative change under rel_tol, or no further decreasing valid
    step at line-search resolution). It is False when the iteration cap is
    hit, and when the continuation finds no valid or no decreasing step from
    L-BFGS-B's last iterate; the fit then keeps that iterate.
    """
    # Imported here, not at module level: SciPy's optimizer costs every
    # process that imports the package about 0.3 s, and only fitting uses it.
    from scipy.optimize import minimize

    opts = opts or FitOptions()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_points = pts.shape[0]
    if n_points < 1:
        raise ValueError("need at least one point")
    if latent_dim < 0 or (n_points > 1 and latent_dim > n_points - 1) or (
        n_points == 1 and latent_dim > 0
    ):
        raise ValueError(
            f"latent dimension {latent_dim} not in [0, {max(n_points - 1, 0)}] for {n_points} points"
        )
    batch = _PointBatch(pts)
    u0_init, basis_init, w_init, start = _initial_subspace(batch, latent_dim)
    flat_dim = batch.flat_dim
    n_w = n_points * latent_dim

    def unpack_params(p):
        w = p[:n_w].reshape(n_points, latent_dim)
        u0 = p[n_w : n_w + flat_dim]
        basis = p[n_w + flat_dim :].reshape(latent_dim, flat_dim)
        return w, u0, basis

    def evaluate(p):
        total, duals = batch.evaluate(*unpack_params(p))
        if not np.isfinite(total):
            raise _InvalidBatch()
        return total, duals

    def gradient(p, duals):
        w, _, basis = unpack_params(p)
        d_w, d_u = batch.gradient(w, basis, duals)
        return np.concatenate([d_w.ravel(), d_u.ravel()])

    def value_and_grad(p):
        try:
            total, duals = evaluate(p)
        except _InvalidBatch:
            return _BARRIER, np.zeros_like(p)
        return total, gradient(p, duals)

    p0 = np.concatenate([w_init.reshape(-1), u0_init, basis_init.reshape(-1)])
    history = [start]  # _initial_subspace evaluated p0 already

    def record(intermediate_result):  # scipy passes the objective of each iterate
        history.append(intermediate_result.fun)

    # Quasi-Newton descent; its sufficient-decrease line search never accepts
    # an iterate at the barrier, so every recorded iterate is a valid subspace.
    result = minimize(
        value_and_grad,
        p0,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={
            "maxiter": opts.max_iters,
            "ftol": opts.rel_tol,
            "gtol": 1e-14,
            "maxcor": _LBFGS_MEMORY,
        },
    )
    iterations = int(result.nit)
    params = result.x
    converged = result.status == 0
    if result.status == 2 and iterations < opts.max_iters:
        # The line search failed: it cannot bracket across the barrier, whose
        # zero gradient tells it nothing. Resume from its last iterate with
        # the descent that treats invalid candidates as rejected steps.
        remaining = replace(opts, max_iters=opts.max_iters - iterations)
        try:
            params, _, tail, extra, converged, _ = _Minimizer(evaluate, gradient, remaining).run(params)
        except (_InvalidBatch, ValidityStallError):
            pass  # no valid step from there either: keep the point, unconverged
        else:
            history.extend(tail[1:])
            iterations += extra
            converged = converged and len(tail) > 1  # a stall that never moved
    weights, u0, basis = unpack_params(params)
    # Each row's own projection; a row stopped early keeps its weights.
    weights, _ = _project_batch(batch, Subspace(u0=u0, basis=basis), opts, weights)
    u0, basis, weights = _normalize(u0, basis, weights)
    subspace = Subspace(u0=u0, basis=basis)
    _, final, _ = _evaluate_checked(batch, weights, subspace)
    return FitResult(
        subspace=subspace,
        weights=weights,
        objective=final,
        iterations=iterations,
        converged=converged,
        history=np.asarray(history),
    )


def _project_batch(batch: _PointBatch, subspace: Subspace, opts: FitOptions, start: np.ndarray):
    """Project every point of `batch` onto `subspace`, each from its row of `start`.

    Each point runs its own `_Minimizer` descent over its weights, stopping
    once the weight gradient norm falls below rel_tol times the norm of that
    point's dual coordinates (or as `_Minimizer.run` stops otherwise). An
    evaluation at w = 0 reads `subspace.offset_factor` instead of factoring
    the offset again.
    Returns (weights (I, L), errors): errors[i] is None, or the error that
    stopped point i early. A ConvergenceError (the iteration cap) leaves the
    row at its last iterate; a ValidityStallError (no valid step) or a
    ValidityError (a start off the cone) leaves it at its start.
    """
    basis = subspace.basis
    weights = np.array(start, dtype=float)
    errors: list[Optional[Exception]] = [None] * batch.count
    for i in range(batch.count):
        point = batch.row(i)
        tol = opts.rel_tol * max(float(np.linalg.norm(point.dual[0])), 1e-300)

        def evaluate(w):
            if not w.any():  # the offset itself
                return point.evaluate_factored(subspace.offset_factor)
            return point.evaluate(w[None, :], subspace.u0, basis)

        def gradient(w, duals):
            return (duals[0] - point.dual[0]) @ basis.T

        try:
            w, _, _, _, converged, grad_norm = _Minimizer(evaluate, gradient, opts).run(
                weights[i], stop_grad_tol=tol
            )
        except _InvalidBatch:
            errors[i] = ValidityError(i)
        except ValidityStallError as exc:
            errors[i] = exc
        else:
            weights[i] = w
            if not converged:
                errors[i] = ConvergenceError(grad_norm, tol, opts.max_iters)
    return weights, errors


def project_point(point, subspace: Subspace, opts: Optional[FitOptions] = None) -> np.ndarray:
    """Weights of the KL-minimizing projection of one coordinate point.

    The one-point case of `_project_batch`, started at w = 0: the offset
    itself, whose factor the subspace keeps, so only the first projection
    onto a subspace factors it. It descends the point's KL over w alone
    until the weight-space gradient norm falls below rel_tol times the norm
    of the point's dual coordinates, the per-step relative KL change falls
    below rel_tol, or no strictly decreasing valid step exists (stationarity
    at numeric resolution); the problem is convex in w so all three witness
    the unique projection. Raises ConvergenceError with the final gradient
    norm if the iteration cap is hit first, and ValidityStallError if no
    valid step exists.
    """
    opts = opts or FitOptions()
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.shape[0] != subspace.flat_dim:
        raise ValueError(f"point length {point.shape[0]} != subspace dim {subspace.flat_dim}")
    weights, errors = _project_batch(
        _PointBatch(point[None, :]), subspace, opts, np.zeros((1, subspace.latent_dim))
    )
    if errors[0] is not None:
        raise errors[0]
    return weights[0]
