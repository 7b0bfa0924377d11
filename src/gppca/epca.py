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

Both are evaluated on a `_PointBatch`, which factors the data points once;
the `objective` a fit returns is one more evaluation of its batch at the
parameters it returns.

An evaluation holds one array per full-size (n, D) output and no full-size
temporaries: the reconstructions u0 + W U~ are built in place, and
`_natural_to_dual` forms -2 Theta in place and writes mu and
Sigma + mu mu^T into one preallocated array. Each rewrite performs the same
floating-point operations on the same operands as the textbook formula, and
LAPACK sees the same inputs, so every fit is the same to the bit as with the
textbook formulas; one evaluation at N = 20, d = 60 holds about four such
arrays, not six.

Iterates must stay inside the cone of valid parameters (Theta negative
definite). The joint fit runs L-BFGS-B, whose line search sees any invalid
candidate as the barrier value `_BARRIER`, so accepted iterates are always
valid Gaussians and the objective over them is non-increasing (plain
alternating gradient steps provably crawl on the scale degeneracy between W
and the basis and cannot reach the tolerances this module is tested at). The
barrier carries no gradient, so that line search can fail outright. The fit
then takes one steepest step whose backtracking line search (`_line_search`)
shrinks candidates that leave the cone or fail to decrease the objective by
`_BACKTRACK_FACTOR`, and restarts L-BFGS-B from where it lands.

One routine, `_project`, projects points onto a subspace: the fit's final
polish passes the duals of the batch it already factored (`_project_batch`),
and `project_point` (few-shot adaptation) passes one point. On an e-flat
subspace the KL projection is moment matching (Collins, Dasgupta & Schapire
2001; Amari 2016): w solves g(w) = U~ . eta(u0 + w U~) = U~ . eta(point) = t,
and the Jacobian of g is H, the Fisher metric pulled back to the basis
(Amari 1998), so each row takes Newton steps w - H^-1 (g - t) and stops once
its Newton decrement (g - t)^T H^-1 (g - t) / 2, the KL above the minimum to
second order, is at most 1e-3 rel_tol nats. No projection computes a KL. A
point needs only t: `project_point` takes it from one Cholesky factor of the
point's -2 Theta (`_point_moments`, `_moment_slopes`), and the polish from
the duals its batch already holds.

On a line (latent dimension 1) the subspace keeps the line's precision
pencil in its eigenbasis (`Subspace.line_pencil`), where g and H cost O(d)
per weight with nothing factored, and the exact interval of weights on the
cone is known. Each row then takes safeguarded scalar Newton steps inside
that interval (`_project_line`), all rows of a batch together, and its
landing reconstruction is factored once, strictly.

With two or more basis rows each row solves on its own (`_project_newton`),
keeping to the cone by halving a step until its reconstruction factors and
|g - t| falls: H is positive definite on the cone, so the Newton direction
lowers |g - t|^2 / 2, whose only stationary points are roots (Nocedal &
Wright, section 11.2). Each trial factors its reconstruction once, H is
formed only at accepted weights, and a start at w = 0 reads the offset's
factor, which the subspace keeps (`Subspace.offset_factor`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from gppca.gaussian_geometry import dim_from_flat

__all__ = [
    "FitOptions",
    "Subspace",
    "FitResult",
    "ValidityError",
    "ConvergenceError",
    "reconstruct",
    "project_point",
    "fit",
]

_MAX_BACKTRACKS = 40
_BACKTRACK_FACTOR = 0.5  # step shrink per rejected line-search candidate
_LEARNING_RATE = 0.1  # scale of a steepest-descent step
_LBFGS_MEMORY = 20
_BARRIER = 1e15  # line-search value reported for reconstructions outside the cone
_EPS = float(np.finfo(float).eps)


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


class ConvergenceError(RuntimeError):
    """A projection hit the iteration cap before its Newton decrement met the tolerance."""

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
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")


@dataclass(frozen=True)
class Subspace:
    """Affine subspace in natural coordinates: offset u0 (D,) and basis rows (L, D).

    `u0` and `basis` are read-only copies, so the kept values below cannot
    go stale. Each is computed when first read and kept; an offset off the
    cone raises `_InvalidBatch` on each read and keeps nothing.

    - `line_pencil` (latent dimension 1): the line's `_LinePencil`, the
      offset's Cholesky factor and the eigenpairs, cone interval and slopes
      that every projection onto the line reads.
    - `offset_factor`: `_point_moments` of the offset (mu and the lower
      triangle of Sigma), read-only; projections onto two or more basis
      rows start from it at w = 0.
    - `basis_blocks`: (b, B) for the basis rows (b_k, M_k),
      B_k = (M_k + M_k^T) / 2, read-only, which the Fisher metric of those
      projections reads (`_fisher`).
    - `moment_rows`: (W_k, b_k, B_k) per basis row, read-only, with
      W_k = tril(2 B_k, -1) + diag(B_k), so that tr(B_k S) = <W_k, tril(S)>
      for a symmetric S; every target t, and every slope g of a projection
      onto two or more basis rows, reads them (`_moment_slopes`).

    A pickled or deep-copied subspace is rebuilt through the constructor, so
    its arrays are read-only again and it computes each afresh.
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

    def __reduce__(self):
        return type(self), (self.u0, self.basis)

    @cached_property
    def line_pencil(self) -> "_LinePencil":
        if self.latent_dim != 1:
            raise ValueError(f"a line pencil needs latent dimension 1, not {self.latent_dim}")
        return _LinePencil(self.u0, self.basis[0], dim_from_flat(self.flat_dim))

    @cached_property
    def offset_factor(self) -> tuple:
        d = dim_from_flat(self.flat_dim)
        factor = _point_moments(self.u0, d)
        if factor is None:
            raise _InvalidBatch(self.u0[None, :], d)
        for a in factor:
            a.setflags(write=False)
        return factor

    @cached_property
    def basis_blocks(self) -> tuple:
        d = dim_from_flat(self.flat_dim)
        mat = self.basis[:, d:].reshape(-1, d, d)
        sym = 0.5 * (mat + np.transpose(mat, (0, 2, 1)))
        sym.setflags(write=False)
        return self.basis[:, :d], sym

    @cached_property
    def moment_rows(self) -> tuple:
        rows = []
        for b, sym in zip(*self.basis_blocks):
            tril = np.tril(2.0 * sym, -1) + np.diag(np.diag(sym))
            tril.setflags(write=False)
            rows.append((tril, b, sym))
        return tuple(rows)

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
    iterations: int  # accepted steps, len(history) - 1
    # True if the first L-BFGS-B run met its tolerance (status 0), or if a restart
    # step was taken and the fit then stopped at a stationary point: no decreasing
    # valid steepest step, or one that lowered a restarted run's ftol stop by at
    # most rel_tol relative. False at the iteration cap, when no valid step exists,
    # and when the first restart step finds no decrease. The polish does not
    # change it.
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

    `index`, the first of the natural `points` whose -2 Theta does not
    factor, is searched for only when read: the fit's line searches discard
    it. Without points it is -1.
    """

    def __init__(self, points: Optional[np.ndarray] = None, dim: int = 0):
        self.points = points
        self.dim = dim

    @property
    def index(self) -> int:
        if self.points is None:
            return -1
        for i in range(self.points.shape[0]):
            if not _factors(self.points[i], self.dim):
                return i
        return 0


def _factors(point: np.ndarray, d: int) -> bool:
    """Whether one natural point's -2 Theta has a Cholesky factor.

    Forms -2 Theta as `_natural_to_dual` does for a whole stack, so the
    answer is the same as for that point's slice of the stack.
    """
    m = point[d:].reshape(d, d)
    try:
        np.linalg.cholesky(-(m + m.T))
    except np.linalg.LinAlgError:
        return False
    return True


def _batched_logdet(chol: np.ndarray) -> np.ndarray:
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    return 2.0 * np.sum(np.log(diag), axis=-1)


def _reconstructions(weights: np.ndarray, u0: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """u0 + W U~, built in place as one (n, D) array, equal to the textbook sum bit for bit."""
    recon = weights @ basis
    recon += u0
    return recon


def _natural_to_dual(points: np.ndarray, d: int):
    """Per-point moments and expectation coordinates of natural points (n, D).

    Returns (precisions, log det Sigma, means, covariances, expectation
    coordinates); raises _InvalidBatch with the first point whose Theta is
    not negative definite.

    Each output is built in one array, with no full-size temporaries on the
    way: -2 Theta is formed as -(M + M^T) for the stored block M, negated in
    place, and mu and Sigma + mu mu^T are written straight into one
    preallocated (n, D) array. Both equal the textbook -2 * 1/2 (M + M^T)
    and concatenate([mu, Sigma + mu mu^T]) bit for bit: halving and doubling
    are exact barring subnormals, negation is exact, mu_i mu_j is one
    product either way, and float addition commutes (signed zeros
    included). The LAPACK calls see the same inputs, so every output is the
    same to the bit, row by row as for the whole stack.
    """
    n = points.shape[0]
    mat = points[:, d:].reshape(n, d, d)
    a = mat + np.transpose(mat, (0, 2, 1))
    np.negative(a, out=a)  # Sigma^-1 per point, must be PD
    try:
        logdet = -_batched_logdet(np.linalg.cholesky(a))  # no jitter
    except np.linalg.LinAlgError:
        raise _InvalidBatch(points, d) from None
    sigma = np.linalg.inv(a)
    mu = np.linalg.solve(a, points[:, :d, None])[..., 0]
    dual = np.empty((n, points.shape[1]))
    dual[:, :d] = mu
    dual_mat = dual[:, d:].reshape(n, d, d)  # a view: each row's d^2 block is contiguous
    np.einsum("ni,nj->nij", mu, mu, out=dual_mat)
    dual_mat += sigma
    return a, logdet, mu, sigma, dual


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
        self.failed: Optional[int] = None  # see `evaluate`
        try:
            _, self.logdet, self.mu, self.sigma, self.dual = _natural_to_dual(points, self.dim)
        except _InvalidBatch as exc:
            raise ValidityError(exc.index, data=True) from None

    def evaluate(self, weights: np.ndarray, u0: np.ndarray, basis: np.ndarray):
        """KL objective and expectation coordinates of the reconstructions u0 + W U~.

        Returns (total_kl, duals); raises _InvalidBatch, naming the first
        offending point, if a reconstruction leaves the cone.

        After an evaluation raises, the batch remembers the first row that
        failed (`failed`), and the next evaluation factors that row alone
        before the whole stack: a line search backing off the cone's edge
        tends to propose the same offending row again. Either way the same
        candidates raise, so no result changes. An evaluation that succeeds
        forgets the row.
        """
        recon = _reconstructions(weights, u0, basis)
        if self.failed is not None and not _factors(recon[self.failed], self.dim):
            raise _InvalidBatch(recon, self.dim)
        try:
            a, logdet_rec, mu_rec, _, duals = _natural_to_dual(recon, self.dim)
        except _InvalidBatch as exc:
            self.failed = exc.index
            raise
        self.failed = None
        del recon  # the KL reads the factored stack alone
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


# ---------------------------------------------------------------------------
# Monotone descent with validity backtracking.


def _line_search(evaluate: Callable, p: np.ndarray, kl_cur: float, direction: np.ndarray):
    """The first of p + t direction, t = 1, 1/2, 1/4, ... (`_MAX_BACKTRACKS`
    candidates), that stays on the cone and strictly lowers the objective.

    `evaluate(p)` returns (objective, payload) or raises _InvalidBatch.
    Returns (p, objective, payload, accepted), unmoved if no candidate is
    accepted; raises _InvalidBatch if every candidate leaves the cone.
    """
    t = 1.0
    saw_valid = False
    for _ in range(_MAX_BACKTRACKS):
        candidate = p + t * direction
        try:
            kl_new, payload = evaluate(candidate)
        except _InvalidBatch:
            t *= _BACKTRACK_FACTOR
            continue
        saw_valid = True
        if kl_new < kl_cur and np.isfinite(kl_new):
            return candidate, kl_new, payload, True
        t *= _BACKTRACK_FACTOR
    if not saw_valid:
        raise _InvalidBatch()
    return p, kl_cur, None, False


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
    its trial steps leave the cone. The fit then takes one steepest step
    from L-BFGS-B's last iterate, backtracked by `_line_search` until it
    stays on the cone and lowers the objective, counts it as an iteration,
    and restarts L-BFGS-B from there with the iterations left. A restarted
    run's ftol stop may follow a first step that changed the objective only
    by rounding, so it too is checked by one such step. The objective over
    accepted steps never increases. The returned `objective` is recomputed
    exactly for the returned (normalized) parameters.

    `converged` is True when the first L-BFGS-B run met its tolerance, when
    a restart step was taken and a later one finds no decreasing valid step
    at line-search resolution, or when a step after a restarted run's ftol
    stop lowers the objective by at most rel_tol relative. It is False when
    the iteration cap is hit, when no valid step exists (the fit keeps the
    point it reached), and when the first restart step finds no decrease.
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

    params = np.concatenate([w_init.reshape(-1), u0_init, basis_init.reshape(-1)])
    history = [start]  # _initial_subspace evaluated the start already

    def record(intermediate_result):  # scipy passes the objective of each iterate
        history.append(intermediate_result.fun)

    iterations, restarted = 0, False
    while True:
        # Quasi-Newton descent; its sufficient-decrease line search never accepts
        # an iterate at the barrier, so every recorded iterate is a valid subspace.
        result = minimize(
            value_and_grad,
            params,
            jac=True,
            method="L-BFGS-B",
            callback=record,
            options={
                "maxiter": opts.max_iters - iterations,
                "ftol": opts.rel_tol,
                "gtol": 1e-14,
                "maxcor": _LBFGS_MEMORY,
            },
        )
        iterations += int(result.nit)
        params = result.x
        converged = result.status == 0
        if not (result.status == 2 or (restarted and converged)):
            break
        # A failed line search (it cannot bracket across the barrier, whose zero
        # gradient tells it nothing), or a restarted run's ftol stop, which may
        # follow a first step of mere rounding: take one steepest step that
        # treats invalid candidates as rejected, and restart from there.
        try:
            kl, duals = evaluate(params)
            stepped, kl_new, _, accepted = _line_search(
                evaluate, params, kl, -_LEARNING_RATE * gradient(params, duals)
            )
        except _InvalidBatch:
            converged = False  # no valid step: keep the point reached
            break
        if not accepted:
            converged = restarted  # stationary, unless nothing ever moved
            break
        iterations += 1
        history.append(kl_new)
        params = stepped
        if converged and kl - kl_new <= opts.rel_tol * max(abs(kl_new), 1e-300):  # ftol stop holds
            break
        if iterations >= opts.max_iters:
            converged = False
            break
        restarted = True
    weights, u0, basis = unpack_params(params)
    # Each row's own projection; a row stopped early keeps its weights.
    weights, _ = _project_batch(batch, Subspace(u0=u0, basis=basis), opts, weights)
    u0, basis, weights = _normalize(u0, basis, weights)
    subspace = Subspace(u0=u0, basis=basis)
    try:
        final, _ = batch.evaluate(weights, subspace.u0, subspace.basis)
    except _InvalidBatch as exc:
        raise ValidityError(exc.index) from None
    return FitResult(
        subspace=subspace,
        weights=weights,
        objective=final,
        iterations=iterations,
        converged=converged,
        history=np.asarray(history),
    )


def _fisher(mu: np.ndarray, sigma: np.ndarray, b: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """The Fisher metric at a reconstruction (mu, Sigma), pulled back to the basis.

    The basis rows are (b_k, M_k), with sym[k] = B_k = (M_k + M_k^T) / 2
    (`Subspace.basis_blocks`):

        H_kl = (b_k + 2 B_k mu)^T Sigma (b_l + 2 B_l mu) + 2 tr(B_k Sigma B_l Sigma)

    The reconstruction is linear in natural coordinates, so H is the
    Jacobian of g(w) = U~ . eta(u0 + w U~) and the w-Hessian of
    KL(point || u0 + w U~) for any point.
    """
    v = b + 2.0 * (sym @ mu)
    p = sym @ sigma
    return (v @ sigma) @ v.T + 2.0 * np.einsum("kij,lji->kl", p, p)


class _LinePencil:
    """The line u0 + w u1 in the eigenbasis of its precision pencil.

    With A0 = C C^T, the strict Cholesky factor of the offset's -2 Theta
    (`chol`), and A1 = -2 Theta of u1, C^-1 A1 C^-T = V diag(lam) V^T
    (`lam`, `vecs`), so along the line

        -2 Theta(w) = A0 + w A1 = C V diag(s) V^T C^T,   s = 1 + w lam.

    That is positive definite exactly where every s_i > 0: on the open
    interval `cone`, whose ends are -1 / max(lam) and -1 / min(lam), or
    infinite where no eigenvalue has that sign. With a = V^T C^-1 theta0
    and b = V^T C^-1 theta1, the mean is C^-T V q with q = (a + w b) / s,
    and the slope of the log-partition along the line, g(w) = u1 . eta(w),
    and its derivative, the Fisher information H(w), are

        g(w) = sum_i q_i (b_i - q_i lam_i / 2) - 1/2 sum_i lam_i / s_i
        H(w) = sum_i (b_i - q_i lam_i)^2 / s_i + 1/2 sum_i (lam_i / s_i)^2

    where b_i - q_i lam_i = e_i / s_i with e = b - a lam. `slopes` computes
    both for a list of weights in O(d) each, factoring nothing, and
    `at_zero` keeps (g(0), H(0)).
    """

    def __init__(self, u0: np.ndarray, u1: np.ndarray, d: int):
        # Deferred, as in `gaussian_geometry.chol_solve`: importing the package loads no SciPy.
        from scipy.linalg import solve_triangular

        m0, m1 = u0[d:].reshape(d, d), u1[d:].reshape(d, d)
        try:
            chol = np.linalg.cholesky(-(m0 + m0.T))  # as `_natural_to_dual` forms it
        except np.linalg.LinAlgError:
            raise _InvalidBatch(u0[None, :], d) from None
        half = solve_triangular(chol, -(m1 + m1.T), lower=True)  # C^-1 A1
        reduced = solve_triangular(chol, half.T, lower=True)  # C^-1 A1 C^-T
        lam, vecs = np.linalg.eigh(0.5 * (reduced + reduced.T))
        a = vecs.T @ solve_triangular(chol, u0[:d], lower=True)
        b = vecs.T @ solve_triangular(chol, u1[:d], lower=True)
        self.u0, self.u1, self.dim, self._m0, self._m1 = u0, u1, d, m0, m1
        for array in (chol, lam, vecs, a, b):
            array.setflags(write=False)
        self.chol, self.lam, self.vecs, self.a, self.b = chol, lam, vecs, a, b
        self.cone = (
            -1.0 / float(lam[-1]) if lam[-1] > 0 else -math.inf,
            -1.0 / float(lam[0]) if lam[0] < 0 else math.inf,
        )
        # s = 1 + w lam rounds to a positive number on this slightly narrower interval.
        self.bracket = tuple(end * (1.0 - 64 * _EPS) for end in self.cone)
        # slopes(): with u = 1 / s and q = (a + w b) u, g and H expand into sums over
        # (u, u^2, u^3) whose coefficients are polynomials in w: one product per stack.
        coef = np.zeros((3, d, 4))
        coef[0, :, 0], coef[1, :, 0] = a * b - 0.5 * lam, -0.5 * lam * a * a  # g, w^0
        coef[0, :, 1], coef[1, :, 1] = b * b, -lam * a * b  # g, w^1
        coef[1, :, 2] = -0.5 * lam * b * b  # g, w^2
        coef[1, :, 3], coef[2, :, 3] = 0.5 * lam * lam, (b - a * lam) ** 2  # H
        self._coef = coef.reshape(3 * d, 4)
        self.at_zero = self.slopes([0.0])[0]

    def slopes(self, w: list) -> list:
        """[(g(w_k), H(w_k)), ...] for the weights w_k of the list w."""
        col = np.array(w)[:, None]
        u = 1.0 / (col * self.lam + 1.0)
        uu = u * u
        sums = (np.concatenate((u, uu, uu * u), axis=1) @ self._coef).tolist()
        return [(s0 + v * (s1 + v * s2), h) for v, (s0, s1, s2, h) in zip(w, sums)]

    def off_cone(self, w: list) -> list:
        """Indices k of the weights w_k whose reconstruction u0 + w_k u1 does not factor.

        One batched factorization of -2 Theta, formed from the stored blocks
        as `_natural_to_dual` and a prediction form it from the
        reconstruction, so all three agree on every weight.
        """
        m = np.array(w)[:, None, None] * self._m1 + self._m0
        try:
            np.linalg.cholesky(-(m + np.transpose(m, (0, 2, 1))))
        except np.linalg.LinAlgError:
            return [k for k, v in enumerate(w) if not _factors(self.u0 + v * self.u1, self.dim)]
        return []

    def back_off(self, w: float) -> float:
        """The first of w (1 - 2^-k), k = 40, 39, ..., 1, whose reconstruction factors, else 0.

        The offset w = 0 factors (`chol`), so the result is always on the cone.
        """
        for k in range(40, 0, -1):
            candidate = w * (1.0 - 2.0**-k)
            if _factors(self.u0 + candidate * self.u1, self.dim):
                return candidate
        return 0.0


def _point_moments(point: np.ndarray, d: int):
    """mu and the lower triangle of Sigma of one natural point, from one strict Cholesky factor.

    None if the point's -2 Theta does not factor.
    """
    # LAPACK directly, deferred as in `gaussian_geometry.chol_solve`: dpotri
    # inverts from the factor, where NumPy would take two LU factorizations
    # for inv and solve.
    from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

    m = point[d:].reshape(d, d)
    chol, info = dpotrf(-(m + m.T), lower=1)  # the upper triangle comes back zeroed
    if info != 0:
        return None
    return dpotrs(chol, point[:d], lower=1)[0], dpotri(chol, lower=1)[0]


def _moment_slopes(subspace: Subspace, mu: np.ndarray, sigma: np.ndarray) -> list:
    """U~ . eta of a Gaussian (mu, Sigma) given its mean and the lower triangle of Sigma.

    Entry k is b_k . mu + tr(B_k (Sigma + mu mu^T)) for the basis row
    (b_k, M_k), B_k = (M_k + M_k^T) / 2, with tr(B_k Sigma) read from the
    lower triangle (`Subspace.moment_rows`).
    """
    return [float(np.vdot(w, sigma) + mu @ (b + sym @ mu)) for w, b, sym in subspace.moment_rows]


def _project_line(pencil: _LinePencil, targets: list, opts: FitOptions, start: list):
    """Solve g(w) = t for each target t on the line of `pencil`, each row from its `start`.

    Every row takes Newton steps w - (g - t) / H inside a bracket that
    starts as the cone interval: g is increasing, so the sign of g - t tells
    which side of w the root lies on, and a step that leaves the bracket is
    replaced by bisection toward its end. Each iteration evaluates the
    slopes of all moving rows in one call. A row stops once
    (g - t)^2 / 2H <= 1e-3 rel_tol nats, or when its step no longer changes
    w (the bracket is one float wide). A start at w = 0 reads the pencil's
    kept slopes, so its first step costs nothing; a start off the bracket is
    replaced by 0. Each row that moved off 0 has its reconstruction factored
    once, strictly (one batched factorization); one that rounding puts just
    off the cone is backed off toward 0 (`_LinePencil.back_off`), so no row
    ends off the cone.
    Returns (weights (n, 1), errors), errors[i] None or the ConvergenceError
    of a row still moving after `max_iters` steps, left at its last iterate.
    """
    n = len(targets)
    lo0, hi0 = pencil.bracket
    w = [v if lo0 < v < hi0 else 0.0 for v in start]
    lo, hi = [lo0] * n, [hi0] * n
    slopes = pencil.slopes(w) if any(w) else [pencil.at_zero] * n
    tol = 2e-3 * opts.rel_tol  # (g - t)^2 <= tol H
    errors: list[Optional[Exception]] = [None] * n
    active, steps = list(range(n)), 0
    while active:
        moving = []
        for i, (g, h) in zip(active, slopes):
            r = g - targets[i]
            if r * r <= tol * h:
                continue
            if steps == opts.max_iters:
                errors[i] = ConvergenceError(abs(r), math.sqrt(tol * h), steps)
                continue
            wi = w[i]
            if r > 0:  # the root lies below wi
                hi[i] = wi
            else:
                lo[i] = wi
            step = wi - r / h
            if not lo[i] < step < hi[i]:
                step = 0.5 * (wi + (lo[i] if r > 0 else hi[i]))
            if step != wi:
                w[i] = step
                moving.append(i)
        active = moving
        if active:
            steps += 1
            slopes = pencil.slopes([w[i] for i in active])
    moved = [i for i in range(n) if w[i] != 0.0]
    if moved:
        for k in pencil.off_cone([w[i] for i in moved]):
            w[moved[k]] = pencil.back_off(w[moved[k]])
    return np.array(w).reshape(n, 1), errors


def _project_newton(subspace: Subspace, targets: list, opts: FitOptions, weights: np.ndarray):
    """Solve g(w) = U~ . eta(u0 + w U~) = t for each target t, each from its row of `weights`.

    Each row takes Newton steps w - H^-1 (g - t), with H = `_fisher`, and
    stops once its Newton decrement (g - t)^T H^-1 (g - t) / 2 is at most
    1e-3 rel_tol nats. A step is halved until its reconstruction factors
    and |g - t| falls, at most `_MAX_BACKTRACKS` times; a row whose step
    cannot lower |g - t| that way is at rounding level and stops where it
    is. Where H is singular (a zero basis row) the step is the least-squares
    one. Each trial factors its reconstruction once (`_point_moments`), and
    H is formed only at accepted weights; a start at w = 0 reads the
    offset's kept moments (`Subspace.offset_factor`).

    Overwrites `weights` and returns (weights, errors) as `_project`. A
    ConvergenceError compares sqrt((g - t)^T H^-1 (g - t)) with
    sqrt(2e-3 rel_tol).
    """
    d = dim_from_flat(subspace.flat_dim)
    b, sym = subspace.basis_blocks
    tol = 2e-3 * opts.rel_tol  # (g - t)^T H^-1 (g - t) <= tol
    errors: list[Optional[Exception]] = [None] * len(weights)
    for i, t in enumerate(targets):
        w = weights[i]
        if w.any():
            moments = _point_moments(reconstruct(w, subspace), d)
        else:
            try:
                moments = subspace.offset_factor
            except _InvalidBatch:
                moments = None
        if moments is None:
            errors[i] = ValidityError(i)
            continue
        r = np.subtract(_moment_slopes(subspace, *moments), t)
        steps = 0
        while True:
            mu, low = moments
            h = _fisher(mu, low + np.tril(low, -1).T, b, sym)
            step = np.linalg.lstsq(h, r, rcond=None)[0]
            decrement = float(r @ step)
            if decrement <= tol:
                break
            if steps == opts.max_iters:
                errors[i] = ConvergenceError(math.sqrt(decrement), math.sqrt(tol), steps)
                break
            scale = 1.0
            for _ in range(_MAX_BACKTRACKS):
                candidate = w - scale * step
                trial = _point_moments(reconstruct(candidate, subspace), d)
                if trial is not None:
                    r_new = np.subtract(_moment_slopes(subspace, *trial), t)
                    if r_new @ r_new < r @ r:
                        break
                scale *= _BACKTRACK_FACTOR
            else:
                break  # |g - t| is at rounding level
            w, r, moments = candidate, r_new, trial
            steps += 1
        weights[i] = w
    return weights, errors


def _project(subspace: Subspace, targets: list, opts: FitOptions, start: np.ndarray):
    """Solve g(w) = U~ . eta(u0 + w U~) = t for each target t (L floats), each from its row of `start`.

    No basis leaves every row at its start; a line goes to `_project_line`,
    and two or more basis rows to `_project_newton`. Either way a row stops
    once its Newton decrement is at most 1e-3 rel_tol nats.

    Returns (weights (n, L), errors): errors[i] is None, or the error that
    stopped row i early. A ConvergenceError (the iteration cap) leaves the
    row at its last iterate; a ValidityError (an offset or start off the
    cone) leaves it at its start.
    """
    start = np.array(start, dtype=float)
    if subspace.latent_dim == 0:
        return start, [None] * len(start)
    if subspace.latent_dim > 1:
        return _project_newton(subspace, targets, opts, start)
    try:
        pencil = subspace.line_pencil
    except _InvalidBatch:
        return start, [ValidityError(i) for i in range(len(start))]
    return _project_line(pencil, [t for t, in targets], opts, start[:, 0].tolist())


def _project_batch(batch: _PointBatch, subspace: Subspace, opts: FitOptions, start: np.ndarray):
    """`_project` of every point of `batch`, with t = U~ . eta read from the batch's duals."""
    return _project(subspace, (batch.dual @ subspace.basis.T).tolist(), opts, start)


def project_point(point, subspace: Subspace, opts: Optional[FitOptions] = None) -> np.ndarray:
    """Weights of the KL-minimizing projection of one coordinate point, started at w = 0.

    The problem is convex in w, so the projection is unique: the moment
    match g(w) = U~ . eta(u0 + w U~) = t (`_project`). The point is factored
    once, strictly, for t = U~ . eta(point) (`_point_moments`). The solve
    starts from what the subspace keeps at the offset (`line_pencil` on a
    line, `offset_factor` otherwise), so only the first projection onto a
    subspace factors the offset. It stops once the Newton decrement is at
    most 1e-3 rel_tol nats, which computes no KL, and its result is a weight
    whose reconstruction factors.

    Raises ConvergenceError if the iteration cap is hit first, and
    ValidityError for a point off the cone (as an input point) or an offset
    off the cone (as the reconstruction of point 0).
    """
    opts = opts or FitOptions()
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.shape[0] != subspace.flat_dim:
        raise ValueError(f"point length {point.shape[0]} != subspace dim {subspace.flat_dim}")
    moments = _point_moments(point, dim_from_flat(subspace.flat_dim))
    if moments is None:
        raise ValidityError(0, data=True)
    target = _moment_slopes(subspace, *moments)
    if not all(map(math.isfinite, target)):
        raise ValidityError(0, data=True)
    weights, errors = _project(subspace, [target], opts, np.zeros((1, subspace.latent_dim)))
    if errors[0] is not None:
        raise errors[0]
    return weights[0]
