"""Brute-force identity checkers used by the test suite.

Everything here deliberately uses dense `np.linalg.inv` and explicit block
assembly rather than the factored paths of the main modules, so that
agreement between the two routes is evidence and not tautology. A random
instance is compared in one of two ways: condition-screened by the caller
(reject condition numbers above 1e4; `well_conditioned_spd` produces
suitable matrices), or checked against a tolerance scaled by eps * kappa,
where eps is float64 machine epsilon and kappa the condition number of the
matrices compared. The KL-extension test takes the second way: its random
inputs can fall close together, cond(Sigma**) then reaches 1e10, and no
fixed absolute tolerance holds for every draw.

The per-call route (`predict_batch_per_call`, `task_point_per_call` and
the functions under them) is the predictive and task-point code as it was
before each model cached its anchor factor: every call builds K over the
anchor, factors it and recomputes the prior-mean centre, the variances come
from a three-operand einsum, and a reconstruction's moments come from the
chain `natural_to_moment(unpack_natural(reconstruct(w)))`
(`reconstructed_moments`) instead of `gp_pca`'s one strict factorization.
The cached route must give the same means bit for bit, and the same
variances to the float64 floor.
`line_interval`, `kl_along_line` and `line_minimum` locate a projection's
target on a line: the exact cone interval from SciPy's generalized
eigenvalues, the KL from dense moments per call, and a bounded scalar
search over that interval, independently of the package's pencil and its
Newton steps. `kl_over_subspace` and `subspace_minimum` do the same for any
latent dimension, by Nelder-Mead over w on that per-call KL.
`variational_posterior`, `rho_prime_to_rho` and `rho_to_rho_prime` are the
rescaled sparse chart written out in moments, for the tests only.

The expectation chart, the Legendre potentials, the closed-form KL and the
extension map `joint_posterior_coords` are the reference algebra of the
paper's theorems. The package fits in the natural chart and predicts from
moments, so these live here, where the tests check the two charts and the
extension against them. `unpack_coords` and `unpack_natural` split a flat
point into its vector and its symmetrized matrix block for that chain: the
package reads flat points directly and never builds a `NaturalCoord` from one.

The Van der Pol reference integrates one state at a time with scalar RK4
and builds every sequence by its own integration, the way the generator
was first written; the batched generator must match it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve, eigh, solve_triangular
from scipy.optimize import minimize, minimize_scalar

from gppca import epca, gp_pca
from gppca.datasets import _STREAM_VDP_EVAL_INIT, _STREAM_VDP_INIT, MultiTaskDataset, VdpConfig, _rng
from gppca.epca import FitOptions
from gppca.gaussian_geometry import (
    MomentGaussian,
    NaturalCoord,
    chol_pd,
    dim_from_flat,
    moment_to_natural,
    natural_to_moment,
    pack_coords,
    pack_natural,
    _check_symmetry,
    _sym,
)
from gppca.kernels_gp import (
    GpPrior,
    KernelConfig,
    TaskData,
    as_anchor,
    as_points,
    coincident,
    exact_posterior,
    gram,
    union_inputs,
)
from gppca.sparse_gp import InducingSet

__all__ = [
    "ExpectationCoord",
    "moment_to_expectation",
    "expectation_to_moment",
    "natural_to_expectation",
    "expectation_to_natural",
    "log_partition",
    "dual_potential",
    "inner_product",
    "kl_divergence",
    "unpack_coords",
    "unpack_natural",
    "pack_expectation",
    "unpack_expectation",
    "joint_posterior_coords",
    "well_conditioned_spd",
    "check_woodbury",
    "check_woodbury_derived",
    "check_sigma_ratio",
    "check_theta_transport",
    "joint_moments_bruteforce",
    "kl_decomposition_check",
    "fit_joint_direct",
    "union_inputs_rowwise",
    "exact_posterior_per_call",
    "variational_posterior",
    "variational_coords_per_call",
    "rho_prime_to_rho",
    "rho_to_rho_prime",
    "predictive_batch_per_call",
    "sparse_predictive_batch_per_call",
    "predict_batch_per_call",
    "task_point_per_call",
    "line_interval",
    "kl_over_subspace",
    "kl_along_line",
    "subspace_minimum",
    "line_minimum",
    "integrate_vdp_scalar",
    "vdp_tasks_scalar",
]


_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# The expectation chart and the Legendre potentials.
#
#   expectation (m): eta = mu,  H = mu mu^T + Sigma
#   psi(xi)   = 1/2 mu^T Sigma^-1 mu + 1/2 log det(2 pi Sigma)
#   phi(zeta) = -1/2 log det(2 pi e Sigma)
#
# satisfy psi(xi) + phi(zeta) - <xi, zeta> = 0 at matched coordinates, with
# <xi, zeta> = theta^T eta + tr(Theta^T H). KL(p||q) = E_p[log p/q] equals
# psi(xi_q) + phi(zeta_p) - <xi_q, zeta_p>; `kl_divergence` evaluates the
# stable closed form, so the tests can compare the two routes.


@dataclass(frozen=True)
class ExpectationCoord:
    """Expectation (m-) coordinates: eta = mu, big_h = mu mu^T + Sigma."""

    eta: np.ndarray
    big_h: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float).reshape(-1)
        big_h = _check_symmetry(self.big_h, "big_h")
        if big_h.shape[0] != eta.shape[0]:
            raise ValueError(f"eta has dim {eta.shape[0]} but big_h is {big_h.shape}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "big_h", big_h)

    @property
    def dim(self) -> int:
        return self.eta.shape[0]


def _logdet_from_chol(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def moment_to_expectation(g: MomentGaussian) -> ExpectationCoord:
    """eta = mu, H = mu mu^T + Sigma."""
    return ExpectationCoord(eta=g.mu, big_h=_sym(np.outer(g.mu, g.mu) + g.sigma))


def expectation_to_moment(c: ExpectationCoord) -> MomentGaussian:
    """mu = eta, Sigma = H - eta eta^T."""
    sigma = _sym(c.big_h - np.outer(c.eta, c.eta))
    # Validate positive definiteness up front so the error names this input.
    chol_pd(sigma, "big_h - eta*eta^T")
    return MomentGaussian(mu=c.eta, sigma=sigma)


def natural_to_expectation(c: NaturalCoord) -> ExpectationCoord:
    """Composition through moment form; equals the direct rational formula

    eta = -1/2 Theta^-1 theta,
    H = 1/4 Theta^-1 theta theta^T Theta^-1 - 1/2 Theta^-1.
    """
    return moment_to_expectation(natural_to_moment(c))


def expectation_to_natural(c: ExpectationCoord) -> NaturalCoord:
    """Composition through moment form; equals

    theta = (H - eta eta^T)^-1 eta,
    Theta = -1/2 (H - eta eta^T)^-1.
    """
    return moment_to_natural(expectation_to_moment(c))


def log_partition(c: NaturalCoord) -> float:
    """Log normalizer psi(xi) = 1/2 mu^T Sigma^-1 mu + 1/2 log det(2 pi Sigma).

    Its gradient in (theta, Theta) is the matched expectation coordinate.
    """
    a = -2.0 * c.big_theta
    chol = chol_pd(a, "-2*big_theta")
    mu = cho_solve((chol, True), c.theta)
    # log det Sigma = -log det(Sigma^-1)
    logdet_sigma = -_logdet_from_chol(chol)
    quad = float(c.theta @ mu)  # mu^T Sigma^-1 mu
    return 0.5 * quad + 0.5 * (c.dim * _LOG_2PI + logdet_sigma)


def dual_potential(c: ExpectationCoord) -> float:
    """Dual potential phi(zeta) = -1/2 log det(2 pi e Sigma), the negative entropy."""
    sigma = _sym(c.big_h - np.outer(c.eta, c.eta))
    chol = chol_pd(sigma, "big_h - eta*eta^T")
    return -0.5 * (c.dim * (1.0 + _LOG_2PI) + _logdet_from_chol(chol))


def inner_product(xi: NaturalCoord, zeta: ExpectationCoord) -> float:
    """Pairing <xi, zeta> = theta^T eta + tr(Theta^T H)."""
    if xi.dim != zeta.dim:
        raise ValueError(f"dimension mismatch: {xi.dim} vs {zeta.dim}")
    return float(xi.theta @ zeta.eta) + float(np.sum(xi.big_theta * zeta.big_h))


def kl_divergence(p: MomentGaussian, q: MomentGaussian) -> float:
    """KL(p || q) = E_p[log p/q] for Gaussians, in closed form.

    Equals psi(xi_q) + phi(zeta_p) - <xi_q, zeta_p>; the closed form below
    avoids the large cancelling constants of the potential route.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    d = p.dim
    chol_q = chol_pd(q.sigma, "q.sigma")
    chol_p = chol_pd(p.sigma, "p.sigma")
    # tr(Sigma_q^-1 Sigma_p) via triangular solves
    half = solve_triangular(chol_q, p.sigma, lower=True)
    half = solve_triangular(chol_q, half.T, lower=True)
    trace_term = float(np.trace(half))
    diff = q.mu - p.mu
    y = solve_triangular(chol_q, diff, lower=True)
    quad = float(y @ y)
    logdet = _logdet_from_chol(chol_q) - _logdet_from_chol(chol_p)
    return 0.5 * (trace_term + quad - d + logdet)


def unpack_coords(flat: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a flat point back into (vector, symmetrized matrix)."""
    flat = np.asarray(flat, dtype=float).reshape(-1)
    if flat.shape[0] != d + d * d:
        raise ValueError(f"flat point of length {flat.shape[0]} does not match d={d}")
    return flat[:d], _sym(flat[d:].reshape(d, d))


def unpack_natural(flat: np.ndarray, d: int) -> NaturalCoord:
    vec, mat = unpack_coords(flat, d)
    return NaturalCoord(theta=vec, big_theta=mat)


def pack_expectation(c: ExpectationCoord) -> np.ndarray:
    return pack_coords(c.eta, c.big_h)


def unpack_expectation(flat: np.ndarray, d: int) -> ExpectationCoord:
    vec, mat = unpack_coords(flat, d)
    return ExpectationCoord(eta=vec, big_h=mat)


# ---------------------------------------------------------------------------
# Identity checkers and the extension map.


def well_conditioned_spd(
    rng: np.random.Generator, d: int, cond_max: float = 1e4, scale: float = 1.0
) -> np.ndarray:
    """Random symmetric PD matrix with eigenvalues in [scale/sqrt(c), scale*sqrt(c)]."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    half = np.sqrt(cond_max)
    eigs = np.exp(rng.uniform(np.log(scale / half), np.log(scale * half), size=d))
    return _sym(q @ np.diag(eigs) @ q.T)


def _max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def check_woodbury(a, u, b, v) -> float:
    """Residual of (A + U B V)^-1 = A^-1 - A^-1 U (B^-1 + V A^-1 U)^-1 V A^-1."""
    a, u, b, v = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (a, u, b, v))
    left = np.linalg.inv(a + u @ b @ v)
    a_inv = np.linalg.inv(a)
    core = np.linalg.inv(np.linalg.inv(b) + v @ a_inv @ u)
    right = a_inv - a_inv @ u @ core @ v @ a_inv
    return _max_abs(left - right)


def check_woodbury_derived(k, b) -> float:
    """Residual of (K + K B K)^-1 = K^-1 - (B^-1 + K)^-1."""
    k, b = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (k, b))
    left = np.linalg.inv(k + k @ b @ k)
    right = np.linalg.inv(k) - np.linalg.inv(np.linalg.inv(b) + k)
    return _max_abs(left - right)


def check_sigma_ratio(k_plus, k, v) -> float:
    """Residual of (K+ + K+ V K)(K + K V K)^-1 = K+ K^-1."""
    k_plus = np.atleast_2d(np.asarray(k_plus, dtype=float))
    k, v = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (k, v))
    sigma_plus = k_plus + k_plus @ v @ k
    sigma = k + k @ v @ k
    left = sigma_plus @ np.linalg.inv(sigma)
    right = k_plus @ np.linalg.inv(k)
    return _max_abs(left - right)


def check_theta_transport(k, v, k_star, k_starstar) -> float:
    """Residual of (K** + K* V K*^T)^-1 K* K^-1 (K + K V K) = K**^-1 K*.

    Needs K* and K** to extend K as leading blocks, i.e. K* = K** [:, :N]
    restricted rows and K = K* [:N, :]; gram matrices over nested input sets
    have exactly this structure.
    """
    k = np.atleast_2d(np.asarray(k, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    k_star = np.atleast_2d(np.asarray(k_star, dtype=float))
    k_starstar = np.atleast_2d(np.asarray(k_starstar, dtype=float))
    theta_starstar = np.linalg.inv(k_starstar + k_star @ v @ k_star.T)
    theta = np.linalg.inv(k + k @ v @ k)
    left = theta_starstar @ k_star @ np.linalg.inv(k) @ np.linalg.inv(theta)
    right = np.linalg.inv(k_starstar) @ k_star
    return _max_abs(left - right)


def joint_moments_bruteforce(prior: GpPrior, rho: MomentGaussian, anchor, test) -> MomentGaussian:
    """Joint of (f, f+) assembled from the conditional prior, block by block.

    f+ | f is Gaussian with mean mu0+ + K+ K^-1 (f - mu0) and covariance
    K++ - K+ K^-1 K+^T; composing with f ~ rho gives the blocks below. This
    is an independent route to the extended posterior used for testing the
    affine coordinate map.
    """
    anchor = as_points(anchor)
    test = as_points(test)
    k = gram(prior.kernel, anchor, anchor)
    k_inv = np.linalg.inv(k)
    k_plus = gram(prior.kernel, test, anchor)  # (t, n)
    k_pp = gram(prior.kernel, test, test)
    m = k_plus @ k_inv
    noise = k_pp - m @ k_plus.T  # conditional prior covariance
    mu_f = rho.mu
    mu_plus = prior.mean_at(test) + m @ (mu_f - prior.mean_at(anchor))
    cov_ff = rho.sigma
    cov_fp = rho.sigma @ m.T
    cov_pp = m @ rho.sigma @ m.T + noise
    n = anchor.shape[0]
    t = test.shape[0]
    mu = np.concatenate([mu_f, mu_plus])
    cov = np.zeros((n + t, n + t))
    cov[:n, :n] = cov_ff
    cov[:n, n:] = cov_fp
    cov[n:, :n] = cov_fp.T
    cov[n:, n:] = cov_pp
    return MomentGaussian(mu=mu, sigma=_sym(cov))


def joint_posterior_coords(prior: GpPrior, rho: MomentGaussian, anchor, test) -> NaturalCoord:
    """Natural coordinates of the posterior extended to anchor plus test inputs.

    The extension q(f+, f) = p(f+ | f) q(f) has moments

        mu*      = mu0(X*) + K* K^-1 (mu - mu0(X))
        Sigma**  = K** + K* K^-1 (Sigma - K) K^-1 K*^T

    over X* = X union X+ (anchor block first). The induced coordinate map is
    affine and KL-preserving; test points duplicating anchor points are
    dropped. With no test points this is the identity on coordinates.
    """
    anchor = as_anchor(anchor)
    points = anchor.points
    test = as_points(test) if test is not None else np.zeros((0, points.shape[1]))
    if rho.dim != points.shape[0]:
        raise ValueError(f"posterior dim {rho.dim} does not match anchor size {points.shape[0]}")
    fresh = test[~coincident(test, points).any(axis=1)]
    if fresh.shape[0] == 0:
        return moment_to_natural(rho)
    factor = anchor.factor(prior)
    union = np.vstack([points, fresh])
    k_star = gram(prior.kernel, union, points)
    b = cho_solve((factor.chol, True), k_star.T)  # K^-1 K*^T, (n, M)
    mu_star = prior.mean_at(union) + b.T @ (rho.mu - factor.mean)
    k_union = gram(prior.kernel, union, union)
    sigma_star = k_union + b.T @ (rho.sigma - factor.gram) @ b
    return moment_to_natural(MomentGaussian(mu=mu_star, sigma=_sym(sigma_star)))


def kl_decomposition_check(
    prior: GpPrior, rho: MomentGaussian, rho2: MomentGaussian, anchor, test
) -> float:
    """|KL between extended posteriors - KL between anchor posteriors|.

    Extending two posteriors by the same conditional prior adds nothing to
    their divergence; the returned residual should vanish.
    """
    test = as_points(test) if test is not None else np.zeros((0, as_points(anchor).shape[1]))
    if test.shape[0] == 0:
        return abs(kl_divergence(rho, rho2) - kl_divergence(rho, rho2))
    joint = joint_moments_bruteforce(prior, rho, anchor, test)
    joint2 = joint_moments_bruteforce(prior, rho2, anchor, test)
    return abs(kl_divergence(joint, joint2) - kl_divergence(rho, rho2))


def fit_joint_direct(
    tasks: Sequence[TaskData],
    prior: GpPrior,
    test,
    latent_dim: int,
    opts: Optional[FitOptions] = None,
) -> float:
    """Objective of a subspace fitted directly on extended coordinates.

    Builds each task's posterior over the union of training inputs, extends
    it to the union plus test inputs through the brute-force joint, and runs
    the same subspace fit on those larger coordinates. The reachable optimum
    equals the anchor-set fit's optimum, which is the assertion this oracle
    exists to check.
    """
    anchor = union_inputs(tasks)
    coords = []
    for task in tasks:
        rho = exact_posterior(prior, task, anchor)
        test_pts = as_points(test) if test is not None else np.zeros((0, anchor.shape[1]))
        if test_pts.shape[0] == 0:
            joint = rho
        else:
            joint = joint_moments_bruteforce(prior, rho, anchor, test_pts)
        coords.append(pack_natural(moment_to_natural(joint)))
    result = epca.fit(np.asarray(coords), latent_dim, opts)
    return result.objective


def union_inputs_rowwise(tasks, tol: float = 1e-12) -> np.ndarray:
    """`kernels_gp.union_inputs` one row at a time against the rows kept so far."""
    kept = []
    for task in tasks:
        for row in task.inputs:
            if not any(np.max(np.abs(k - row)) <= tol for k in kept):
                kept.append(row)
    return np.asarray(kept, dtype=float)


# ---------------------------------------------------------------------------
# The per-call predictive and task-point route, and the rescaled sparse chart
# in moments.


def exact_posterior_per_call(prior: GpPrior, task: TaskData, anchor) -> MomentGaussian:
    """`kernels_gp.exact_posterior` with K and mu0 over the anchor computed in the call."""
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


def _sparse_system(prior: GpPrior, task: TaskData, inducing: InducingSet):
    """K_mm factor, A = beta^-1 K_mm + K_mn K_mn^T, its factor and K_mn (y - mu0(X))."""
    z = inducing.points
    k_mm = gram(prior.kernel, z, z)
    chol_mm = chol_pd(k_mm, "K_mm")
    if len(task) == 0:
        a = k_mm / prior.beta
        data_term = np.zeros(len(inducing))
    else:
        k_mn = gram(prior.kernel, z, task.inputs)
        data_term = k_mn @ (task.outputs - prior.mean_at(task.inputs))
        a = k_mm / prior.beta + k_mn @ k_mn.T
    chol_a = chol_pd(_sym(a), "A_mm")
    return chol_mm, _sym(a), chol_a, data_term


def variational_posterior(prior: GpPrior, task: TaskData, inducing: InducingSet) -> MomentGaussian:
    """Optimal variational posterior in the rescaled chart.

    mu' = A^-1 K_mn (y - mu0(X_i)) + K_mm^-1 mu0(Z), Sigma' = beta^-1 A^-1.
    """
    chol_mm, _, chol_a, data_term = _sparse_system(prior, task, inducing)
    mu_prime = cho_solve((chol_a, True), data_term) + cho_solve(
        (chol_mm, True), prior.mean_at(inducing.points)
    )
    sigma_prime = cho_solve((chol_a, True), np.eye(len(inducing))) / prior.beta
    return MomentGaussian(mu=mu_prime, sigma=_sym(sigma_prime))


def variational_coords_per_call(prior: GpPrior, task: TaskData, inducing: InducingSet) -> NaturalCoord:
    """Natural coordinates of `sparse_gp.variational_coords`, with K_mm factored in the call."""
    chol_mm, a, _, data_term = _sparse_system(prior, task, inducing)
    prior_part = cho_solve((chol_mm, True), prior.mean_at(inducing.points))
    return NaturalCoord(
        theta=prior.beta * (data_term + a @ prior_part), big_theta=-0.5 * prior.beta * a
    )


def rho_prime_to_rho(sp: MomentGaussian, inducing: InducingSet, cfg: KernelConfig) -> MomentGaussian:
    """Undo the rescaling of (mu', Sigma'): mu = K_mm mu', Sigma = K_mm Sigma' K_mm."""
    k_mm = gram(cfg, inducing.points, inducing.points)
    return MomentGaussian(mu=k_mm @ sp.mu, sigma=_sym(k_mm @ sp.sigma @ k_mm))


def rho_to_rho_prime(g: MomentGaussian, inducing: InducingSet, cfg: KernelConfig) -> MomentGaussian:
    """Apply the rescaling: mu' = K_mm^-1 mu, Sigma' = K_mm^-1 Sigma K_mm^-1."""
    k_mm = gram(cfg, inducing.points, inducing.points)
    chol = chol_pd(k_mm, "K_mm")
    mu_prime = cho_solve((chol, True), g.mu)
    half = cho_solve((chol, True), g.sigma)
    sigma_prime = cho_solve((chol, True), half.T)
    return MomentGaussian(mu=mu_prime, sigma=_sym(sigma_prime))


def predictive_batch_per_call(prior: GpPrior, rho: MomentGaussian, anchor, x_plus):
    """`kernels_gp.predictive_batch` with K factored in the call and an einsum variance."""
    anchor = as_points(anchor)
    test = as_points(x_plus)
    k_anchor = gram(prior.kernel, anchor, anchor)
    chol = chol_pd(k_anchor, "K(anchor, anchor)")
    k_cross = gram(prior.kernel, anchor, test)
    w = cho_solve((chol, True), k_cross)
    means = prior.mean_at(test) + w.T @ (rho.mu - prior.mean_at(anchor))
    variances = 1.0 + np.einsum("nt,nm,mt->t", w, rho.sigma - k_anchor, w)
    return means, np.maximum(variances, 0.0)


def sparse_predictive_batch_per_call(prior: GpPrior, sp: MomentGaussian, inducing: InducingSet, x_plus):
    """`sparse_gp.sparse_predictive_batch` with K_mm factored in the call and an einsum variance."""
    z = inducing.points
    test = as_points(x_plus)
    k_mm = gram(prior.kernel, z, z)
    chol_mm = chol_pd(k_mm, "K_mm")
    k_m = gram(prior.kernel, z, test)
    centered = sp.mu - cho_solve((chol_mm, True), prior.mean_at(z))
    means = prior.mean_at(test) + k_m.T @ centered
    w = cho_solve((chol_mm, True), k_m)
    variances = 1.0 - np.einsum("mt,mt->t", k_m, w) + np.einsum(
        "mt,mn,nt->t", k_m, sp.sigma, k_m
    )
    return means, np.maximum(variances, 0.0)


def reconstructed_moments(model, w) -> MomentGaussian:
    """Moments of the reconstruction at weights `w` through the public chain
    `natural_to_moment(unpack_natural(reconstruct(w)))`, which symmetrizes and
    checks Theta at each step and factors -2 Theta with `chol_pd`'s jitter repair."""
    nat = unpack_natural(epca.reconstruct(w, model.subspace), model.anchor.shape[0])
    return natural_to_moment(nat)


def predict_batch_per_call(model, task_or_weights, x_plus):
    """`gp_pca.predict_batch` through the public chain and the per-call predictive functions."""
    rho = reconstructed_moments(model, gp_pca._resolve_weights(model, task_or_weights))
    if model.mode == "exact":
        return predictive_batch_per_call(model.prior, rho, model.anchor, x_plus)
    return sparse_predictive_batch_per_call(model.prior, rho, InducingSet(model.anchor), x_plus)


def task_point_per_call(model, task: TaskData) -> np.ndarray:
    """A task's flattened chart point over the model's anchor, by the per-call functions."""
    if model.mode == "exact":
        nat = moment_to_natural(exact_posterior_per_call(model.prior, task, model.anchor))
    else:
        nat = variational_coords_per_call(model.prior, task, InducingSet(model.anchor))
    return pack_natural(nat)


def line_interval(subspace: epca.Subspace) -> tuple[float, float]:
    """Open interval of w on which u0 + w u1 is a valid Gaussian (latent dimension 1).

    -2 Theta(w) = A0 + w A1 is positive definite exactly when 1 + w lam > 0
    for every generalized eigenvalue lam of (A1, A0), computed here by
    SciPy's `eigh`, not by the package's pencil.
    """
    if subspace.latent_dim != 1:
        raise ValueError("a line needs latent dimension 1")
    d = dim_from_flat(subspace.flat_dim)
    a0 = -2.0 * unpack_natural(subspace.u0, d).big_theta
    a1 = -2.0 * unpack_natural(subspace.basis[0], d).big_theta
    lam = eigh(a1, a0, eigvals_only=True)
    return (-1.0 / lam[-1] if lam[-1] > 0 else -math.inf, -1.0 / lam[0] if lam[0] < 0 else math.inf)


def kl_over_subspace(point, subspace: epca.Subspace):
    """w -> KL(point || u0 + w U~), +inf off the cone, for a subspace of any latent dimension.

    Moments come from dense inverses of -2 Theta, and the KL from
    `kl_divergence`, not from the package's factored evaluation.
    """
    d = dim_from_flat(subspace.flat_dim)

    def moments(flat):
        nat = unpack_natural(flat, d)
        prec = -2.0 * nat.big_theta
        np.linalg.cholesky(prec)  # off the cone: LinAlgError
        sigma = np.linalg.inv(prec)
        return MomentGaussian(sigma @ nat.theta, 0.5 * (sigma + sigma.T))

    data = moments(np.asarray(point, dtype=float))

    def f(w) -> float:
        try:
            return kl_divergence(data, moments(subspace.u0 + np.asarray(w, dtype=float) @ subspace.basis))
        except np.linalg.LinAlgError:
            return math.inf

    return f


def kl_along_line(point, subspace: epca.Subspace):
    """w -> KL(point || u0 + w u1) for a subspace of latent dimension 1, +inf off the cone."""
    if subspace.latent_dim != 1:
        raise ValueError("a line needs latent dimension 1")
    f = kl_over_subspace(point, subspace)
    return lambda w: f([w])


def subspace_minimum(point, subspace: epca.Subspace, start) -> tuple[np.ndarray, float]:
    """(w*, KL*) minimizing KL(point || u0 + w U~) by Nelder-Mead over w.

    Runs from `start` on the per-call KL (`kl_over_subspace`), which is
    convex in w, with a first simplex of steps 0.05 max(1, |start|) along
    each axis, and restarts from where it stopped, on a simplex of the size
    it ended at, while that lowers the KL. Like `line_minimum`, it never
    reports a minimum above a point it has seen, w = 0 included.
    """
    f = kl_over_subspace(point, subspace)
    x = np.asarray(start, dtype=float)
    value = f(x)
    first = size = 0.05 * max(1.0, float(np.abs(x).max(initial=0.0)))
    for _ in range(3):
        res = minimize(
            f, x, method="Nelder-Mead",
            options={"initial_simplex": np.vstack([x, x + size * np.eye(len(x))]),
                     "xatol": 1e-10 * first, "fatol": 1e-15 * max(1.0, value), "maxfev": 1_500},
        )
        if not res.fun < value:
            break
        x, value = res.x, float(res.fun)
        size = max(float(np.abs(res.final_simplex[0] - x).max()), 1e-6 * first)
    zero = np.zeros_like(x)
    return (zero, f(zero)) if f(zero) < value else (x, value)


def line_minimum(point, subspace: epca.Subspace, start: float = 0.0) -> tuple[float, float]:
    """(w*, KL*) minimizing KL(point || u0 + w u1) by a bounded scalar search.

    The search runs over the exact cone interval (`line_interval`), with an
    infinite side closed where the convex KL has risen above its value at 0
    and at `start`, and evaluates the KL per call (`kl_along_line`). Like
    the benchmark's adaptation check, it never reports a minimum above a
    point it has seen.
    """
    f = kl_along_line(point, subspace)
    lo, hi = line_interval(subspace)
    ref = min(f(0.0), f(start))
    ends = [lo, hi]
    for k, side in enumerate((-1.0, 1.0)):
        if math.isfinite(ends[k]):
            continue
        b = max(1.0, 2.0 * abs(start))
        while f(side * b) <= ref:
            b *= 2.0
        ends[k] = side * b
    lo, hi = ends
    width = hi - lo
    lo, hi = lo + 1e-12 * width, hi - 1e-12 * width
    res = minimize_scalar(
        f, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12 * max(1.0, abs(lo), abs(hi)), "maxiter": 500},
    )
    return min((float(res.fun), float(res.x)), (f(0.0), 0.0), (f(start), start))[::-1]


def _vdp_rhs(state: np.ndarray, alpha: float) -> np.ndarray:
    x, v = state
    return np.array([v, alpha * (1.0 - x * x) * v - x])


def integrate_vdp_scalar(alpha: float, state0, dt: float, steps: int) -> np.ndarray:
    """Scalar RK4 trajectory, rows (t, x, dx/dt), steps+1 of them."""
    state = np.asarray(state0, dtype=float).reshape(2)
    out = np.empty((steps + 1, 3))
    out[0] = (0.0, state[0], state[1])
    t = 0.0
    for n in range(1, steps + 1):
        k1 = _vdp_rhs(state, alpha)
        k2 = _vdp_rhs(state + 0.5 * dt * k1, alpha)
        k3 = _vdp_rhs(state + 0.5 * dt * k2, alpha)
        k4 = _vdp_rhs(state + dt * k3, alpha)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        out[n] = (t, state[0], state[1])
    return out


def _record(alpha, state0, cfg: VdpConfig, n_points: int) -> np.ndarray:
    stride = max(int(round(cfg.dt / cfg.substep)), 1)
    fine = integrate_vdp_scalar(alpha, state0, cfg.dt / stride, (n_points - 1) * stride)
    return fine[::stride][:n_points]


def _vdp_task(alpha, initials, cfg: VdpConfig, task_id: int, burn_in: float = 0.0) -> TaskData:
    """One sequence per initial state, each integrated from that state alone."""
    xs, vs = [], []
    for s0 in initials:
        if burn_in > 0.0:
            steps = max(int(round(burn_in / cfg.substep)), 1)
            s0 = integrate_vdp_scalar(alpha, s0, cfg.substep, steps)[-1, 1:3]
        block = _record(alpha, s0, cfg, cfg.points_per_sequence)
        t, x = block[:, 0], block[:, 1]
        vs.append((x[1:] - x[:-1]) / (t[1:] - t[:-1]))
        xs.append(x[:-1])
    return TaskData(np.concatenate(xs).reshape(-1, 1), np.concatenate(vs), task_id)


def _chained_initials(alpha, cfg: VdpConfig, n_seq: int) -> list:
    recorded = _record(alpha, cfg.initial_state, cfg, n_seq * cfg.points_per_sequence)
    return [recorded[n * cfg.points_per_sequence, 1:3] for n in range(n_seq)]


def vdp_tasks_scalar(cfg: VdpConfig) -> MultiTaskDataset:
    """`datasets.vdp_tasks` one task and one sequence at a time."""
    alphas = cfg.alpha_grid()
    new_n = cfg.new_task_sequences if cfg.new_task_sequences is not None else cfg.sequences_per_task
    eval_inits = _rng(cfg.seed, _STREAM_VDP_EVAL_INIT).uniform(
        -2.5, 2.5, size=(cfg.eval_sequences_per_task, 2)
    )
    alphas_new = _rng(cfg.seed, _STREAM_VDP_INIT).uniform(0.1, 1.0, size=cfg.num_new_tasks)
    tasks, evals = [], []
    for tid, alpha in enumerate([*alphas, *alphas_new]):
        n_seq = cfg.sequences_per_task if tid < len(alphas) else new_n
        tasks.append(_vdp_task(alpha, _chained_initials(alpha, cfg, n_seq), cfg, tid))
        evals.append(_vdp_task(alpha, eval_inits, cfg, tid, burn_in=cfg.eval_burn_in))
    k = len(alphas)
    return MultiTaskDataset(tasks[:k], evals[:k], tasks[k:], evals[k:], alphas, alphas_new)
