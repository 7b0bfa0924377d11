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

The Van der Pol reference integrates one state at a time with scalar RK4
and builds every sequence by its own integration, the way the generator
was first written; the batched generator must match it bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from gppca import epca
from gppca.datasets import _STREAM_VDP_EVAL_INIT, _STREAM_VDP_INIT, MultiTaskDataset, VdpConfig, _rng
from gppca.epca import FitOptions
from gppca.gaussian_geometry import (
    MomentGaussian,
    kl_divergence,
    moment_to_natural,
    pack_natural,
    _sym,
)
from gppca.kernels_gp import GpPrior, TaskData, as_points, exact_posterior, gram, union_inputs

__all__ = [
    "well_conditioned_spd",
    "check_woodbury",
    "check_woodbury_derived",
    "check_sigma_ratio",
    "check_theta_transport",
    "joint_moments_bruteforce",
    "kl_decomposition_check",
    "fit_joint_direct",
    "union_inputs_rowwise",
    "integrate_vdp_scalar",
    "vdp_tasks_scalar",
]


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
