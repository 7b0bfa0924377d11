"""Variational sparse GP posterior over inducing points, in rescaled coordinates.

For inducing inputs Z (size m) and task data (X_i, y_i), the optimal
variational posterior of f(Z) is Gaussian with

    A     = beta^-1 K_mm + K_mn K_mn^T          (K_mn = k(Z, X_i), m x n)
    mu    = mu0(Z) + K_mm A^-1 K_mn (y - mu0(X_i))
    Sigma = beta^-1 K_mm A^-1 K_mm

and is exact whenever the task inputs are contained in Z. To keep the
downstream subspace fit well-scaled, posteriors are carried in the rescaled
chart

    mu'    = K_mm^-1 mu = A^-1 K_mn (y - mu0) + K_mm^-1 mu0(Z)
    Sigma' = K_mm^-1 Sigma K_mm^-1 = beta^-1 A^-1

which corresponds to the invertible linear substitution f(Z) -> K_mm^-1 f(Z)
and therefore preserves every KL divergence between tasks.

`variational_coords` builds the natural/expectation coordinates of the
rescaled posterior directly from A (Theta' = -1/2 beta A exactly), avoiding a
second factorization of Sigma'; it agrees with the generic conversion chain
and exists purely for numerical hygiene on ill-conditioned inducing grids.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from gppca.gaussian_geometry import (
    ExpectationCoord,
    MomentGaussian,
    NaturalCoord,
    chol_pd,
    _sym,
)
from gppca.kernels_gp import GpPrior, KernelConfig, TaskData, as_points, coincident, gram

__all__ = [
    "InducingSet",
    "SparsePosterior",
    "variational_posterior",
    "variational_coords",
    "sparse_predictive_batch",
    "rho_prime_to_rho",
    "rho_to_rho_prime",
    "grid_inducing",
]


@dataclass(frozen=True)
class InducingSet:
    """Inducing inputs Z, pairwise distinct under a 1e-12 tolerance."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_points(self.points)
        if pts.shape[0] < 1:
            raise ValueError("inducing set must contain at least one point")
        pairs = np.argwhere(np.triu(coincident(pts, pts), 1))
        if pairs.size:
            i, j = pairs[0]
            raise ValueError(f"inducing points {i} and {j} coincide")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SparsePosterior:
    """Rescaled posterior (mu', Sigma') of f(Z); Sigma' symmetric PD."""

    mu_prime: np.ndarray
    sigma_prime: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu_prime, dtype=float).reshape(-1)
        sigma = _sym(np.asarray(self.sigma_prime, dtype=float))
        if sigma.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError(f"mu' has dim {mu.shape[0]} but Sigma' is {sigma.shape}")
        object.__setattr__(self, "mu_prime", mu)
        object.__setattr__(self, "sigma_prime", sigma)

    @property
    def dim(self) -> int:
        return self.mu_prime.shape[0]


def _sparse_system(prior: GpPrior, task: TaskData, inducing: InducingSet):
    """Shared pieces (K_mm factor, A factor, data term) of the sparse posterior."""
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
    return k_mm, chol_mm, _sym(a), chol_a, data_term


def variational_posterior(prior: GpPrior, task: TaskData, inducing: InducingSet) -> SparsePosterior:
    """Optimal variational posterior in the rescaled chart.

    mu' = A^-1 K_mn (y - mu0(X_i)) + K_mm^-1 mu0(Z), Sigma' = beta^-1 A^-1.
    The prior-mean term vanishes for the default zero mean.
    """
    _, chol_mm, _, chol_a, data_term = _sparse_system(prior, task, inducing)
    mu0_z = prior.mean_at(inducing.points)
    mu_prime = cho_solve((chol_a, True), data_term) + cho_solve((chol_mm, True), mu0_z)
    sigma_prime = cho_solve((chol_a, True), np.eye(len(inducing))) / prior.beta
    return SparsePosterior(mu_prime=mu_prime, sigma_prime=_sym(sigma_prime))


def variational_coords(
    prior: GpPrior, task: TaskData, inducing: InducingSet
) -> tuple[NaturalCoord, ExpectationCoord]:
    """Natural and expectation coordinates of the rescaled posterior.

    Built directly from the system matrix: Theta' = -1/2 beta A and
    theta' = beta (K_mn (y - mu0) + A K_mm^-1 mu0(Z)) are exact products, so
    only one factorization (for the expectation side) is ever inverted.
    """
    _, chol_mm, a, chol_a, data_term = _sparse_system(prior, task, inducing)
    mu0_z = prior.mean_at(inducing.points)
    prior_part = cho_solve((chol_mm, True), mu0_z)
    theta = prior.beta * (data_term + a @ prior_part)
    big_theta = -0.5 * prior.beta * a
    nat = NaturalCoord(theta=theta, big_theta=big_theta)
    mu_prime = cho_solve((chol_a, True), data_term) + prior_part
    sigma_prime = _sym(cho_solve((chol_a, True), np.eye(len(inducing))) / prior.beta)
    exp = ExpectationCoord(eta=mu_prime, big_h=_sym(np.outer(mu_prime, mu_prime) + sigma_prime))
    return nat, exp


def sparse_predictive_batch(prior: GpPrior, sp: SparsePosterior, inducing: InducingSet, x_plus):
    """Predictive mean and variance at each test point.

    mean(x+) = mu0(x+) + k_m^T (mu' - K_mm^-1 mu0(Z))
    var(x+)  = k(x+,x+) - k_m^T K_mm^-1 k_m + k_m^T Sigma' k_m

    The mean is centered on the prior so that the no-data posterior
    reproduces the prior for any constant mean; for a zero mean this is
    literally k_m^T mu'.
    """
    z = inducing.points
    test = as_points(x_plus)
    if sp.dim != len(inducing):
        raise ValueError(f"posterior dim {sp.dim} does not match inducing size {len(inducing)}")
    k_mm = gram(prior.kernel, z, z)
    chol_mm = chol_pd(k_mm, "K_mm")
    k_m = gram(prior.kernel, z, test)  # (m, t)
    centered = sp.mu_prime - cho_solve((chol_mm, True), prior.mean_at(z))
    means = prior.mean_at(test) + k_m.T @ centered
    w = cho_solve((chol_mm, True), k_m)
    variances = 1.0 - np.einsum("mt,mt->t", k_m, w) + np.einsum(
        "mt,mn,nt->t", k_m, sp.sigma_prime, k_m
    )
    low = float(np.min(variances)) if variances.size else 0.0
    if low < -1e-10:
        warnings.warn(
            f"sparse predictive variance clamped from {low:.3e} to 0", RuntimeWarning, stacklevel=2
        )
    return means, np.maximum(variances, 0.0)


def rho_prime_to_rho(sp: SparsePosterior, inducing: InducingSet, cfg: KernelConfig) -> MomentGaussian:
    """Undo the rescaling: mu = K_mm mu', Sigma = K_mm Sigma' K_mm."""
    k_mm = gram(cfg, inducing.points, inducing.points)
    return MomentGaussian(mu=k_mm @ sp.mu_prime, sigma=_sym(k_mm @ sp.sigma_prime @ k_mm))


def rho_to_rho_prime(g: MomentGaussian, inducing: InducingSet, cfg: KernelConfig) -> SparsePosterior:
    """Apply the rescaling: mu' = K_mm^-1 mu, Sigma' = K_mm^-1 Sigma K_mm^-1."""
    k_mm = gram(cfg, inducing.points, inducing.points)
    chol = chol_pd(k_mm, "K_mm")
    mu_prime = cho_solve((chol, True), g.mu)
    half = cho_solve((chol, True), g.sigma)
    sigma_prime = cho_solve((chol, True), half.T)
    return SparsePosterior(mu_prime=mu_prime, sigma_prime=_sym(sigma_prime))


def grid_inducing(inputs, m: int) -> InducingSet:
    """Evenly spaced inducing points spanning the observed input range.

    For 1-D inputs this is a uniform grid over [min, max]. For higher input
    dimension, an evenly strided subset of the inputs sorted by first
    coordinate is used instead.
    """
    pts = as_points(inputs)
    if m < 1:
        raise ValueError("need at least one inducing point")
    if pts.shape[1] == 1:
        lo = float(np.min(pts))
        hi = float(np.max(pts))
        if hi <= lo:
            hi = lo + 1.0
        return InducingSet(points=np.linspace(lo, hi, m).reshape(-1, 1))
    order = np.lexsort(pts.T[::-1])
    unique = pts[order]
    keep = np.unique(np.linspace(0, unique.shape[0] - 1, m).round().astype(int))
    return InducingSet(points=unique[keep])
