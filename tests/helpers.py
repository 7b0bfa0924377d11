"""Shared strategies and builders for the test suite."""

import numpy as np
from hypothesis import strategies as st

from gppca import epca
from gppca import gaussian_geometry as gg
from gppca.gaussian_geometry import MomentGaussian


EPS = np.finfo(float).eps


def inverse_floor(a: np.ndarray) -> np.ndarray:
    """Entrywise bound on |Sigma - Sigma'| for two float64 inverses of the SPD matrix `a`
    computed from its lower Cholesky factor C, by triangular solves against I or as
    R^T R from a triangular inverse R = C^-1.

    To first order, each route is within d EPS (G + G^T + |R|^T |R|) of
    (C C^T)^-1, with G = |R|^T |R| |C| |R|: a triangular solve or inverse is
    off by at most d EPS |R| |C| |R| (Higham 2002, chs. 8 and 14), and the
    second solve or the product R^T R adds the transposed term or at most
    d EPS |R|^T |R|. This is the componentwise form of EPS * cond(a) *
    ||Sigma||, which is far looser for the ill-conditioned reconstructions of
    a fitted model.
    """
    c = np.linalg.cholesky(a)
    r = np.abs(np.linalg.inv(c))
    g = r.T @ r @ np.abs(c) @ r
    return 2 * len(a) * EPS * (g + g.T + r.T @ r)


def solve_backward_error(chol: np.ndarray) -> np.ndarray:
    """gamma_{3d+1} |L| |L^T| for the lower Cholesky factor L = `chol` of K = L L^T.

    A solution x of K x = b computed by two triangular solves against L is the
    exact solution of (K + dK) x = b for some |dK| within this bound (Higham
    2002, Thm 10.4; gamma_n = n u / (1 - n u), with u = EPS / 2 the unit roundoff).
    """
    nu = (3 * len(chol) + 1) * EPS / 2
    a = np.abs(chol)
    return nu / (1.0 - nu) * (a @ a.T)


def solve_mean_floor(chol: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Bound per column of `k` on |k^T a - w^T r| in float64, for a = K^-1 r and
    w = K^-1 k, each taken by Cholesky solves against the lower factor L = `chol`
    of K = L L^T.

    By `solve_backward_error`, to first order k^T a and w^T r each lie within
    gamma_{3d+1} |w|^T |L| |L^T| |a| of k^T K^-1 r. The two dot products add at
    most d EPS |k|^T |a| and d EPS |w|^T |r|:

        2 gamma_{3d+1} |w|^T |L| |L^T| |a| + d EPS (|k|^T |a| + |w|^T |r|)
    """
    w = np.abs(gg.chol_solve(chol, k))
    a = np.abs(gg.chol_solve(chol, r))
    moved = 2 * w.T @ (solve_backward_error(chol) @ a)
    return moved + len(chol) * EPS * (np.abs(k).T @ a + w.T @ np.abs(r))


def transposed_inverse(a: np.ndarray) -> np.ndarray:
    """R R^T for R = C^-1, C the lower Cholesky factor of `a`: Sigma = (C C^T)^-1 = R^T R
    with its factors swapped, a wrong Sigma that the tests' rounding floors must reject."""
    r = np.linalg.inv(np.linalg.cholesky(a))
    return r @ r.T


def spd_matrix(rng: np.random.Generator, d: int, cond_max: float = 100.0) -> np.ndarray:
    """Random symmetric PD matrix with bounded condition number."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    half = np.sqrt(cond_max)
    eigs = np.exp(rng.uniform(np.log(1.0 / half), np.log(half), size=d))
    return 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)


def random_gaussian(rng: np.random.Generator, d: int, cond_max: float = 100.0) -> MomentGaussian:
    return MomentGaussian(mu=rng.normal(size=d), sigma=spd_matrix(rng, d, cond_max))


@st.composite
def gaussians(draw, min_dim=1, max_dim=8, cond_max=100.0):
    """Hypothesis strategy for a well-conditioned MomentGaussian."""
    d = draw(st.integers(min_dim, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_gaussian(rng, d, cond_max)


@st.composite
def gaussian_pairs(draw, min_dim=1, max_dim=6, cond_max=50.0):
    d = draw(st.integers(min_dim, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_gaussian(rng, d, cond_max), random_gaussian(rng, d, cond_max)


def planted_subspace(rng: np.random.Generator, d: int, latent_dim: int, n_points: int,
                     direction_scale: float = 0.05):
    """Points exactly on a valid flat subspace in natural coordinates.

    Returns (points, u0, basis, weights). The offset is a random Gaussian
    near the standard normal; directions are small enough that every
    |w| <= 1 reconstruction stays in the cone.
    """
    base = MomentGaussian(mu=0.3 * rng.normal(size=d), sigma=np.eye(d))
    u0 = gg.pack_natural(gg.moment_to_natural(base))
    rows = []
    for _ in range(latent_dim):
        vec = direction_scale * rng.normal(size=d)
        mat = rng.normal(size=(d, d))
        mat = direction_scale * 0.5 * (mat + mat.T)
        rows.append(gg.pack_coords(vec, mat))
    basis = np.asarray(rows).reshape(latent_dim, d + d * d)
    weights = rng.uniform(-1.0, 1.0, size=(n_points, latent_dim))
    points = u0 + weights @ basis if latent_dim else np.tile(u0, (n_points, 1))
    # confirm validity of every planted point
    for p in points:
        nat = gg.unpack_natural(p, d)
        np.linalg.cholesky(-2.0 * nat.big_theta)
    return points, u0, basis, weights


def _evaluate(batch: epca._PointBatch, weights, subspace: epca.Subspace):
    """(weights as (I, L), total KL, duals); a reconstruction off the cone raises ValidityError."""
    weights = np.asarray(weights, dtype=float).reshape(batch.count, subspace.latent_dim)
    try:
        total, duals = batch.evaluate(weights, subspace.u0, subspace.basis)
    except epca._InvalidBatch as exc:
        raise epca.ValidityError(exc.index) from None
    return weights, total, duals


def kl_objective(weights, subspace: epca.Subspace, points) -> float:
    """The e-PCA loss: summed KL between the data points and their reconstructions."""
    return _evaluate(epca._PointBatch(points), weights, subspace)[1]


def kl_gradients(weights, subspace: epca.Subspace, points) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of `kl_objective`: (dW of shape (I, L), dU of shape (L+1, D)).

    Row 0 of dU is the offset gradient, the plain column sum of the dual
    residuals; rows 1..L correspond to the basis vectors.
    """
    batch = epca._PointBatch(points)
    weights, _, duals = _evaluate(batch, weights, subspace)
    return batch.gradient(weights, subspace.basis, duals)
