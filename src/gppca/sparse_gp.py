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
and therefore preserves every KL divergence between tasks. The rescaled
posterior (mu', Sigma') is a `MomentGaussian`.

`variational_coords` builds the natural coordinates of the rescaled
posterior directly from A (Theta' = -1/2 beta A exactly), so neither Sigma'
nor A is ever inverted or factored; it agrees with the generic conversion
chain and exists purely for numerical hygiene on ill-conditioned inducing
grids. Whether A is positive definite is checked where the point is used:
`epca` factors every point it fits or projects strictly, -(M + M^T) =
beta A for the stored block M, and raises `ValidityError` for one off the
cone.

`sparse_predictive_batch` predicts from the rescaled posterior with

    var(x+) = k(x+,x+) - k_m^T (K_mm^-1 - Sigma') k_m,   k_m = k(Z, x+)

where K_mm^-1 is the inducing set's `PriorFactor.kinv`: inverted once per
kernel and prior mean, on the first sparse prediction, so a call solves no
system and its variances are one matrix product.
"""

from __future__ import annotations

import numpy as np

from gppca.gaussian_geometry import MomentGaussian, NaturalCoord, _sym
from gppca.kernels_gp import (
    GpPrior,
    InducingSet,
    TaskData,
    _clamped_variance,
    as_points,
    distinct_rows,
    gram,
)

__all__ = [
    "InducingSet",
    "variational_coords",
    "sparse_predictive_batch",
    "grid_inducing",
]


def variational_coords(
    prior: GpPrior, task: TaskData, inducing: InducingSet
) -> tuple[NaturalCoord, np.ndarray]:
    """Natural coordinates of the rescaled posterior, as a `NaturalCoord` and as its flat point.

    Built directly from the system matrix: Theta' = -1/2 beta A and
    theta' = beta (K_mn (y - mu0) + A K_mm^-1 mu0(Z)) are exact products,
    written into one flat point, `pack_natural` of the coordinates bit for
    bit; the `NaturalCoord`'s arrays are views of it. K_mm and
    K_mm^-1 mu0(Z) come from the inducing set's factor. Nothing is factored
    here: the point is checked where it is used, by `epca`'s strict
    factorization of -(M + M^T) = beta A for its stored block M, which
    raises `ValidityError` (with `data=True`) for a point off the cone.
    """
    factor = inducing.factor(prior)
    d = len(inducing)
    k_mn = gram(prior.kernel, inducing.points, task.inputs)
    data_term = k_mn @ (task.outputs - prior.mean_at(task.inputs))
    a = _sym(factor.gram / prior.beta + k_mn @ k_mn.T)
    flat = np.empty(d + d * d)
    flat[:d] = prior.beta * (data_term + a @ factor.kinv_mean)
    big_theta = flat[d:].reshape(d, d)  # a view: the flat point's row-major block
    np.multiply(-0.5 * prior.beta, a, out=big_theta)  # equal to its transpose bit for bit, as `a` is
    return NaturalCoord._trusted(flat[:d], big_theta), flat


def sparse_predictive_batch(prior: GpPrior, sp: MomentGaussian, inducing: InducingSet, x_plus):
    """Predictive mean and variance at each test point, from the rescaled posterior sp = (mu', Sigma').

    mean(x+) = mu0(x+) + k_m^T (mu' - K_mm^-1 mu0(Z))
    var(x+)  = k(x+,x+) - k_m^T (K_mm^-1 - Sigma') k_m

    The mean is centered on the prior so that the no-data posterior
    reproduces the prior for any constant mean; for a zero mean this is
    literally k_m^T mu'. K_mm^-1 mu0(Z) and K_mm^-1 come from the inducing
    set's factor, which inverts K_mm once, on the first sparse prediction.
    A call therefore solves no system: the variances are the column sums of
    k_m * ((K_mm^-1 - Sigma') k_m), one m x m subtraction and one matrix
    product.
    """
    test = as_points(x_plus)
    if sp.dim != len(inducing):
        raise ValueError(f"posterior dim {sp.dim} does not match inducing size {len(inducing)}")
    factor = inducing.factor(prior)
    k_m = gram(prior.kernel, inducing.points, test)  # (m, t)
    means = prior.mean_at(test) + k_m.T @ (sp.mu - factor.kinv_mean)
    variances = 1.0 - np.einsum("at,at->t", k_m, (factor.kinv - sp.sigma) @ k_m)  # k(x,x) = 1 for RBF
    return means, _clamped_variance(variances)


def grid_inducing(inputs, m: int) -> InducingSet:
    """Evenly spaced inducing points spanning the observed input range.

    For 1-D inputs this is a uniform grid over [min, max]. For higher input
    dimension, an evenly strided subset of the distinct inputs (under
    `InducingSet`'s tolerance) sorted by first coordinate is used instead;
    asking for more points than there are distinct inputs returns them all.
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
    unique = distinct_rows(pts[np.lexsort(pts.T[::-1])])
    keep = np.unique(np.linspace(0, unique.shape[0] - 1, m).round().astype(int))
    return InducingSet(points=unique[keep])
