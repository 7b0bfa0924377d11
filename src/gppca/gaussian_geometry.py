"""Moment and natural charts of finite-dimensional Gaussians.

A Gaussian N(mu, Sigma) on R^d is a point of an exponential family. The
package uses two of its parameterizations:

- moment:      (mu, Sigma), for prediction
- natural (e): theta = Sigma^-1 mu,  Theta = -1/2 Sigma^-1, the chart in
  which the subspace is fitted

Matrix blocks are stored dense d x d and re-symmetrized after every
construction so that flattened inner products agree with the matrix trace
pairing. Inverses appear only where the parameterization itself is an
inverse matrix (Theta, Sigma); everything else goes through a Cholesky
factorization with a bounded jitter-repair policy. `chol_pd` is the
package's one Cholesky factorization with that policy, and `chol_solve` the
package's one Cholesky solve: every system against a Cholesky factor is
solved through it. (The subspace fit in `epca` works on stacks of matrices
with NumPy's batched routines instead.) `chol_solve` imports SciPy's LAPACK
binding when it is first called, not with the module: `import scipy.linalg`
costs every process that imports the package about 0.2 s, and commands that
solve nothing, such as `gppca generate`, need none of it.

A reconstructed point, whose Theta may lie just past the cone of negative
definite matrices, is never repaired: `flat_natural_to_moment` factors
-2 Theta strictly, once per call, and raises `DecompositionError` where the
jitter repair of `natural_to_moment` would have factored a nearby matrix
and returned moments of an indefinite one. It works from that one factor C,
as GP regression does (Rasmussen & Williams 2006, Alg. 2.1): mu from one
`chol_solve`, which gives the mu of `natural_to_moment` on the point with
its block symmetrized bit for bit, and Sigma = R^T R from the triangular inverse R = C^-1
(LAPACK dtrtri, imported on first call like `chol_solve`'s dpotrs). That
costs about 4/3 d^3 flops (d^3/3 for the inverse, d^3 for the product)
against about 2 d^3 for solving against the identity, and is symmetric to
the bit with no averaging pass, so the result skips `MomentGaussian`'s
symmetry check. Sigma differs from the chain's by rounding only, at most of
order EPS * cond(-2 Theta) * ||Sigma||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecompositionError",
    "MomentGaussian",
    "NaturalCoord",
    "moment_to_natural",
    "natural_to_moment",
    "flat_natural_to_moment",
    "chol_pd",
    "chol_solve",
    "pack_coords",
    "dim_from_flat",
]

# Jitter repair: relative to trace(A)/d, escalating tenfold per retry.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


class DecompositionError(RuntimeError):
    """A required Cholesky factorization failed even after jitter repair."""

    def __init__(self, name: str, detail: str = ""):
        self.matrix_name = name
        self.detail = detail
        msg = f"matrix {name!r} is not positive definite"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    # Pickled as the constructor's arguments, so an error raised in a worker
    # process arrives intact.
    def __reduce__(self):
        return type(self), (self.matrix_name, self.detail)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def chol_pd(a: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PD matrix, with jitter repair.

    On failure, adds jitter eps * trace(a)/d starting at eps = 1e-10 and
    escalating tenfold up to 1e-6, then raises DecompositionError naming
    the offending matrix. The returned factor corresponds to the repaired
    matrix; the distortion is bounded by the jitter cap.
    """
    a = _sym(np.asarray(a, dtype=float))
    d = a.shape[0]
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    tr = float(np.trace(a))
    if not tr > 0.0:
        raise DecompositionError(name, f"trace {tr:.3e} is not positive")
    scale = tr / d
    eps = _JITTER_START
    eye = np.eye(d)
    while eps <= _JITTER_MAX * (1.0 + 1e-12):
        try:
            return np.linalg.cholesky(a + eps * scale * eye)
        except np.linalg.LinAlgError:
            eps *= 10.0
    raise DecompositionError(name, f"jitter escalation exhausted at {_JITTER_MAX:.0e}*trace/d")


def chol_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b for a lower Cholesky factor L, such as `chol_pd` returns.

    Calls LAPACK dpotrs directly: the routine `scipy.linalg.cho_solve`
    reaches, so the result is the same to the bit, without its wrapper's
    per-call overhead, which dominates at the package's small sizes. `b` is
    a vector or a matrix of right-hand sides; it is never overwritten.
    Like `cho_solve`, raises ValueError for a non-finite factor or
    right-hand side and for a nonzero `info` from dpotrs.
    """
    if not (np.isfinite(chol).all() and np.isfinite(b).all()):
        raise ValueError("chol_solve: the factor and right-hand side must be finite")
    from scipy.linalg.lapack import dpotrs  # deferred: see the module docstring

    x, info = dpotrs(chol, b, lower=1)
    if info != 0:
        raise ValueError(f"chol_solve: dpotrs rejected argument {-info}")
    return x


def _check_symmetry(a: np.ndarray, what: str) -> np.ndarray:
    """`a` averaged with its transpose, as a new array; ValueError beyond 1e-12 relative asymmetry.

    A matrix equal to its transpose bit for bit, as every matrix the package
    builds is, is copied without the scans: 0.5 (A + A^T) would be A itself
    (short of overflow). Any other matrix, one with a 0.0 facing a -0.0
    included, is scanned and averaged.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    bits = a.view(np.int64)
    if (bits == bits.T).all():
        return a.copy()
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > 1e-12 * max(scale, 1e-300):
        raise ValueError(f"{what} is not symmetric: max|A - A^T| = {asym:.3e}")
    return _sym(a)


@dataclass(frozen=True)
class MomentGaussian:
    """Gaussian in moment form: mean vector mu and covariance sigma."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        sigma = _check_symmetry(self.sigma, "sigma")
        if sigma.shape[0] != mu.shape[0]:
            raise ValueError(f"mu has dim {mu.shape[0]} but sigma is {sigma.shape}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def _trusted(cls, mu: np.ndarray, sigma: np.ndarray) -> "MomentGaussian":
        """The Gaussian of a float vector and a matrix equal to its transpose bit for bit, kept as given."""
        g = object.__new__(cls)
        object.__setattr__(g, "mu", mu)
        object.__setattr__(g, "sigma", sigma)
        return g

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class NaturalCoord:
    """Natural (e-) coordinates: theta = Sigma^-1 mu, big_theta = -1/2 Sigma^-1.

    big_theta must be negative definite; this is enforced by the operations
    that factorize it rather than at construction.
    """

    theta: np.ndarray
    big_theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        big_theta = _check_symmetry(self.big_theta, "big_theta")
        if big_theta.shape[0] != theta.shape[0]:
            raise ValueError(f"theta has dim {theta.shape[0]} but big_theta is {big_theta.shape}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "big_theta", big_theta)

    @classmethod
    def _trusted(cls, theta: np.ndarray, big_theta: np.ndarray) -> "NaturalCoord":
        """The coordinates of a float vector and a matrix equal to its transpose bit for bit, as given."""
        c = object.__new__(cls)
        object.__setattr__(c, "theta", theta)
        object.__setattr__(c, "big_theta", big_theta)
        return c

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


def moment_to_natural(g: MomentGaussian) -> NaturalCoord:
    """theta = Sigma^-1 mu, Theta = -1/2 Sigma^-1."""
    chol = chol_pd(g.sigma, "sigma")
    theta = chol_solve(chol, g.mu)
    # Theta is itself an inverse matrix, so the explicit inverse is structural.
    inv_sigma = chol_solve(chol, np.eye(g.dim))
    return NaturalCoord(theta=theta, big_theta=-0.5 * _sym(inv_sigma))


def natural_to_moment(c: NaturalCoord) -> MomentGaussian:
    """mu = -1/2 Theta^-1 theta, Sigma = -1/2 Theta^-1."""
    a = -2.0 * c.big_theta  # equals Sigma^-1, must be PD
    chol = chol_pd(a, "-2*big_theta")
    mu = chol_solve(chol, c.theta)
    sigma = chol_solve(chol, np.eye(c.dim))
    return MomentGaussian(mu=mu, sigma=_sym(sigma))


def flat_natural_to_moment(flat: np.ndarray, d: int) -> MomentGaussian:
    """Moments of a flat natural point: `natural_to_moment` of its symmetrized form, strictly.

    -2 Theta is symmetrized once, as -(M + M^T) for the stored block M (the
    chain's -2 * 1/2 (M + M^T) to the bit), and factored once, without
    jitter; a matrix that does not factor as it is raises
    DecompositionError. mu is one `chol_solve` against that factor C, the
    chain's mu bit for bit. Sigma = R^T R with R = C^-1 from LAPACK dtrtri;
    NumPy forms the product as a symmetric rank-k update, so Sigma equals
    its transpose bit for bit and goes into the result unchecked.
    """
    flat = np.asarray(flat, dtype=float).reshape(-1)
    if flat.shape[0] != d + d * d:
        raise ValueError(f"flat point of length {flat.shape[0]} does not match d={d}")
    theta, m = flat[:d], flat[d:].reshape(d, d)
    a = -(m + m.T)  # equals Sigma^-1, must be PD
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise DecompositionError("-2*big_theta", "strict factorization, no jitter") from None
    mu = chol_solve(chol, theta)
    from scipy.linalg.lapack import dtrtri  # deferred: see the module docstring

    # C^T is C's memory read in Fortran order, so dtrtri inverts it in place,
    # without a copy, into U = C^-T = R^T; the zeros below its diagonal stay.
    # A factor with a positive diagonal always inverts (info == 0).
    u, _ = dtrtri(chol.T, lower=0, overwrite_c=1)
    return MomentGaussian._trusted(mu, u @ u.T)


# ---------------------------------------------------------------------------
# Flattened coordinate helpers shared by the subspace machinery.


def pack_coords(vec: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Concatenate (vector, full row-major matrix) into one flat point."""
    return np.concatenate([np.asarray(vec, float).reshape(-1), np.asarray(mat, float).reshape(-1)])


def dim_from_flat(n: int) -> int:
    """Recover d from a flattened length D = d + d^2."""
    d = int(round((-1.0 + math.sqrt(1.0 + 4.0 * n)) / 2.0))
    if d + d * d != n:
        raise ValueError(f"flat length {n} is not of the form d + d^2")
    return d


def pack_natural(c: NaturalCoord) -> np.ndarray:
    return pack_coords(c.theta, c.big_theta)

