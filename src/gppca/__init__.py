"""Principal component analysis over Gaussian process posteriors.

Fits a low-dimensional flat subspace through the natural-parameter
coordinates of GP posteriors that share a common prior, and uses it for
multi-task prediction and few-shot adaptation to new tasks. Supports an
exact O(N^3) route over the union of task inputs and a sparse variational
route over inducing points.
"""

from gppca.gaussian_geometry import (
    DecompositionError,
    ExpectationCoord,
    MomentGaussian,
    NaturalCoord,
    kl_divergence,
)
from gppca.kernels_gp import GpPrior, InducingSet, KernelConfig, TaskData
from gppca.sparse_gp import SparsePosterior
from gppca.epca import FitOptions, Subspace
from gppca.gp_pca import GpPcaModel, TaskPrediction, train, predict, adapt_new_task

__version__ = "0.1.0"

__all__ = [
    "DecompositionError",
    "ExpectationCoord",
    "MomentGaussian",
    "NaturalCoord",
    "kl_divergence",
    "GpPrior",
    "KernelConfig",
    "TaskData",
    "InducingSet",
    "SparsePosterior",
    "FitOptions",
    "Subspace",
    "GpPcaModel",
    "TaskPrediction",
    "train",
    "predict",
    "adapt_new_task",
    "__version__",
]
