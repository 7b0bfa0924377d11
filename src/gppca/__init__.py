"""Principal component analysis over Gaussian process posteriors.

Fits a low-dimensional flat subspace through the natural-parameter
coordinates of GP posteriors that share a common prior, and uses it for
multi-task prediction and few-shot adaptation to new tasks. Supports an
exact O(N^3) route over the union of task inputs and a sparse variational
route over inducing points.
"""

from gppca.gaussian_geometry import DecompositionError, MomentGaussian, NaturalCoord
from gppca.kernels_gp import GpPrior, InducingSet, KernelConfig, TaskData
from gppca.epca import FitOptions, Subspace
from gppca.gp_pca import GpPcaModel, train, predict_batch, adapt_new_task

__version__ = "0.1.0"

__all__ = [
    "DecompositionError",
    "MomentGaussian",
    "NaturalCoord",
    "GpPrior",
    "KernelConfig",
    "TaskData",
    "InducingSet",
    "FitOptions",
    "Subspace",
    "GpPcaModel",
    "train",
    "predict_batch",
    "adapt_new_task",
    "__version__",
]
