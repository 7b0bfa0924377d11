import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gppca
from gppca.epca import ConvergenceError, ValidityError
from gppca.evaluation import DataSectionError
from gppca.gaussian_geometry import DecompositionError

MODULES = sorted(
    f"gppca.{info.name}" for info in pkgutil.iter_modules(gppca.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("module", ["gppca", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_cli_import_leaves_optimizer_and_process_pool_unloaded():
    # Only a fit needs SciPy's optimizer, only a Cholesky solve or a triangular
    # inverse its LAPACK binding and only `evaluate --jobs N>1` a process pool;
    # every command should start without importing any of them. The second line
    # shows that the probe sees the binding once one exact prediction, from a
    # one-point model built without a fit, has imported it.
    src = Path(gppca.__file__).resolve().parents[1]
    probe = (
        "import sys, gppca.cli; "
        "from gppca import gp_pca; "
        "from gppca.epca import Subspace; "
        "from gppca.kernels_gp import GpPrior; "
        "loaded = lambda: sorted(m for m in ('scipy.optimize', 'scipy.linalg', "
        "'concurrent.futures.process') if m in sys.modules); "
        "print(loaded()); "
        "model = gp_pca.GpPcaModel(GpPrior(), [[0.0]], "
        "Subspace(u0=[0.0, -0.5], basis=[[0.1, 0.0]]), [[0.0]], 'exact'); "
        "gp_pca.predict_batch(model, 0, [[0.5]]); "
        "print(loaded())"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split("\n")[:2] == ["[]", "['scipy.linalg']"]


@pytest.mark.parametrize(
    "error",
    [
        ValidityError(4),
        ValidityError(2, data=True),
        ValidityError(None, weights=[0.5, -1.25]),
        ConvergenceError(2.4e-9, 1e-11, 50),
        DecompositionError("sigma", "trace -1.000e+00 is not positive"),
        DecompositionError("A_mm"),
        DataSectionError("invalid 'data' section: task 0: inputs and outputs must be finite"),
    ],
    ids=[
        "validity-reconstruction", "validity-data", "validity-weights",
        "convergence", "decomposition-detail", "decomposition",
        "data-section",
    ],
)
def test_exceptions_survive_pickling(error):
    # ProcessPoolExecutor hands a worker's error back to `evaluate --jobs N` pickled.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
