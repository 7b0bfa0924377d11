import importlib
import pkgutil

import pytest

import gppca

MODULES = sorted(
    f"gppca.{info.name}" for info in pkgutil.iter_modules(gppca.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("module", ["gppca", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
