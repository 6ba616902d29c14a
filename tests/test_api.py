import importlib
import inspect

import pytest

import ummimo

LAYERS = ["numerics", "geometry", "fields", "channel", "beam", "dof",
          "estimate", "mux", "circuit"]


@pytest.mark.parametrize("layer", LAYERS)
def test_all_lists_public_definitions(layer):
    # __all__ names exactly the public functions and classes the module
    # defines itself; imported names are not its API
    module = importlib.import_module(f"ummimo.{layer}")
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == defined


@pytest.mark.parametrize("layer", LAYERS)
def test_package_exports_layer_api(layer):
    # every public name of a layer is importable from the package itself
    module = importlib.import_module(f"ummimo.{layer}")
    missing = [name for name in module.__all__ if not hasattr(ummimo, name)]
    assert missing == []
