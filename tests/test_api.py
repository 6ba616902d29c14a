import importlib
import inspect

import pytest

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
