import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.constants

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


COLD_START = """
import json, sys
import ummimo, ummimo.cli
before = sorted(name for name in sys.modules if name.startswith("scipy"))
c, s = ummimo.fresnel_cs(1.0)
print(json.dumps({"before": before, "c": c, "s": s,
                  "special": "scipy.special" in sys.modules}))
"""


def test_import_loads_no_scipy_until_fresnel():
    # a fresh interpreter: `import ummimo, ummimo.cli` loads numpy only, and
    # the first fresnel_cs call brings in scipy.special
    src = str(Path(ummimo.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["before"] == []
    # mpmath at 30 digits: C(1) = 0.77989340037682282947..., S(1) = 0.43825914739035476607...
    assert abs(got["c"] - 0.7798934003768228) <= 1e-15
    assert abs(got["s"] - 0.4382591473903548) <= 1e-15
    assert got["special"]


@pytest.mark.parametrize("layer, name", [
    ("fields", "speed_of_light"), ("circuit", "speed_of_light"), ("dof", "speed_of_light"),
    ("circuit", "Boltzmann")])
def test_exact_si_constants_match_scipy(layer, name):
    module = importlib.import_module(f"ummimo.{layer}")
    assert getattr(module, name) == getattr(scipy.constants, name)


@pytest.mark.parametrize("layer", ["fields", "circuit"])
def test_epsilon_0_is_codata_2022(layer):
    # scipy >= 1.15 carries CODATA 2022; older releases carry CODATA 2018
    # (8.8541878128e-12), 6.8e-10 relative away
    eps = importlib.import_module(f"ummimo.{layer}").epsilon_0
    assert eps == 8.8541878188e-12
    assert abs(eps - scipy.constants.epsilon_0) <= 1e-9 * scipy.constants.epsilon_0


def _geometry():
    return ummimo.build_upa(2, 2, 0.005, 0.005, 0.01)


def _scenario():
    return ummimo.UplinkScenario(np.ones((4, 2), complex), np.ones(2), 1.0)


# each builds a new instance of one array-holding dataclass, equal in content
# to the last one it built
ARRAY_HOLDERS = {
    "PilotMatrix": lambda: ummimo.orthogonal_pilot(4, 4, 1.0, 0.1),
    "Dictionary": lambda: ummimo.build_ff_dictionary(_geometry(), 1),
    "ArrayGeometry": _geometry,
    "QuadratureGrid": lambda: ummimo.QuadratureGrid(np.zeros(3), np.zeros(3), np.ones(3)),
    "UplinkScenario": _scenario,
    "ImpedanceSet": lambda: ummimo.ImpedanceSet(np.eye(2), np.eye(2), np.zeros((2, 2)), 50.0),
    "DipoleSegment": lambda: ummimo.DipoleSegment(np.zeros(3), [0.0, 0.0, 1.0]),
    "FieldSample": lambda: ummimo.FieldSample(np.zeros(3, complex)),
    "DofReport": lambda: ummimo.dof_report(np.eye(4), 4.0),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(name):
    # a value __eq__ would compare arrays elementwise and raise, and a value
    # __hash__ would hash them and raise; identity does neither
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert a == a and (a != b) and not (a == b)
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
