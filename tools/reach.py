"""Which public names of the library no experiment reaches.

    python3 tools/reach.py

Runs every `umm` experiment at its default config (seed 0, outputs in a
temporary directory) under a `sys.setprofile` call hook, and prints, for
each layer module, the names of its `__all__` that none of the runs called.
A function is reached when its code ran; a class when any function defined
in its body ran (a dataclass's generated `__init__` included).  Names the
experiments reach only through a test or the benchmark count as unreached:
this is the traffic a least-code change has to keep.  Stdlib and the
package only.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import tempfile
from pathlib import Path

LAYERS = ("numerics", "geometry", "fields", "channel", "beam", "dof",
          "estimate", "mux", "circuit")


def _codes(obj) -> set:
    """The code objects whose running counts as a call of obj."""
    if inspect.isclass(obj):
        members = [getattr(m, "__func__", m) for m in vars(obj).values()]
        members += [m.fget for m in vars(obj).values() if isinstance(m, property)]
        members += [getattr(m, "func", None) for m in vars(obj).values()]
        return {m.__code__ for m in members if inspect.isfunction(m)}
    obj = inspect.unwrap(obj)
    return {obj.__code__} if inspect.isfunction(obj) else set()


def unreached() -> dict[str, list[str]]:
    """Per layer, the `__all__` names that no experiment at its defaults calls."""
    from ummimo import cli

    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    runs = {fn: name for name, (fn, _desc, _schema) in cli._EXPERIMENTS.items()}
    with tempfile.TemporaryDirectory() as out:
        sys.setprofile(hook)
        try:
            for name in runs.values():  # one run per experiment, aliases skipped
                cli.run(name, seed=0, out=out)
        finally:
            sys.setprofile(None)
    result = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ummimo.{layer}")
        result[layer] = [name for name in module.__all__
                         if not _codes(getattr(module, name)) & called]
    return result


def main() -> int:
    for layer, names in unreached().items():
        print(f"{layer}: {', '.join(names) if names else '(all reached)'}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # the checkout's package
    sys.exit(main())
