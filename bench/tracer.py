"""Span tracing of the ummimo layers from outside the package.

A `Tracer` wraps the public functions of each layer module and rebinds the
wrappers in every loaded ``ummimo`` namespace that holds the original, so
calls made inside the library (``estimate.nmse_sweep`` calling
``sample_rayleigh``) are recorded as well as calls from outside.  Leaving
the ``with`` block puts every original binding back.

Spans are kept in memory as (name, start_ns, end_ns, parent, failed) and
written out by the caller when the run ends.  Functions reached only through
containers (the ``cli._EXPERIMENTS`` table) are not rebound; their time
counts as self time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("numerics", "geometry", "fields", "channel", "beam", "dof",
          "estimate", "mux", "circuit", "cli")

# functions whose calls, busy time and latency percentiles are reported,
# with the tail percentile that keeps at least ten calls beyond it on the
# workload where each is hot (None: too few calls there for either tail)
HOT = {
    "estimate.ls_estimate": 99,
    "estimate.mmse_estimate": 99,
    "estimate.rsls_estimate": 90,
    "estimate.omp_estimate": 90,
    "estimate.mmse_pilot_design": None,
    "channel.sample_rayleigh": 99,
    "channel.correlation_matrix": None,
    "channel.los_channel": 99,
    "numerics.hemisphere_grid": None,
    "numerics.fresnel_cs": 99,
    "dof.dof_report": None,
    "geometry.build_upa": None,
    "circuit.impedance_set": None,
    "mux.lmmse_combiners": None,
    "beam.depth_gain": 99,
    "fields.aperture_gain_subdivided": None,
}


def public_functions(layer: str) -> dict:
    """Functions defined in ``ummimo.<layer>`` without a leading underscore,
    keyed by name; names imported from other modules are skipped.  (Not
    ``__all__``: ``mux.lmmse_combiners`` is public but missing from it.)
    """
    module = importlib.import_module(f"ummimo.{layer}")
    return {name: fn for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__}


def ummimo_namespaces() -> list:
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ummimo" or name.startswith("ummimo."))]


class Tracer:
    """Records one span per call of a public layer function.

    ``probes`` maps a span name to a function of the call's arguments that
    returns a dict of computed numbers; `probe_values` collects them.
    """

    def __init__(self, run_id: str, probes: dict | None = None):
        self.run_id = run_id
        self.spans: list = []
        self.probes = dict(probes or {})
        self.probe_values: dict[str, list[dict]] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = self.probes.get(name)
        values = self.probe_values.setdefault(name, []) if probe else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                values.append(probe(args, kwargs))
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, start, end, parent, failed)

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            for fname, fn in public_functions(layer).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        try:
            for module in ummimo_namespaces():
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, hit[1])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def records(self) -> list[dict]:
        """Spans as plain dicts, ready to be written out."""
        return [{"id": i, "name": s[0], "start_ns": s[1], "end_ns": s[2],
                 "parent": s[3], "failed": s[4], "run_id": self.run_id}
                for i, s in enumerate(self.spans) if s is not None]


def summarize(spans: list, hot: tuple) -> dict:
    """Per-layer and per-hot-function totals of one traced run.

    A layer's self time is the duration of its spans minus the time their
    child spans cover.  A hot function's busy time sums its spans, skipping
    those directly nested in a span of the same function (recursion), and
    its durations are returned so percentiles can be pooled across runs.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _failed in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    layers = {layer: {"calls": 0, "self_ns": 0, "failed": 0} for layer in LAYERS}
    functions = {name: {"calls": 0, "busy_ns": 0, "durations_ns": []} for name in hot}
    for i, (name, start, end, parent, failed) in enumerate(spans):
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += 1
        layer["self_ns"] += end - start - child_ns[i]
        layer["failed"] += int(failed)
        fn = functions.get(name)
        if fn is not None and not (parent >= 0 and spans[parent][0] == name):
            fn["calls"] += 1
            fn["busy_ns"] += end - start
            fn["durations_ns"].append(end - start)
    return {"layers": layers, "functions": functions}
