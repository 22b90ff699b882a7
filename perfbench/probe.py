"""Layer probe: wraps lorot's public layer functions from outside the package.

Every function in ``LAYER_FUNCS`` is replaced, in every loaded ``lorot``
module that binds it, by a wrapper. The wrapper always keeps the results the
benchmark certifies afterwards (solves, chain potentials, cylinder reports),
including those of calls made inside other layers, such as the solves inside
``run_line_counterexample``. With tracing on it also records a span per call:
name, start, end, parent span and instance id, kept in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

# span name -> (module that defines the function, attribute name)
LAYER_FUNCS = {
    "solver.solve": ("lorot.solver", "solve"),
    "dual.chain_potential": ("lorot.dual", "chain_potential"),
    "dual.c_transform": ("lorot.dual", "c_transform"),
    "dual.dkp_verify": ("lorot.dual", "dkp_verify"),
    "diagnostics.audit": ("lorot.diagnostics", "audit"),
    "transport.ray_decomposition": ("lorot.transport", "ray_decomposition"),
    "transport.monge_map": ("lorot.transport", "monge_map"),
    "transport.interpolate": ("lorot.transport", "interpolate"),
    "transport.restrict": ("lorot.transport", "restrict"),
    "experiments.run_line_counterexample": ("lorot.experiments", "run_line_counterexample"),
    "experiments.run_cylinder_example": ("lorot.experiments", "run_cylinder_example"),
    "experiments.subdifferential_field": ("lorot.experiments", "subdifferential_field"),
    "experiments.cylinder_potential": ("lorot.experiments", "cylinder_potential"),
    "cli.main": ("lorot.cli", "main"),
}

# results kept whether or not tracing is on: (arguments by name, result) per call
CAPTURED = ("solver.solve", "dual.chain_potential", "experiments.run_cylinder_example")


class Probe:
    """Span recorder and result capture for one benchmark process."""

    def __init__(self):
        self.tracing = False
        self.spans: list[dict] = []
        self.instance = None
        self.captured = {name: [] for name in CAPTURED}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every layer function wherever a lorot module binds it."""
        originals = {
            name: getattr(importlib.import_module(module_name), attr)
            for name, (module_name, attr) in LAYER_FUNCS.items()
        }
        for name, original in originals.items():
            wrapper = self._wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "lorot" and not mod_name.startswith("lorot."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name in self.captured:
                arguments = signature.bind(*args, **kwargs).arguments
                self.captured[name].append((arguments, out))
            return out

        return wrapper

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name):
        """Record a span around the block when tracing; a no-op otherwise."""
        if not self.tracing:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "instance": self.instance,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def take(self, name):
        """Return and clear the results captured for one layer function."""
        out = self.captured[name]
        self.captured[name] = []
        return out


def span_totals(spans):
    """Per span name: call count, inclusive seconds, self seconds, longest call.

    Self time is a span's duration minus the durations of its direct child
    spans, so a layer that calls another wrapped layer (``monge_map`` calling
    ``solve``, ``cli.main`` calling ``run_cylinder_example``) is charged only
    for its own work.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        t = totals.setdefault(s["name"], {"calls": 0, "incl": 0.0, "self": 0.0, "max": 0.0})
        t["calls"] += 1
        t["incl"] += dur
        t["self"] += dur - child_time.get(s["id"], 0.0)
        t["max"] = max(t["max"], dur)
    return totals
