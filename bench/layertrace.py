"""Per-layer timing by wrapping the library's public functions from outside.

Only the traced run imports this module.  ``Tracer.install`` replaces each
public function of a layer module with a timing wrapper in every
``sparsefeas`` module namespace that holds a reference to it, because
modules import each other's functions by name (``from .geometry import
affine_dim``).  ``exactsign._cached_log`` looks ``log_interval`` up as a
global on every call, so the wrapper sees exactly the cache misses.

A span opens when a call enters a layer from outside it; calls inside the
same layer pass through.  A layer's self time is its spans' duration minus
the time of spans of other layers nested in them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("sparsepoly", "intlattice", "geometry", "exactsign", "discriminant", "feasibility")
COUNTED = (
    "geometry.affine_dim",
    "intlattice.hermite_factor",
    "feasibility.feas_simplex",
    "sparsepoly.make_polynomial",
    "exactsign.log_interval",
)


class Tracer:
    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.fn_calls = Counter()
        self.max_bits = 0
        self._stack = []

    def install(self):
        import sparsefeas

        for info in pkgutil.iter_modules(sparsefeas.__path__):
            importlib.import_module(f"sparsefeas.{info.name}")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"sparsefeas.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(layer, f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "sparsefeas" or modname.startswith("sparsefeas."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, name, wrappers[obj])

    def _wrap(self, layer, qual, fn):
        stack = self._stack
        fn_calls = self.fn_calls
        is_log = qual == "exactsign.log_interval"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fn_calls[qual] += 1
            if is_log:
                bits = args[1] if len(args) > 1 else kwargs["bits"]
                if bits > self.max_bits:
                    self.max_bits = bits
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                self.self_ns[layer] += dt - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def totals(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "fn_calls": {k: self.fn_calls[k] for k in COUNTED},
            "max_bits": self.max_bits,
        }


def per_op_metrics(totals: dict, ops: int) -> dict:
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (totals["self_ns"][layer] / 1e6 / ops, "ms/op")
        m[f"{layer}.calls"] = (totals["calls"][layer] / ops, "calls/op")
    for qual in COUNTED:
        m[f"{qual}.calls"] = (totals["fn_calls"][qual] / ops, "calls/op")
    m["exactsign.log_interval.max_bits"] = (totals["max_bits"], "bits")
    return m
