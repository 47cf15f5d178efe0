"""Span recorder for the benchmark's traced run.

`Tracer.install` replaces selected public lossylqr functions with wrappers
in every loaded lossylqr module namespace that binds them, so calls made
inside the package (for example `ce_gain` -> `mare_solve`) are recorded
too.  Each call becomes a span (name, start, end, parent) kept in memory;
`summary` turns the spans of one pass into per-layer metrics named
`<module>.<function>.<quantity>`, and `write` saves them as JSON when the
run ends.  A span's self time is its duration minus the durations of its
direct children (calls are sequential, so children never overlap).
"""

import json
import sys
import time
from collections import defaultdict


def _iterations(args, kwargs, result):
    return result.iterations


def _cells(args, kwargs, result):
    return result.cells.size


def _trajectories(args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    return cfg.trajectories


# (module, function) -> (reported quantities, {quantity: extractor(args, kwargs, result)})
TRACED = {
    ("riccati", "mare_solve"): (("calls", "iterations", "self_s", "failed"), {"iterations": _iterations}),
    ("riccati", "dare_solve"): (("calls",), {}),
    ("numerics", "spectral_radius"): (("calls", "self_s"), {}),
    ("stability", "region_map"): (("self_s", "cells"), {"cells": _cells}),
    ("stability", "st_lower_bound"): (("calls", "self_s"), {}),
    ("stability", "zero_sample_safe_q"): (("self_s",), {}),
    ("stability", "exact_ms_stable"): (("calls", "self_s"), {}),
    ("learning", "certify_ce_controller"): (("calls", "self_s"), {}),
    ("performance", "gap"): (("calls", "self_s"), {}),
    ("performance", "second_moment_sum"): (("calls", "self_s"), {}),
    ("simulator", "monte_carlo_cost"): (("self_s", "trajectories"), {"trajectories": _trajectories}),
    ("simulator", "empirical_ms_decay"): (("self_s", "trajectories"), {"trajectories": _trajectories}),
    ("simulator", "sample_channel"): (("calls", "self_s"), {}),
}

QUANTITY_UNITS = {
    "calls": "count",
    "iterations": "count",
    "failed": "count",
    "cells": "count",
    "trajectories": "count",
    "self_s": "s",
}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    return [
        (f"{module}.{func}.{quantity}", QUANTITY_UNITS[quantity])
        for (module, func), (quantities, _) in TRACED.items()
        for quantity in quantities
    ]


class Tracer:
    def __init__(self):
        self._originals = []  # (namespace, attribute, original function)
        self.reset()

    def reset(self):
        """Drop every recorded span and count."""
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = defaultdict(int)
        self._stack = []

    def install(self, package_name: str = "lossylqr"):
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == package_name or name.startswith(package_name + ".")
        ]
        for (module, func), (_, extractors) in TRACED.items():
            original = getattr(sys.modules[f"{package_name}.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, extractors)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._originals.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def _wrap(self, key, fn, extractors):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.starts)
            self.names.append(key)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(index)
            self.counts[key + ".calls"] += 1
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[key + ".failed"] += 1
                raise
            finally:
                self.ends[index] = clock()
                self._stack.pop()
            for quantity, extract in extractors.items():
                self.counts[f"{key}.{quantity}"] += extract(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def self_times(self) -> dict:
        child = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child[i]
        return totals

    def summary(self) -> tuple[dict, dict]:
        """(counts, self times) of every per-layer metric since the last reset."""
        self_s = self.self_times()
        counts, times = {}, {}
        for name, _ in metric_names():
            key, quantity = name.rsplit(".", 1)
            if quantity == "self_s":
                times[name] = self_s.get(key, 0.0)
            else:
                counts[name] = int(self.counts.get(name, 0))
        return counts, times

    def write(self, path, meta: dict):
        origin = min(self.starts, default=0.0)
        spans = [
            [self.names[i], self.starts[i] - origin, self.ends[i] - origin, self.parents[i]]
            for i in range(len(self.starts))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "span_fields": ["name", "start_s", "end_s", "parent"], "spans": spans}))
