"""Boundary tracer: spans around every call that crosses a module of the package.

`Tracer.install()` finds, in each module of the `tribadic` package, every
public function that the module imported from another module of the package,
and replaces that module-level name with a wrapper.  Calls inside one module
stay unwrapped, so a span marks exactly one crossing from a calling module
into the layer that defines the function.  Classes are never wrapped:
`interpolation` tests `isinstance(z, PAdicInt)` against its module-level name,
so replacing a class would change behaviour.  The cost of `PAdicInt`
arithmetic therefore stays in the self time of the layer that does the
arithmetic.

Spans (name, start, end, parent, request id) are kept in memory and written
out by `write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import defaultdict

PACKAGE = "tribadic"


def layer_of(module_name: str) -> str:
    """Layer name of a package module: `tribadic._factor` -> `factor`."""
    return module_name.rpartition(".")[2].lstrip("_")


class Tracer:
    """Records one span per traced call, plus counts taken from arguments and results."""

    def __init__(self, counters=None):
        # counters: {qualified name: fn(args, kwargs, result) -> {count name: increment}}
        self.counters = counters or {}
        self.spans = []  # [name, start, end, parent index, request id]
        self.counts = defaultdict(int)
        self.request = None
        self._stack = []

    def wrap(self, fn, name: str):
        """The traced version of fn, recorded under the qualified name `layer.function`."""
        counter = self.counters.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.request]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    counts[key] += inc
            return result

        return traced

    def install(self):
        """Wrap every cross-module import of a public function inside the package."""
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__, PACKAGE + "."):
            module = importlib.import_module(info.name)
            for attr, value in list(vars(module).items()):
                home = getattr(value, "__module__", None)
                if (
                    attr.startswith("_")
                    or isinstance(value, type)
                    or not callable(value)
                    or not isinstance(home, str)
                    or not home.startswith(PACKAGE + ".")
                    or home == module.__name__
                ):
                    continue
                setattr(module, attr, self.wrap(value, f"{layer_of(home)}.{value.__name__}"))
        return self

    def summary(self, wall_s: float) -> dict:
        """Per-function calls and inclusive seconds, per-layer self seconds, counts,
        and the share of wall_s that no top-level span covers."""
        out = defaultdict(float)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            layer = name.partition(".")[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur
            out[f"{layer}.self_s"] += dur
            if parent is None:
                top += dur
            else:
                out[f"{self.spans[parent][0].partition('.')[0]}.self_s"] -= dur
        for key, value in self.counts.items():
            out[key] += value
        out["trace.untraced_frac"] = max(0.0, 1.0 - top / wall_s) if wall_s > 0 else 0.0
        return dict(out)

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start and end (s), parent index, request id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": round(start - t0, 9),
                                     "end": round(end - t0, 9), "parent": parent,
                                     "request": request}) + "\n")
