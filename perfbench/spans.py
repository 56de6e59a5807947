"""In-process span recorder for the traced benchmark run.

While installed, every public function of each parafrob layer (module)
and the evaluation methods of `Poly` and `QuasiPolynomial` are replaced,
wherever the package binds them, by wrappers that record one span per
call: name, layer, start, end and parent span. Spans stay in memory until
`write` dumps them at the end of the run.
"""

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

PACKAGE = "parafrob"
LAYERS = ("cli", "formats", "qpoly", "frobenius", "pilp", "eqpfit", "reduction")
EVALS = (("Poly", "__call__"), ("QuasiPolynomial", "eval"))
EVAL_NAMES = {f"{cls}.{meth}" for cls, meth in EVALS}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self._stack = []

    def span(self, layer, name, fn):
        """fn wrapped so that each call records a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Trace every layer's public functions until the block exits."""
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                  for layer in LAYERS}
        wrapper = {}  # id of an original -> its wrapper, which keeps it alive
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapper[id(obj)] = self.span(layer, attr, obj)
        patches = []
        # `from .x import f` binds f in other modules too: patch every binding.
        package = [module for name, module in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in package:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapper:
                    patches.append((module, attr, obj))
                    setattr(module, attr, wrapper[id(obj)])
        for cls_name, method in EVALS:
            cls = getattr(layers["qpoly"], cls_name)
            original = cls.__dict__[method]
            patches.append((cls, method, original))
            setattr(cls, method, self.span("qpoly", f"{cls_name}.{method}", original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def layer_stats(self):
        """{layer: {"self_s", "calls", "evals"}}.

        A span's self time is its duration minus its child spans; summed over
        a layer's spans this is the layer's time minus the time of the other
        layers it called. `calls` counts entries into the layer (spans whose
        parent is in another layer or absent).
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        stats = {layer: {"self_s": 0.0, "calls": 0, "evals": 0} for layer in LAYERS}
        for i, (name, layer, start, end, parent) in enumerate(spans):
            entry = stats[layer]
            entry["self_s"] += end - start - children[i]
            if parent < 0 or spans[parent][1] != layer:
                entry["calls"] += 1
            if name in EVAL_NAMES:
                entry["evals"] += 1
        return stats


def write(path, tracers):
    """One JSON line per span, numbered by the traced pass it belongs to."""
    with open(path, "w") as out:
        for number, tracer in enumerate(tracers):
            for name, layer, start, end, parent in tracer.spans:
                out.write(json.dumps({"pass": number, "name": name, "layer": layer,
                                      "start": start, "end": end,
                                      "parent": parent}) + "\n")
