"""Span tracer for the traced benchmark run.

``instrument`` wraps, from outside, every public function of each quasilab
module plus ``QuasiState`` construction, and rebinds each wrapper wherever
the package binds the original name (``acceptance`` does
``from .operators import kron``), so calls between modules are seen. It
also counts calls to ``numpy.linalg.eigh``, ``numpy.linalg.eigvalsh`` and
``numpy.kron`` made from inside the program. Nothing under ``src/`` is
changed; ``restore`` undoes every rebinding.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("operators", "bloch", "nonlocal_box", "discrimination", "highdim", "reporting", "acceptance", "cli")

# (metric prefix, owner object, attribute) of each numpy entry point counted.
NUMPY_COUNTED = (
    ("numpy.eigh", np.linalg, "eigh"),
    ("numpy.eigvalsh", np.linalg, "eigvalsh"),
    ("numpy.kron", np, "kron"),
)

# Spans whose durations are also kept per call, keyed by a property of the
# first argument.
KEYED = {"highdim.detection_probability": lambda vs, *_, **__: vs.dim}


class Tracer:
    """Records spans (id, parent, name, start_ns, end_ns) and, per span
    name, call counts and self time: the span's duration minus the part of
    it covered by its child spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.keyed_ns: defaultdict = defaultdict(list)
        self.spans: list | None = None
        self._stack: list[list[int]] = []
        self._next_id = 0

    def reset(self, keep_spans: bool = False) -> None:
        """Start a fresh round of counts; keep span records if asked."""
        self.calls = Counter()
        self.self_ns = Counter()
        self.spans = [] if keep_spans else None

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        key = KEYED.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if key is not None:
                    self.keyed_ns[(name, key(*args, **kwargs))].append(duration)
                if self.spans is not None:
                    self.spans.append((span_id, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        """Count calls made while some program span is open."""
        stack = self._stack

        def counted(*args, **kwargs):
            if stack:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write_spans(self, path) -> int:
        """Write the kept spans as gzipped CSV; returns how many."""
        spans = self.spans or []
        with gzip.open(path, "wt") as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for span in sorted(spans):
                out.write("%d,%d,%s,%d,%d\n" % span)
        return len(spans)


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"quasilab.{layer}")
        for name, fn in public_functions(module).items():
            wrappers[fn] = tracer.wrap(f"{layer}.{name}", fn)

    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module_name, module in list(sys.modules.items()):
        if module_name != "quasilab" and not module_name.startswith("quasilab."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                rebind(module, attr, wrappers[obj])

    quasi_state = sys.modules["quasilab.operators"].QuasiState
    rebind(quasi_state, "__post_init__", tracer.wrap("operators.QuasiState", quasi_state.__post_init__))
    for name, owner, attr in NUMPY_COUNTED:
        rebind(owner, attr, tracer.count(name, getattr(owner, attr)))

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore
