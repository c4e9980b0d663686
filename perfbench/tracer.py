"""Span tracing of the package's public functions, applied from outside.

``Tracer.install`` wraps every public module-level function of each layer
(and ``CompanionSystem.matrix``, the oracle's right-hand side) and rebinds
the wrapper in every ``stokes_unfold`` namespace that holds the original,
because the modules bind names with ``from .x import y``.  Private helpers
stay unwrapped: wrapping them too made a 5,000-row confluence table 1.9x
slower.  ``uninstall`` restores every binding.

A span is (name, start, end, parent, operation id).  Self time is a span's
duration minus the part of it that its children cover; children running on
another thread (the confluence worker pool) are merged as intervals so that
overlapping workers are not subtracted twice.  Aggregates are kept for every
span; the spans themselves are kept up to ``span_cap`` and written out at
the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
import time

LAYERS = ("gammas", "mat3", "series", "quad", "borel", "unperturbed", "perturbed",
          "confluence", "paths", "oracle", "checks", "cli")

_clock = time.perf_counter


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _Frame:
    __slots__ = ("index", "start", "child", "foreign")

    def __init__(self, index, start):
        self.index = index
        self.start = start
        self.child = 0.0
        self.foreign = None


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans = []          # (name, start, end, parent index or -1, op id, index)
        self.calls = {}          # name -> count
        self.self_s = {}         # name -> summed self time
        self.incl_by_op = {}     # (op id, name) -> inclusive time, for watched names
        self.watch = set()
        self.op_id = -1
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._restore = []

    # ------------------------------------------------------------ recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(next(tracer._counter), _clock())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                tracer._close(name, frame, end, stack)

        return traced

    def _close(self, name, frame, end, stack):
        dur = end - frame.start
        covered = frame.child
        if frame.foreign:
            covered += _union_length(frame.foreign)
        if stack:
            parent = stack[-1]
            parent.child += dur
        elif stack is not self._main_stack and self._main_stack:
            # a worker thread: attach to the span the main thread is waiting in
            parent = self._main_stack[-1]
            if parent.foreign is None:
                parent.foreign = []
            parent.foreign.append((frame.start, end))
        else:
            parent = None
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + max(0.0, dur - covered)
            if name in self.watch:
                key = (self.op_id, name)
                self.incl_by_op[key] = self.incl_by_op.get(key, 0.0) + dur
            if len(self.spans) < self.span_cap:
                self.spans.append((name, frame.start, end,
                                   parent.index if parent is not None else -1,
                                   self.op_id, frame.index))

    # ------------------------------------------------------------ installing

    def install(self):
        """Wrap the public functions of every layer; returns the tracer."""
        import stokes_unfold

        self._main_stack = self._stack()
        modules = {name: importlib.import_module(f"stokes_unfold.{name}") for name in LAYERS}
        namespaces = [stokes_unfold] + [importlib.import_module(f"stokes_unfold.{m}")
                                        for m in LAYERS]
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        companion = modules["oracle"].CompanionSystem
        self._restore.append((companion, "matrix", companion.matrix))
        companion.matrix = self._wrap("oracle.CompanionSystem.matrix", companion.matrix)
        checks = modules["checks"]
        self._restore.append((checks, "ALL_CHECKS", checks.ALL_CHECKS))
        checks.ALL_CHECKS = tuple((tag, originals[id(fn)][1]) for tag, fn in checks.ALL_CHECKS)
        self.check_tags = {f"checks.{fn.__name__}": tag for tag, fn in checks.ALL_CHECKS}
        self.watch = set(self.check_tags)
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # ------------------------------------------------------------ reporting

    def layer_totals(self):
        """{layer: (calls, self seconds)} over all recorded spans."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, count in self.calls.items():
            layer = name.split(".", 1)[0]
            out[layer][0] += count
            out[layer][1] += self.self_s[name]
        return out

    def write(self, path):
        """Write the kept spans (and the aggregates) as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op", "index"],
                "spans": self.spans,
                "spans_dropped": sum(self.calls.values()) - len(self.spans),
                "calls": self.calls,
                "self_s": self.self_s,
            }, fh)
