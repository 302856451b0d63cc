"""Span tracer that rebinds fejerlab's public names from outside.

Each binding in `workloads.BINDINGS` is replaced by a wrapper that records a
span (layer, binding, start, end, parent, count) and calls the original.
Nothing in `src/` is edited; `uninstall` puts every original back.  Spans
stay in memory until the run writes them out.

A layer's total time counts only its outermost spans, so a layer nested in
itself is not counted twice.  Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

from workloads import BINDINGS

PACKAGE = "fejerlab"
MODULES = ("circle", "spaces", "operators", "maximal", "hardy", "approx", "csvio", "cli")

# per-call work counts, read from the arguments or the result of a call
COUNTERS = {
    "circle.kernel_eval": lambda args, out: getattr(args[1], "size", 1),
    "circle.step_lookup": lambda args, out: getattr(args[1], "size", 1),
    "circle.make_grid": lambda args, out: out.node_count,
    "operators.assemble": lambda args, out: int(out.entries is not None),
    "maximal.sweep": lambda args, out: out.grid.node_count * (out.grid.node_count - 1),
    "approx.irls": lambda args, out: out.iterations,
    "approx.witness": lambda args, out: len(out.orders),
}

LAYER, BINDING, START, END, PARENT, COUNT, NESTED = range(7)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # table bindings absent from the package
        self.overhead_s = 0.0  # time spent in the tracer's own bookkeeping

    # -- installation ----------------------------------------------------

    def install(self):
        for module_name, attr, layer, _ in BINDINGS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner, name = module, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name, None)
            original = owner.__dict__.get(name) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, f"{module_name}.{attr}"))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def unwrapped_bindings(self) -> list[str]:
        """Module-level names still bound to a wrapped original: calls through
        them would go untraced.  Call while installed."""
        originals = {
            id(orig) for owner, _, orig in self._saved if isinstance(owner, types.ModuleType)
        }
        found = []
        for module_name in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for name, value in vars(module).items():
                if id(value) in originals:
                    found.append(f"{module_name}.{name}")
        return found

    # -- recording ---------------------------------------------------------

    def _open(self, layer, binding) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # NESTED: an outer span of the same layer already covers this one
        self.spans.append([layer, binding, 0.0, 0.0, parent, 0, self._active[layer] > 0])
        self._stack.append(idx)
        self._active[layer] += 1
        return idx

    def _close(self, idx, start, end):
        self._stack.pop()
        span = self.spans[idx]
        self._active[span[LAYER]] -= 1
        span[START], span[END] = start, end

    def _wrap(self, fn, layer, binding):
        counter = COUNTERS.get(layer)

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            idx = self._open(layer, binding)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                self._close(idx, start, end)
                if counter is not None and out is not None:
                    self.spans[idx][COUNT] = counter(args, out)
                self.overhead_s += start - entered + time.perf_counter() - end

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def span(self, layer: str, binding: str):
        """Record one span around benchmark-side code."""
        idx = self._open(layer, binding)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())


# -- reading the spans back ------------------------------------------------


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def binding_calls(spans) -> dict[str, int]:
    return dict(Counter(s[BINDING] for s in spans))


def layer_summary(spans) -> dict[str, dict]:
    """Per layer: total seconds (outermost spans), self seconds, calls, count."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
    for s, own in zip(spans, selfs):
        row = out[s[LAYER]]
        if not s[NESTED]:
            row["s"] += s[END] - s[START]
        row["self_s"] += own
        row["calls"] += 1
        row["count"] += s[COUNT]
    return dict(out)


def durations(spans, layer: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[LAYER] == layer]


def descendants_of(spans, layer: str, ancestor_layer: str) -> int:
    """Number of `layer` spans that have an `ancestor_layer` span above them."""
    n = 0
    for s in spans:
        if s[LAYER] != layer:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][LAYER] != ancestor_layer:
            p = spans[p][PARENT]
        n += p >= 0
    return n
