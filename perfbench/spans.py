"""Span recorder for the traced benchmark run.

Nothing in ``src/`` is instrumented.  :func:`install` replaces the
module-level bindings of the pipeline's entry points with thin wrappers
that record one span per call: name, start, end, parent span and the
kernel the benchmark was working on.  Spans stay in memory until the
run ends; :meth:`SpanRecorder.dump` then writes them out.

A layer's *self time* is its spans' time minus the time of their child
spans, so the self times of all layers add up to the time covered by
top-level spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, span name): every binding the traced run
#: wraps.  ``analyze_kernel`` is wrapped where callers look it up:
#: the kernel-analysis module, the ``repro.analysis`` package and the
#: evaluation harness that ``make_analyzer`` runs from.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.base", "compile_opencl", "frontend.compile"),
    ("repro.lint.summary", "summarize_kernel", "lint.summary"),
    ("repro.interp.synth", "TraceSynthesizer.run", "interp.synth"),
    ("repro.interp.vexec", "VectorizedExecutor.run", "interp.vexec"),
    ("repro.interp.executor", "KernelExecutor.run", "interp.scalar"),
    ("repro.analysis.kernel_info", "analyze_kernel", "analysis.kernel"),
    ("repro.analysis", "analyze_kernel", "analysis.kernel"),
    ("repro.evaluation.harness", "analyze_kernel", "analysis.kernel"),
    ("repro.analysis.kernel_info", "analyze_traces", "analysis.memtrace"),
    ("repro.analysis.kernel_info", "build_function_dfg", "analysis.dfg"),
    ("repro.analysis.kernel_info", "pack_traces", "analysis.pack"),
    ("repro.model.flexcl", "FlexCL.predict", "model.predict"),
    ("repro.model.flexcl", "pe_model", "model.pe"),
    ("repro.model.flexcl", "memory_model", "model.memory"),
    ("repro.dse.explorer", "explore", "dse.explore"),
    ("repro.dse", "explore", "dse.explore"),
    ("repro.cache.store", "ArtifactCache.get", "cache.get"),
    ("repro.cache.store", "ArtifactCache.put", "cache.put"),
)

#: one span as :meth:`SpanRecorder.records` returns it:
#: (name, start, end, parent index or -1, kernel)
Span = Tuple[str, float, float, int, Optional[str]]


class SpanRecorder:
    """Collects spans in memory; safe to call from several threads.

    Spans live in flat arrays rather than one object each, so recording
    hundreds of thousands of them adds nothing for the garbage collector
    to traverse while the program runs.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names: Dict[str, int] = {}
        self._kernels: Dict[Optional[str], int] = {None: 0}
        self._kernel = 0
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._kernel_of = array("l")

    @staticmethod
    def _id(table: dict, value) -> int:
        return table.setdefault(value, len(table))

    def set_kernel(self, kernel: Optional[str]) -> None:
        """Stamp *kernel* on the spans recorded from now on."""
        self._kernel = self._id(self._kernels, kernel)

    def call(self, name: str, fn: Callable, args, kwargs,
             kernel: Optional[str] = None):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*,
        stamped with *kernel* when given."""
        kernel_id = (self._kernel if kernel is None
                     else self._id(self._kernels, kernel))
        return self._record(self._id(self._names, name), kernel_id, fn,
                            args, kwargs)

    def _record(self, name_id: int, kernel_id: int, fn: Callable, args,
                kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self._start)
            self._name.append(name_id)
            self._start.append(0.0)
            self._end.append(0.0)
            self._parent.append(stack[-1] if stack else -1)
            self._kernel_of.append(kernel_id)
        stack.append(index)
        self._start[index] = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[index] = self._clock()
            stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper around *fn* that records each call as a span."""
        name_id = self._id(self._names, name)
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return record(name_id, self._kernel, fn, args, kwargs)

        return traced

    def records(self) -> List[Span]:
        """Every span recorded so far, in start order."""
        names = list(self._names)
        kernels = list(self._kernels)
        return [(names[n], s, e, p, kernels[k])
                for n, s, e, p, k in zip(self._name, self._start,
                                         self._end, self._parent,
                                         self._kernel_of)]

    def dump(self, path) -> None:
        """Write every span as gzip-compressed JSON."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "kernel"],
                       "spans": self.records()}, fh,
                      separators=(",", ":"))


def wrapper_cost(calls: int = 100_000, repeats: int = 3) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare
    one, best of *repeats* rounds of *calls* calls."""
    def noop():
        return None

    traced = SpanRecorder().wrap("noop", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(0.0, best / calls)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: SpanRecorder,
            targets: Sequence[Tuple[str, str, str]] = TARGETS
            ) -> Callable[[], None]:
    """Wrap every target binding; returns a function undoing it."""
    saved = []
    for module_name, path, name in targets:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(name, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def layer_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total span seconds and self seconds
    (span time minus the time of its direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _, _), children in zip(spans, child_time):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - children
    return out


def covered_seconds(spans: Sequence[Span]) -> float:
    """Wall time inside at least one top-level span: the union of their
    intervals, which on one thread is the sum of all self times."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s[1], s[2]) for s in spans if s[3] < 0):
        total += max(0.0, end - max(start, reach))
        reach = max(reach, end)
    return total
