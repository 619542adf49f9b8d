"""Spans and counters recorded from outside the library.

A traced process patches the library names that callers look up with
wrappers that open a span around each call.  Spans are kept in memory as
(name, start, end, parent) records and written out once, when the process
ends; the harness then derives per-layer self times from them.  Nothing here
imports fadefusion, so untraced runs carry no wrapper at all.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict

#: Library names the traced runs patch, each under the name its callers look
#: it up by: estimators imported by ``fadefusion.cli``, batch kernels imported
#: by ``fadefusion.analysis``, scalar solvers on the ``fadefusion`` package.
ESTIMATORS = ("outage_probability", "average_distortion", "active_fraction", "average_min_power")
KERNELS = ("equal_power_mse_batch", "sum_power_mse_batch")
SOLVERS = ("max_performance_allocation", "max_performance_with_caps", "min_power_allocation")


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    def wrap(self, name: str, fn, on_call=None):
        """Return ``fn`` wrapped in a span; ``on_call(tracer, *args)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, *args, **kwargs)
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def patch(self, module, attr: str, name: str, on_call=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`unpatch`."""
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_call))

    def replace(self, module, attr: str, value) -> None:
        """Replace ``module.attr`` by ``value`` (e.g. a counting subclass) until unpatch."""
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def unpatch(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def dump(self, path: str, **extra) -> None:
        if self._stack:
            raise RuntimeError("dump with open spans")
        record = {"spans": self.spans, "counters": dict(self.counters), **extra}
        with open(path, "w") as handle:
            json.dump(record, handle)


class LayerTimes:
    """Per-name totals of a finished span list: calls, inclusive and self time.

    A span's self time is its duration minus that of its direct children;
    ``problems`` lists spans that do not nest.
    """

    def __init__(self, spans):
        spans = [tuple(span) for span in spans]
        child_total = [0.0] * len(spans)
        self.problems: list[str] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        for name, start, end, parent in spans:
            if end < start:
                self.problems.append(f"span {name} ends before it starts")
            if parent >= 0:
                p_name, p_start, p_end, _ = spans[parent]
                if start < p_start or end > p_end:
                    self.problems.append(f"span {name} escapes its parent {p_name}")
                child_total[parent] += end - start
        roots = [i for i, span in enumerate(spans) if span[3] < 0]
        if len(roots) != 1:
            self.problems.append(f"expected one root span, found {len(roots)}")
        for i, (name, start, end, _) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - child_total[i]
            self.durations[name].append(duration)
        # With every span inside its parent and one root, the self times of
        # all spans add up to the root's duration.
        self.wall_s = sum(spans[i][2] - spans[i][1] for i in roots)

    def median_us(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) * 1e6 if values else 0.0


def load_trace(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)
