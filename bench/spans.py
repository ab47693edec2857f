"""In-memory spans around the benchmark's calls into the package.

A span records its name, start and end (``perf_counter_ns``), the index of
its parent span and the id of the operation it belongs to.  Spans stay in a
list until the run ends; ``self_times`` then charges each span's duration,
minus the time its child spans cover, to the span's name.  The layer is the
part of the name before the first dot (``fusion.fuse`` belongs to
``fusion``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()


class Tracer:
    """Tracing on: every call and span is recorded."""

    def __init__(self):
        self.spans: list = []  # (op_id, name, start_ns, end_ns, parent_index)
        self.op_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (self.op_id, name, start, end, parent)

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, dict]:
        """Per span name: call count and self time in ms."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        rows: dict[str, dict] = {}
        for (_, name, start, end, _), inner in zip(self.spans, child_ns):
            row = rows.setdefault(name, {"calls": 0, "self_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += (end - start - inner) / 1e6
        return rows

    def write(self, path) -> None:
        """One JSON array per line: op id, name, start ns, end ns, parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
