"""In-memory spans around the benchmark's calls into each detdiff module.

A span records its name, start, end, parent span and the op it belongs
to, plus two optional numbers: `work` (sample-steps, samples or calls,
whatever the metric divides by) and `count` (a counter read from the
call's result, such as NaN samples).  Spans stay in memory and are
written out once, when the run ends.  No span is recorded inside the
package itself: every span wraps a public detdiff call made from here.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id", "label",
                 "work", "count", "error")

    def __init__(self, name, start, parent, op_id, label, work):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op_id = op_id
        self.label = label
        self.work = work
        self.count = 0
        self.error = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    """Tracing off: every span is one shared object that records nothing."""

    enabled = False
    _span = Span("", 0.0, None, 0, "", 0)

    def span(self, name, work=0):
        return self._span

    def begin_op(self, label):
        return self._span


class _LiveSpan:
    """Context manager that closes a recorded span and notes an exception."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.end = time.perf_counter()
        if exc_type is not None:
            self.span.error = exc_type.__name__
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records nested spans; `begin_op` opens the root span of one op."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id = 0
        self._label = ""

    def begin_op(self, label):
        self._op_id += 1
        self._label = label
        return self.span("op")

    def span(self, name, work=0):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), parent, self._op_id, self._label, work)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return _LiveSpan(self, rec)

    def self_times(self) -> dict:
        """Per span name: calls, self seconds, work, and count per op label.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0,
                                   "counts": {}, "errors": {}})
        for i, s in enumerate(self.spans):
            agg = out[s.name]
            agg["calls"] += 1
            agg["self_s"] += (s.end - s.start) - child[i]
            agg["work"] += s.work
            agg["counts"][s.label] = s.count
            if s.error:
                agg["errors"][s.label] = s.error
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op_id": s.op_id, "op": s.label,
                    "work": s.work, "count": s.count, "error": s.error,
                }) + "\n")
