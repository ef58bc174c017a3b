"""In-memory span recording for the traced benchmark run.

Spans are recorded from outside the program: the benchmark wraps the
functions it calls into each layer, so the program itself is unchanged.
A span is ``[id, name, start_ns, end_ns, parent_id, thread_id, tag]``;
``tag`` is an optional value taken from the call's result, so counts such as
cache hits are made at the same boundary as the timing.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tag=None):
        """``fn`` with every call recorded as a span called ``name``."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            span = [next(self._ids), name, clock(), 0, stack[-1] if stack else -1,
                    threading.get_ident(), None]
            self.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if tag is not None:
                span[6] = tag(result)
            return result

        return traced

    def wrap_iter(self, name: str, fn):
        """A generator function whose every ``next()`` is a span called ``name``."""
        step = self.wrap(name, next)

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                yield item

        return traced

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds, and tag counts.

        Self time is a span's duration minus that of its direct children.
        The traced run is single-threaded, so children never overlap.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[4] >= 0:
                child_ns[span[4]] += span[3] - span[2]
        totals: dict[str, dict] = {}
        for span in self.spans:
            entry = totals.setdefault(
                span[1], {"calls": 0, "total_ns": 0, "self_ns": 0, "tags": defaultdict(int)}
            )
            duration = span[3] - span[2]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child_ns[span[0]]
            if span[6] is not None:
                entry["tags"][span[6]] += 1
        return totals

    def write(self, path: Path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent", "thread", "tag"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
