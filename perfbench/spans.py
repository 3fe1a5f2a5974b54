"""Spans recorded around the benchmark's calls into mvop's public functions.

A span is (name, start, end, parent, op): the name is "<layer>.<call>", the
parent is the index of the enclosing span (the op span for every layer
call), and spans of one op share its id. Spans stay in memory and are
written out once, when the run ends. `scales` maps an op id to the factor
that converts its measured seconds to seconds at the reference speed.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class NoTrace:
    """Calls straight through; the untraced runs use this."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def op(self, op_id):
        yield


class Tracer:
    """Keeps every span in memory, plus error counts per call name."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.errors: Counter = Counter()
        self.scales: dict = {}
        self._stack: list = []
        self._op = None

    def _open(self):
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1], (self._stack[-2] if len(self._stack) > 1 else None)

    def _close(self, index, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self._op)

    def call(self, name, fn, *args, **kwargs):
        index, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name] += 1
            raise
        finally:
            self._close(index, parent, name, start)

    @contextmanager
    def op(self, op_id):
        self._op = op_id
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, "op", start)
            self._op = None

    def self_times(self) -> dict:
        """Per span name: (calls, total self time at the reference speed).

        Self time is the span's duration minus the durations of its children.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        busy = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += (end - start - child[i]) * self.scales.get(op, 1.0)
        return {name: (calls[name], busy[name]) for name in calls}

    def write(self, path, env: dict):
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump({"env": env, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
