"""Spans and counters recorded from outside the program.

The tracer replaces a public function or method of ``stemscribe`` with a
wrapper that records a span (name, start, end, parent span, op index) and,
optionally, counters computed from the call's arguments and result. A
function imported elsewhere with ``from ... import`` is a second reference
to the same object, so every ``stemscribe`` module attribute that holds the
original is replaced, not only the one in the defining module.

Spans stay in memory until ``write`` is called. A span's self time is its
duration minus the time its direct children cover; spans nest strictly
because the benchmark runs one op at a time on one thread.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end, op]
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str | None, fn, count):
        """Wrapper recording a span named ``name`` (none if None) and calling
        ``count(counters of the current op, args, kwargs, result)`` after the
        call returns."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                record = [len(spans), stack[-1] if stack else None, name,
                          time.perf_counter(), None, self.op]
                spans.append(record)
                stack.append(record[0])
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[4] = time.perf_counter()
                    stack.pop()
            if count is not None:
                count(self.counters[self.op], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (the op's root span)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def patch_function(self, module, attr: str, name: str | None, count=None) -> None:
        """Replace ``module.attr`` in every loaded stemscribe module that
        refers to the same function object."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("stemscribe"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, count))

    def unpatch(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self, op: int) -> dict[str, float]:
        """Seconds of self time per span name within one op."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, start, end, span_op in self.spans:
            if span_op == op and parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end, span_op in self.spans:
            if span_op == op:
                out[name] += (end - start) - child_time[sid]
        return dict(out)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as f:
            for sid, parent, name, start, end, op in self.spans:
                f.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")
