"""In-memory spans around calls into vpvlab's layers, made from outside.

A span records name, start, end, parent and operation id. Spans nest by
call order (one thread), and a span's self time is its duration minus the
time covered by its direct children. Wrappers are installed on the module
attributes through which one layer calls another's public functions, and
removed again when the traced batch ends, so untraced batches run the
unmodified program.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op_id = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, 0.0, 0.0, parent, self.op_id]
        self.spans.append(record)
        self._open.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, on_result=None):
        """fn inside a span; on_result(result, *args, **kwargs) sees each return."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    def patch(self, stack: ExitStack, module, attr: str, name: str, on_result=None) -> None:
        """Replace module.attr by its traced version until stack closes."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name, on_result))
        stack.callback(setattr, module, attr, original)

    def self_times(self) -> tuple[dict, dict]:
        """(self seconds, inclusive seconds) summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict = defaultdict(float)
        total: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            total[name] += end - start
        return own, total

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(fields, s)) for s in self.spans],
                       "counts": dict(self.counts)}, fh)
