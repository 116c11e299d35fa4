"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span in `Tracer.spans` (None at top level) and `op` the id of the
operation the span belongs to.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), 0.0, parent, op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def per_op(self, name: str, self_time: bool = False) -> dict[int, float]:
        """Seconds in spans called `name`, summed per op; with `self_time`,
        minus the time their direct children cover."""
        out: dict[int, float] = {}
        for rec in self.spans:
            if rec[0] == name:
                out[rec[4]] = out.get(rec[4], 0.0) + rec[2] - rec[1]
        if self_time:
            for rec in self.spans:
                parent = rec[3]
                if parent is not None and self.spans[parent][0] == name:
                    out[rec[4]] -= rec[2] - rec[1]
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


class NullTracer:
    """Stands in for Tracer in untraced runs; records nothing."""

    on = False

    def span(self, name: str, op: int):
        return nullcontext()


def span_cost(n: int = 5000) -> float:
    """Seconds one empty span costs on this interpreter."""
    tr = Tracer()
    t0 = time.perf_counter()
    for i in range(n):
        with tr.span("x", i):
            pass
    return (time.perf_counter() - t0) / n
