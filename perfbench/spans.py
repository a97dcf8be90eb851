"""Spans around the benchmark's calls into the program.

A disabled tracer forwards calls and records nothing, so the timed run
and the traced run execute the same workload code.  Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op = 0
        self.spans: list[tuple[int, str, float, float]] = []
        self.counts: list[tuple[int, str, float]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as span ``name`` of the current op."""
        if not self.enabled:
            return fn(*args, **kwargs)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.op, name, t0, perf_counter()))

    def span(self, name: str, t0: float, t1: float):
        if self.enabled:
            self.spans.append((self.op, name, t0, t1))

    def count(self, name: str, value: float):
        if self.enabled:
            self.counts.append((self.op, name, float(value)))

    def per_op_medians(self, ops: int) -> dict[str, float]:
        """Median over ops of each span's summed time (ms) and each count.

        A span name ``a.b`` becomes metric ``a.b_ms``; count names are
        reported as given.  Ops in which a span never ran count as 0.
        """
        sums: dict[str, list[float]] = defaultdict(lambda: [0.0] * ops)
        for op, name, t0, t1 in self.spans:
            sums[name + "_ms"][op] += 1e3 * (t1 - t0)
        for op, name, value in self.counts:
            sums[name][op] += value
        return {name: statistics.median(values) for name, values in sums.items()}

    def dump(self, path: str, workload: str):
        doc = {
            "workload": workload,
            "spans": [
                {"op": op, "name": name, "parent": "op", "start": t0, "end": t1}
                for op, name, t0, t1 in self.spans
            ],
            "counts": [{"op": op, "name": name, "value": v} for op, name, v in self.counts],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
