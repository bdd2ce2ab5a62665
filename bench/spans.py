"""Spans recorded from the benchmark's side of each call into `sqc`.

A span is timed around a callable the benchmark hands to the program
or around a public function the program looks up on its module. Spans
are summed per (parent, name) in memory, where the parent is the
operation (one top-level call) that caused them, and written out once
when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Span sums and counts per (operation, name), and the operations' spans."""

    def __init__(self):
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.operations = []  # (name, start_ns, end_ns)
        self._op = None

    def _add(self, name: str, ns: int) -> None:
        key = (self._op, name)
        self.total_ns[key] += ns
        self.calls[key] += 1

    def tally(self, name: str, n: int) -> None:
        """Add n to the count kept under ``name``."""
        self.calls[(self._op, name)] += n

    def wrap(self, name: str, fn):
        """fn with a span named ``name`` around every call."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, clock() - start)

        return traced

    @contextmanager
    def patched(self, module, attr: str, name: str, fn=None):
        """Replace module.attr by its traced form for the duration.

        ``fn``, when given, is traced in place of the original; it must
        call the original itself.
        """
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, fn or original))
        try:
            yield
        finally:
            setattr(module, attr, original)

    @contextmanager
    def operation(self, name: str):
        """A top-level span; spans opened inside it count as its children."""
        outer, self._op = self._op, name
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._op = outer
            self.operations.append((name, start, end))
            self._add(name, end - start)

    def seconds(self, name: str, parent: str | None = None) -> float:
        """Summed seconds of spans named ``name`` (under ``parent`` if given)."""
        return sum(
            ns for (op, n), ns in self.total_ns.items() if n == name and (parent is None or op == parent)
        ) / 1e9

    def count(self, name: str, parent: str | None = None) -> int:
        return sum(
            c for (op, n), c in self.calls.items() if n == name and (parent is None or op == parent)
        )

    def write(self, path: Path) -> None:
        spans = [
            {"parent": op, "name": name, "calls": self.calls[(op, name)], "total_s": ns / 1e9}
            for (op, name), ns in sorted(self.total_ns.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
        ops = [{"name": n, "start_ns": s, "end_ns": e} for n, s, e in self.operations]
        path.write_text(json.dumps({"spans": spans, "operations": ops}, indent=1) + "\n")


class TracedGenerator:
    """A numpy Generator whose standard_normal draws are spans."""

    def __init__(self, rng, tracer: Tracer):
        self.standard_normal = tracer.wrap("rng.draw", rng.standard_normal)
