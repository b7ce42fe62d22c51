"""In-memory spans for the traced benchmark children, and their summary.

A span records a name, its start and end (``time.perf_counter_ns``), the
span that caused it, the element it belongs to (every span opened while an
element is being processed carries that element's index) and the RSS
high-water mark when it ended.  Spans stay in memory; ``Tracer.dump`` writes
them out once, when the child is done.  Spans are opened only by the
benchmark's own code around calls into coxlab's public functions: nothing
inside the package is patched.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager

# Column order of one span record in memory and in the dumped file.
SPAN_FIELDS = ("id", "parent", "element", "name", "start_ns", "end_ns", "maxrss_kb")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[list] = []

    @contextmanager
    def span(self, name: str, element: int | None = None):
        parent = self._open[-1] if self._open else None
        if element is None and parent is not None:
            element = parent[2]
        record = [
            len(self.spans),
            parent[0] if parent is not None else None,
            element,
            name,
            time.perf_counter_ns(),
            0,
            0,
        ]
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record[5] = time.perf_counter_ns()
            record[6] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def dump(self, path: str, **meta) -> None:
        doc = {
            "fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "counts": dict(self.counts),
            **meta,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


class NullTracer:
    """Same interface, records nothing: the untraced children use it."""

    @contextmanager
    def span(self, name: str, element: int | None = None):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        pass


def summarize(doc: dict) -> dict:
    """Per-layer numbers from a dumped trace.

    Returns ``<span name>_s`` self times (a span's duration minus the
    durations of its direct children, which nest inside it), the counts,
    ``<layer>.rss_mb`` (the RSS high-water mark when the layer's last span
    ended; the layer is the part of the span name before the first dot) and
    the median and 90th percentile of the per-element latency, taken over
    the ``cli.element`` spans.
    """
    spans = doc["spans"]
    children_ns: Counter = Counter()
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children_ns[parent] += end - start
    out: dict[str, float] = {}
    rss_kb: dict[str, int] = {}
    element_s = []
    for span_id, _, _, name, start, end, maxrss in spans:
        key = f"{name}_s"
        out[key] = out.get(key, 0.0) + (end - start - children_ns[span_id]) / 1e9
        layer = name.split(".", 1)[0]
        rss_kb[layer] = max(rss_kb.get(layer, 0), maxrss)
        if name == "cli.element":
            element_s.append((end - start) / 1e9)
    for layer, kb in rss_kb.items():
        out[f"{layer}.rss_mb"] = kb * 1024 / 1e6
    if len(element_s) >= 2:
        out["cli.element_s.p50"] = statistics.median(element_s)
        out["cli.element_s.p90"] = statistics.quantiles(element_s, n=10)[8]
    out.update(doc["counts"])
    return out
