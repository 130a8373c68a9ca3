"""In-memory spans recorded from benchmark code around calls into a layer.

One span per call into a layer: ``id``, ``parent``, ``name``, ``layer``,
``start_ns``, ``end_ns``, ``workload``, ``repeat`` and ``trace`` — the
identifier every span of one repeat (scan workloads) or one request
(serve workloads) shares.  Spans stay in memory and are written as JSONL
when the workload ends.  A layer's self time is its span minus the part
its children cover; hot boundaries that would need ~130 K spans are
folded into one aggregate child carrying ``count`` and ``busy_ns``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, object]] = []

    def add(self, name: str, layer: str, start_ns: int, end_ns: int,
            trace: str, repeat: int, parent: Optional[int] = None,
            **attributes) -> int:
        """Record a finished span; returns its id."""
        span_id = len(self.spans) + 1
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "layer": layer, "start_ns": start_ns,
                           "end_ns": end_ns, "workload": self.workload,
                           "repeat": repeat, "trace": trace, **attributes})
        return span_id

    @contextmanager
    def span(self, name: str, layer: str, trace: str, repeat: int,
             parent: Optional[int] = None, **attributes) -> Iterator[int]:
        """Time the enclosed block as one span; yields the span's id so
        children recorded inside can name it as their parent."""
        span_id = self.add(name, layer, perf_counter_ns(), 0, trace,
                           repeat, parent, **attributes)
        try:
            yield span_id
        finally:
            self.spans[span_id - 1]["end_ns"] = perf_counter_ns()

    def add_aggregate(self, name: str, layer: str, parent: int, count: int,
                      busy_ns: int) -> int:
        """Fold many short calls made inside ``parent`` into one child:
        it starts with the parent and lasts ``busy_ns``."""
        owner = self.spans[parent - 1]
        return self.add(name, layer, owner["start_ns"],
                        owner["start_ns"] + busy_ns, owner["trace"],
                        owner["repeat"], parent, count=count,
                        busy_ns=busy_ns, aggregate=True)

    def duration_ns(self, span_id: int) -> int:
        span = self.spans[span_id - 1]
        return span["end_ns"] - span["start_ns"]

    def self_ns(self, span_id: int) -> int:
        """The span's duration minus what its direct children cover."""
        children = sum(child["end_ns"] - child["start_ns"]
                       for child in self.spans
                       if child["parent"] == span_id)
        return self.duration_ns(span_id) - children

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span, sort_keys=True) + "\n")
