"""Spans around the calls the benchmark makes into ``gracefulperms``.

A ``Tracer`` replaces public functions of the package's modules with
wrappers that record one span per call: its name, start, end and the span
that was open when it began.  Calls the package makes to its own public
functions through module attributes, such as ``count`` calling
``expand_level``, ``ClassMap.node_sum`` and ``finalize``, are recorded too.
Spans stay in memory until ``write`` puts them in a JSON file.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """A span around code the benchmark runs itself."""
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    def _begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``describe(args, kwargs, result)`` returns extra fields for the span.
        """
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the span name's prefix) not covered by child spans."""
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            layer = s["name"].split(".")[0]
            out[layer] += s["end"] - s["start"] - covered[s["id"]]
        return dict(out)

    def level_records(self) -> list[dict]:
        """Per BFS level inside each traced ``count``: level, classes, nodes, seconds.

        The nodes come from the ``node_sum`` call that ``count`` makes right
        after each level.
        """
        records = []
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        for s in self.spans:
            if s["name"] != "search.count":
                continue
            pending = None
            for child in children[s["id"]]:
                if child["name"] == "search.expand_level":
                    pending = {
                        "count_span": s["id"],
                        "level": child["out_level"],
                        "classes": child["out_classes"],
                        "seconds": child["end"] - child["start"],
                    }
                elif child["name"] == "search.node_sum" and pending is not None:
                    pending["nodes"] = child["nodes"]
                    records.append(pending)
                    pending = None
        return records

    def write(self, path: Path, **extra) -> None:
        payload = dict(extra, spans=self.spans, levels=self.level_records())
        path.write_text(json.dumps(payload))


def trace_package(tracer: Tracer, search, report, bounds) -> None:
    """Wrap the public functions of each module that the workloads reach."""
    tracer.wrap(search, "count", "search.count",
                lambda a, k, r: {"n": a[0], "classes": max(s.class_count for s in r.levels)})
    tracer.wrap(search, "expand_level", "search.expand_level",
                lambda a, k, r: {"in_classes": len(a[0].entries),
                                 "out_level": r.level, "out_classes": len(r.entries)})
    tracer.wrap(search.ClassMap, "node_sum", "search.node_sum",
                lambda a, k, r: {"nodes": str(r)})
    tracer.wrap(search, "finalize", "search.finalize")
    tracer.wrap(search, "dfs_count", "search.dfs_count")
    tracer.wrap(search, "enumerate_graceful", "search.enumerate_graceful",
                lambda a, k, r: {"permutations": len(r.permutations)})
    tracer.wrap(report, "save_checkpoint", "report.save_checkpoint",
                lambda a, k, r: {"bytes": Path(a[1]).stat().st_size})
    tracer.wrap(report, "load_checkpoint", "report.load_checkpoint",
                lambda a, k, r: {"records": len(r.entries)})
    tracer.wrap(report, "find_resume_checkpoint", "report.find_resume_checkpoint")
    tracer.wrap(bounds, "gamma_value", "bounds.gamma_value")
    tracer.wrap(bounds, "certify_bound", "bounds.certify_bound")
