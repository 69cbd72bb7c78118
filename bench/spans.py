"""In-memory span recorder for the benchmark's traced run.

The model follows OpenTelemetry traces: a span has a name, a start, an end,
the span it was opened under, and the id of the run it belongs to (one
workload round; spans of one round share it). Counts are recorded at the same
boundaries. Spans stay in memory, in compact arrays, until the run ends;
``write`` then stores them in a gzipped JSON file. Nothing goes to stdout.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

NO_PARENT = -1


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.run_id = 0
        self._open = [NO_PARENT]

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def durations(self) -> dict[str, float]:
        """Total time per span name (nested spans of one name count once each)."""
        out: defaultdict[str, float] = defaultdict(float)
        for name_id, start, end in zip(self.name, self.start, self.end):
            out[self.names[name_id]] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Per span name: its duration minus the part its child spans cover.

        Spans nest strictly (a child closes before its parent), so the part
        the children cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.name)
        for i, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                child_time[parent] += self.end[i] - self.start[i]
        out: defaultdict[str, float] = defaultdict(float)
        for i, name_id in enumerate(self.name):
            out[self.names[name_id]] += self.end[i] - self.start[i] - child_time[i]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: defaultdict[str, int] = defaultdict(int)
        for name_id in self.name:
            out[self.names[name_id]] += 1
        return dict(out)

    def write(self, path: Path, meta: dict) -> None:
        """Store the spans, counts and ``meta`` as gzipped JSON at ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **meta,
            "counts": dict(self.counts),
            "span_names": self.names,
            "spans": {
                "name": list(self.name),
                "start": list(self.start),
                "end": list(self.end),
                "parent": list(self.parent),
                "run": list(self.run),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)
