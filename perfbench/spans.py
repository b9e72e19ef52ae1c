"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded only around the calls the benchmark itself makes
into a layer's public functions; nothing inside the program is
instrumented.  Spans are recorded inside named intervals, each opened
by :meth:`Tracer.start` and closed by :meth:`Tracer.stop`; outside
them (always, when tracing is off) every method is a no-op, so the
untraced run pays one attribute test per call.

Spans nest through a context variable, so concurrent asyncio tasks
(the serve workload's pipelined connections) each see their own
parent.  A layer's self time is the part of the traced interval in
which one of its spans is the innermost active span; when spans of
different layers are innermost at the same instant, that instant is
split between them.  Self times are computed per interval, so they
add up to the time its spans cover, and whatever the interval leaves
uncovered is reported as ``unattributed``.
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

_PARENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_parent_span", default=None
)
_TID: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_tid", default=1
)


class Tracer:
    """Collects spans ``(name, layer, start, end, parent)`` in memory."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        #: ``label -> [start, end]`` of each traced interval.
        self.intervals: Dict[str, List[Optional[float]]] = {}
        self._current: Optional[str] = None

    def start(self, label: str) -> None:
        """Open the traced interval ``label``; self times are per interval."""
        if self.enabled:
            self._current = label
            self.intervals[label] = [time.perf_counter(), None]

    def stop(self) -> None:
        if self.enabled and self._current is not None:
            self.intervals[self._current][1] = time.perf_counter()
            self._current = None

    @property
    def recording(self) -> bool:
        """Inside a traced interval opened by :meth:`start`."""
        return self._current is not None

    def begin(self, name: str, layer: str, **args) -> Optional[dict]:
        """Open a span that :meth:`end` closes (for pipelined requests)."""
        if not self.recording:
            return None
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": _PARENT.get(),
            "interval": self._current,
            "tid": _TID.get(),
            "start": time.perf_counter(),
            "end": None,
            "args": args,
        }
        self.spans.append(record)
        return record

    @staticmethod
    def end(record: Optional[dict]) -> None:
        if record is not None:
            record["end"] = time.perf_counter()

    @contextmanager
    def span(self, name: str, layer: str, **args) -> Iterator[None]:
        """Record one call into ``layer``; no-op when tracing is off."""
        record = self.begin(name, layer, **args)
        if record is None:
            yield
            return
        token = _PARENT.set(record["id"])
        try:
            yield
        finally:
            _PARENT.reset(token)
            self.end(record)

    @staticmethod
    def set_thread(tid: int) -> None:
        """Label spans of the current task with Chrome-trace thread ``tid``."""
        _TID.set(tid)

    def wall(self, label: str) -> float:
        """Seconds the interval ``label`` lasted (0 if it never ran)."""
        started, stopped = self.intervals.get(label, (None, None))
        if started is None or stopped is None:
            return 0.0
        return stopped - started

    def self_times(self, label: str) -> Dict[str, float]:
        """Seconds per layer in which that layer's span was innermost."""
        spans = [
            s for s in self.spans
            if s["end"] is not None and s["interval"] == label
        ]
        if not spans:
            return {}
        bounds = []
        for span in spans:
            bounds.append((span["start"], 1, span["id"]))
            bounds.append((span["end"], 0, span["id"]))
        bounds.sort()
        by_id = {span["id"]: span for span in spans}
        active: Dict[int, int] = {}  # span id -> active child count
        totals: Dict[str, float] = {}
        previous = bounds[0][0]
        for stamp, opening, span_id in bounds:
            elapsed = stamp - previous
            if elapsed > 0 and active:
                leaves = {
                    by_id[sid]["layer"]
                    for sid, children in active.items()
                    if children == 0
                }
                share = elapsed / len(leaves)
                for layer in leaves:
                    totals[layer] = totals.get(layer, 0.0) + share
            previous = stamp
            parent = by_id[span_id]["parent"]
            if opening:
                active[span_id] = 0
                if parent in active:
                    active[parent] += 1
            else:
                active.pop(span_id, None)
                if parent in active:
                    active[parent] -= 1
        return totals

    def write_chrome(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto-loadable).

        Each interval is one more event, on thread 0.
        """
        starts = [start for start, _ in self.intervals.values()]
        origin = min(starts) if starts else 0.0

        def event(name, layer, start, end, tid, args):
            return {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": os.getpid(),
                "tid": tid,
                "args": args,
            }

        events = [
            event(label, "interval", start, end, 0, {})
            for label, (start, end) in self.intervals.items()
            if end is not None
        ] + [
            event(span["name"], span["layer"], span["start"], span["end"],
                  span["tid"], span["args"])
            for span in self.spans
            if span["end"] is not None
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )
