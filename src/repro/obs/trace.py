"""Span recording in Chrome ``trace_event`` format.

One :class:`TraceRecorder` collects complete ("ph": "X") spans from the
engine thread and the I/O pipeline's prefetch/spill threads
(``list.append`` is atomic under the GIL, so threads share the recorder
directly).  A span's ``ts`` is ``time.perf_counter`` relative to the
recorder's creation (``perf0``); load the exported file in
``chrome://tracing`` or https://ui.perfetto.dev.

When tracing is disabled the engine holds the :data:`NULL_RECORDER`
singleton, whose ``enabled`` flag lets every call site skip span
bookkeeping entirely -- a disabled run records nothing and pays only a
predicate check on the coarse-grained paths that bother to guard.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

#: Spans are dropped (and counted) past this, so a pathological run
#: cannot swallow the heap.
MAX_EVENTS = 1_000_000


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """No-op stand-in; ``enabled`` is False so call sites can skip work."""

    enabled = False

    def span(self, name, cat="engine", **args):
        return _NULL_SPAN

    def begin(self) -> float:
        return 0.0

    def end(self, name, start, cat="engine", **args) -> None:
        pass

    def instant(self, name, cat="engine", **args) -> None:
        pass

    def note_thread(self, name) -> None:
        pass


NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Collects Chrome-trace spans for one run."""

    enabled = True

    def __init__(self, max_events: int = MAX_EVENTS):
        self.pid = os.getpid()
        # Clock anchor: a span's ``ts`` is perf_counter-relative to perf0.
        self.perf0 = time.perf_counter()
        self.events: list[dict] = [{
            "ph": "M", "pid": self.pid, "tid": 0, "name": "process_name",
            "args": {"name": f"repro (pid {self.pid})"},
        }]
        self.dropped = 0
        self.max_events = max_events
        self._known_tids: set[int] = set()

    # -- metadata -------------------------------------------------------------

    def note_thread(self, name: str) -> None:
        """Label the calling thread's track (prefetch/spill threads)."""
        tid = threading.get_native_id()
        if tid in self._known_tids:
            return
        self._known_tids.add(tid)
        self.events.append({
            "ph": "M", "pid": self.pid, "tid": tid, "name": "thread_name",
            "args": {"name": name},
        })

    # -- recording ------------------------------------------------------------

    def begin(self) -> float:
        """Start timestamp for a :meth:`end`-terminated span."""
        return time.perf_counter()

    def end(self, name: str, start: float, cat: str = "engine", **args) -> None:
        """Record a complete span begun at ``start`` (from :meth:`begin`)."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        now = time.perf_counter()
        event = {
            "ph": "X", "name": name, "cat": cat,
            "pid": self.pid, "tid": threading.get_native_id(),
            "ts": (start - self.perf0) * 1e6,
            "dur": (now - start) * 1e6,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    @contextmanager
    def span(self, name: str, cat: str = "engine", **args):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.end(name, start, cat, **args)

    def instant(self, name: str, cat: str = "engine", **args) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        event = {
            "ph": "i", "s": "t", "name": name, "cat": cat,
            "pid": self.pid, "tid": threading.get_native_id(),
            "ts": (time.perf_counter() - self.perf0) * 1e6,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    # -- inspection / export --------------------------------------------------

    def span_names(self) -> set:
        return {e["name"] for e in self.events if e["ph"] == "X"}

    def chrome_trace(self) -> dict:
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {
                "recorder": "repro.obs.trace",
                "dropped_events": self.dropped,
            },
        }

    def export(self, path: str) -> None:
        """Write the trace: Chrome JSON, or one-event-per-line JSONL when
        the path ends in ``.jsonl`` (the compact fallback -- streamable,
        still loadable by Perfetto)."""
        if path.endswith(".jsonl"):
            with open(path, "w") as f:
                for event in self.events:
                    f.write(json.dumps(event, separators=(",", ":")))
                    f.write("\n")
            return
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)
            f.write("\n")
