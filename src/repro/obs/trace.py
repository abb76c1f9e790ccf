"""The run's one timer: named spans, their self times, and -- when a
trace was asked for -- Chrome ``trace_event`` spans.

Every timed region of a run is ``with trace.span(name): ...`` on the
run's one :class:`TraceRecorder`.  A span's end always adds its
inclusive seconds, its *self* seconds (inclusive minus the spans that
ran directly inside it on the same thread) and one call to its name's
row in its thread's table, and feeds the histograms :data:`OBSERVED`
names for it.  Only a recorder made with ``chrome=True`` (the default)
also appends a complete (``"ph": "X"``) event, ``ts`` relative to the
recorder's ``perf0``, for ``chrome://tracing`` or https://ui.perfetto.dev.

A :class:`Window` reads what one thread's table and the histograms
gained since it opened: a run's ``spans`` section, the closure windows
the Figure-9 breakdown reads and a serve edit's fragment are windows on
the same table.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.obs.metrics import engine_metrics

#: Events are dropped (and counted) past this, so a pathological run
#: cannot swallow the heap.
MAX_EVENTS = 1_000_000

#: Span name -> the histograms its end observes, each with the span
#: argument it observes (None: the span's seconds).
OBSERVED = {
    "smt-solve": (("solve_latency_s", None),),
    "pair-compute": (("pair_compute_s", None), ("pair_new_edges", "new_edges")),
}

_perf = time.perf_counter
_EMPTY = (0.0, 0.0, 0)  # a span table row before the name's first call


class _Thread:
    """One thread's open span and its ``{name: (self_s, incl_s, calls)}``."""

    __slots__ = ("tid", "top", "table")

    def __init__(self):
        self.tid = threading.get_native_id()
        self.top = None
        self.table: dict[str, tuple] = {}


class Span:
    """One timed region (a context manager); ``args`` may still be set
    inside it and land in its Chrome event and histograms."""

    __slots__ = ("_rec", "name", "cat", "args", "_thread", "_parent",
                 "_start", "_child")

    def __init__(self, rec: "TraceRecorder", name: str, cat: str, args: dict):
        self._rec = rec
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "Span":
        thread = self._thread = self._rec._current()
        self._parent = thread.top
        thread.top = self
        self._child = 0.0
        self._start = _perf()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = _perf()
        elapsed = end - self._start
        thread = self._thread
        parent = thread.top = self._parent
        if parent is not None:
            parent._child += elapsed
        table = thread.table
        self_s, incl_s, calls = table.get(self.name, _EMPTY)
        table[self.name] = (
            self_s + elapsed - self._child, incl_s + elapsed, calls + 1
        )
        rec = self._rec
        observed = OBSERVED.get(self.name)
        if observed is not None and exc_type is None:
            for hist, arg in observed:
                rec.histograms[hist].observe(
                    elapsed if arg is None else self.args[arg]
                )
        if rec.chrome:
            rec._emit(self, thread.tid, end)
        return False


class Window:
    """What the calling thread's span table and the recorder's
    histograms gained since :meth:`TraceRecorder.window`."""

    def __init__(self, rec: "TraceRecorder"):
        self._rec = rec
        self._thread = rec._current()
        self._rows = dict(self._thread.table)
        self._hists = {n: h.mark() for n, h in rec.histograms.items()}

    def spans(self) -> dict[str, tuple]:
        """``{name: (self_s, incl_s, calls)}`` of the spans that ended
        on this thread since the window opened."""
        out = {}
        for name, (self_s, incl_s, calls) in self._thread.table.items():
            before = self._rows.get(name, _EMPTY)
            if calls > before[2]:
                out[name] = (self_s - before[0], incl_s - before[1],
                             calls - before[2])
        return out

    def histograms(self) -> dict:
        return {
            name: hist.since(self._hists[name])
            for name, hist in self._rec.histograms.items()
        }


def merge_spans(tables) -> dict[str, tuple]:
    """Sum ``{name: (self_s, incl_s, calls)}`` tables row by row."""
    out: dict[str, tuple] = {}
    for table in tables:
        for name, row in table.items():
            have = out.get(name, _EMPTY)
            out[name] = tuple(a + b for a, b in zip(have, row))
    return out


class TraceRecorder:
    """The span table, histograms and (optionally) Chrome events of one
    run.  Threads share it: each keeps its own span stack and table, and
    ``list.append`` of an event is atomic under the GIL."""

    def __init__(self, chrome: bool = True):
        self.pid = os.getpid()
        # Clock anchor: an event's ``ts`` is perf_counter-relative to perf0.
        self.perf0 = _perf()
        self.chrome = chrome
        self.events: list[dict] = [{
            "ph": "M", "pid": self.pid, "tid": 0, "name": "process_name",
            "args": {"name": f"repro (pid {self.pid})"},
        }] if chrome else []
        self.dropped = 0
        self.histograms = engine_metrics()
        self._local = threading.local()

    def _current(self) -> _Thread:
        try:
            return self._local.thread
        except AttributeError:
            thread = self._local.thread = _Thread()
            return thread

    # -- recording ------------------------------------------------------------

    def span(self, name: str, cat: str = "engine", **args) -> Span:
        return Span(self, name, cat, args)

    def window(self) -> Window:
        return Window(self)

    def _emit(self, span: Span, tid: int, end: float) -> None:
        if len(self.events) >= MAX_EVENTS:
            self.dropped += 1
            return
        event = {
            "ph": "X", "name": span.name, "cat": span.cat,
            "pid": self.pid, "tid": tid,
            "ts": (span._start - self.perf0) * 1e6,
            "dur": (end - span._start) * 1e6,
        }
        if span.args:
            event["args"] = span.args
        self.events.append(event)

    # -- export ---------------------------------------------------------------

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
        # dumps(), not dump(): dump streams through the pure-Python
        # encoder, ~10x slower on 10^4-10^5 events.
        with open(path, "w") as f:
            f.write(json.dumps(self.chrome_trace()))
            f.write("\n")
