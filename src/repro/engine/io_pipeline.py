"""Partition I/O off the compute path: prefetched reads, framed spills.

Grapple hides disk latency behind computation (paper §4.3): while one
partition pair is being composed, the next pair's partitions are already
being read and decoded.  The scheduler knows the upcoming pairs
(:meth:`PairScheduler.peek_pairs`), so the engine hands them to a
:class:`PrefetchReader` whose daemon thread runs
``serialize.read_partition`` -- the partition file *and* its delta
frames, parsed into plain columns; the same pure function a synchronous
load calls, so no shared interning state is touched off-thread.  The
consumer validates the partition's version at :meth:`PrefetchReader.take`
time: any write that happened after the prefetch was scheduled bumps the
version and turns the prefetch into a miss, so stale bytes can never be
adopted.

Spill (delta) writes go the other way, on the engine's own thread:
:class:`SpillWriter` appends one CRC-framed record per call and counts
it.  A run writes a few dozen frames of a few hundred bytes at most
(hadoop scale 4: 8 frames at a 0.25 MiB budget, 53 at 0.05), so a
writer thread had nothing to hide; appending in place also means a read
never has to wait for queued frames to land.
"""

from __future__ import annotations

import queue
import threading

from repro.engine import serialize
from repro.faults import NULL_PLAN
from repro.obs.trace import TraceRecorder


class PrefetchReader:
    """Reads and parses upcoming partitions on a background thread."""

    def __init__(self, trace=None) -> None:
        self.trace = trace or TraceRecorder(chrome=False)
        self._tasks: queue.Queue = queue.Queue()
        self._results: dict[int, dict] = {}
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._closed = False
        # Unexpected (non-I/O, non-corruption) reader failures.  Written
        # only by the reader thread; folded into EngineStats by the
        # consumer when take() re-raises.
        self.errors = 0

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name="grapple-prefetch", daemon=True
            )
            self._thread.start()

    # -- producer side --------------------------------------------------------

    def schedule(self, index: int, version: int, path: str,
                 delta_path: str) -> None:
        """Ask the reader to parse partition ``index`` as of ``version``.

        Re-scheduling the same (index, version) is a no-op; scheduling a
        newer version supersedes the old entry.
        """
        if self._closed:
            return
        with self._lock:
            entry = self._results.get(index)
            if entry is not None and entry["version"] == version:
                return
            entry = {
                "version": version,
                "ready": threading.Event(),
                "read": None,
                "error": None,
            }
            self._results[index] = entry
        self._ensure_thread()
        self._tasks.put((index, version, path, delta_path, entry))

    def _run(self) -> None:
        trace = self.trace
        trace.note_thread("prefetch-reader")
        while True:
            task = self._tasks.get()
            if task is None:
                return
            index, version, path, delta_path, entry = task
            try:
                with trace.span(
                    "prefetch", cat="io", partition=index, version=version,
                    hit=False,
                ) as span:
                    # The delta file is read, not consumed: the consumer
                    # owns its lifecycle and applies the frame counts.
                    entry["read"] = serialize.read_partition(path, delta_path)
                    span.args["hit"] = True
            except serialize.CorruptPartition as exc:
                # An unreadable partition file is NOT a benign miss:
                # record the error so take() can distinguish "re-read
                # synchronously" from "this partition needs recovery".
                entry["error"] = exc
            except (OSError, EOFError):
                # Benign failures (file not yet written, version race,
                # transient OS error) leave the entry empty: take()
                # reports a miss and the caller falls back to a
                # synchronous load.
                pass
            except Exception as exc:
                # Anything else is a programming error, not an I/O race.
                # Swallowing it here would degrade every prefetch into a
                # silent eternal miss; surface it through the error slot
                # so take() re-raises on the engine thread, where it is
                # counted (``prefetch_errors``) and propagated.
                entry["error"] = exc
                self.errors += 1
            finally:
                entry["ready"].set()

    # -- consumer side --------------------------------------------------------

    def take(self, index: int, version: int):
        """Claim a prefetched read for (index, version).

        Returns ``serialize.read_partition``'s ``(columns, deltas,
        dropped, corrupt)`` on a hit, or ``None`` on a miss (never
        scheduled, version changed since, or the read failed benignly on
        ``OSError``/``EOFError``).  A partition file that failed to parse
        raises :class:`CorruptPartition` instead -- the caller counts it
        separately and routes it to the retry layer rather than silently
        re-reading the same damage forever.  Any other reader-thread
        exception (a programming error) is re-raised here too, counted
        as ``prefetch_errors`` by the consumer.  Blocks
        until an in-flight read finishes -- the wait is never longer
        than the synchronous read would be.
        """
        with self._lock:
            entry = self._results.pop(index, None)
        if entry is None:
            return None
        entry["ready"].wait()
        if entry["version"] != version:
            return None
        if entry["error"] is not None:
            raise entry["error"]
        return entry["read"]

    def invalidate(self, index: int) -> None:
        """Drop any pending/completed prefetch for a partition."""
        with self._lock:
            self._results.pop(index, None)

    def close(self) -> None:
        self._closed = True
        with self._lock:
            self._results.clear()
        if self._thread is not None and self._thread.is_alive():
            self._tasks.put(None)
            self._thread.join(timeout=5)


class SpillWriter:
    """Append-only writer for partition delta frames, on the caller's
    thread.

    Each payload is CRC-framed (``serialize.encode_frame``) and appended
    in a *single* ``write`` call, so a crash mid-append leaves at most
    one truncated trailing frame, which the tolerant reader drops.  A
    failed write raises from :meth:`append` itself.  Frames and bytes
    are counted into ``stats`` (``spill_frames`` / ``spill_bytes``).
    """

    def __init__(self, stats, trace=None, faults=NULL_PLAN) -> None:
        self.stats = stats
        self.trace = trace or TraceRecorder(chrome=False)
        self.faults = faults

    def append(self, path: str, payload: bytes) -> None:
        """Frame ``payload`` and append it to ``path``."""
        with self.trace.span("spill", cat="io") as span:
            frame = serialize.encode_frame(payload)
            spec = self.faults.fire("delta-append")
            if spec is not None:
                frame = self.faults.mutate_frame(spec, frame)
            with open(path, "ab") as f:
                f.write(frame)
            span.args["bytes"] = len(frame)
        self.stats.spill_frames += 1
        self.stats.spill_bytes += len(frame)

    # Nothing is buffered, so there is nothing to flush or close.  Kept
    # only because the committed benchmarks/harness wraps both names
    # (``layers.py::WRAPS``); drop them with those entries.
    def flush(self, path: str | None = None) -> None:
        pass

    def close(self) -> None:
        pass
