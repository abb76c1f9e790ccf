"""Background partition I/O: prefetched reads and double-buffered spills.

Grapple hides disk latency behind computation (paper §4.3): while one
partition pair is being composed, the next pair's partitions are already
being read and decoded.  The scheduler knows the upcoming pairs
(:meth:`PairScheduler.peek_pairs`), so the engine hands them to a
:class:`PrefetchReader` whose daemon thread reads the partition file
*and* any pending delta frames and parses them into plain data
(``serialize.parse_columnar`` is pure -- no shared interning state is
touched off-thread).  The consumer validates the partition's version at
:meth:`PrefetchReader.take` time: any write that happened after the
prefetch was scheduled bumps the version and turns the prefetch into a
miss, so stale bytes can never be adopted.

Spill (delta) writes go the other way: :class:`SpillWriter` queues
payloads and appends them as CRC-framed records from a writer thread.
The store flushes the writer for a path before any read of that path,
which keeps the read side oblivious to the buffering.
"""

from __future__ import annotations

import os
import queue
import threading

from repro.engine import serialize
from repro.faults import NULL_PLAN
from repro.obs.trace import NULL_RECORDER


class PrefetchReader:
    """Reads and parses upcoming partitions on a background thread."""

    def __init__(self, trace=None) -> None:
        self.trace = trace if trace is not None else NULL_RECORDER
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
                "parsed": None,
                "deltas": None,
                "dropped": 0,
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
            span_start = trace.begin() if trace.enabled else 0.0
            try:
                with open(path, "rb") as f:
                    parsed = serialize.parse_columnar(f.read())
                deltas = []
                if os.path.exists(delta_path):
                    # Parse the delta frames but do NOT remove the file;
                    # the consumer owns its lifecycle.  Truncated tail
                    # frames are a benign crash artifact and are dropped;
                    # interior CRC/decode failures are real corruption
                    # and are surfaced through the entry's error slot so
                    # the store's retry layer (not this thread) decides
                    # how to recover.
                    with open(delta_path, "rb") as f:
                        data = f.read()
                    payloads, dropped, corrupt = serialize.split_frames(data)
                    if corrupt:
                        raise serialize.CorruptPartition(
                            f"{corrupt} corrupt delta frame(s) in"
                            f" {os.path.basename(delta_path)}"
                        )
                    entry["dropped"] = dropped
                    for payload in payloads:
                        deltas.append(serialize.decode_partition(payload))
                entry["parsed"] = parsed
                entry["deltas"] = deltas
            except serialize.CorruptPartition as exc:
                # Corrupt bytes are NOT a benign miss: record the error
                # so take() can distinguish "re-read synchronously" from
                # "this partition needs recovery".
                entry["parsed"] = None
                entry["deltas"] = None
                entry["error"] = exc
            except (OSError, EOFError):
                # Benign failures (file not yet written, version race,
                # transient OS error) leave the entry empty: take()
                # reports a miss and the caller falls back to a
                # synchronous load.
                entry["parsed"] = None
                entry["deltas"] = None
            except Exception as exc:
                # Anything else is a programming error, not an I/O race.
                # Swallowing it here would degrade every prefetch into a
                # silent eternal miss; surface it through the error slot
                # so take() re-raises on the engine thread, where it is
                # counted (``prefetch_errors``) and propagated.
                entry["parsed"] = None
                entry["deltas"] = None
                entry["error"] = exc
                self.errors += 1
            finally:
                entry["ready"].set()
                if span_start:
                    trace.end(
                        "prefetch", span_start, cat="io",
                        partition=index, version=version,
                        hit=entry["parsed"] is not None,
                    )

    # -- consumer side --------------------------------------------------------

    def take(self, index: int, version: int):
        """Claim a prefetched parse for (index, version).

        Returns ``(ColumnarFile, [delta_dict, ...], dropped_frames)`` on
        a hit, or ``None`` on a miss (never scheduled, version changed
        since, or the read failed benignly on ``OSError``/``EOFError``).
        A read that failed on *corrupt* bytes raises
        :class:`CorruptPartition` instead -- the caller counts it
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
        if entry["parsed"] is None:
            return None
        return entry["parsed"], entry["deltas"], entry["dropped"]

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
    """Double-buffered append-only writer for partition delta frames.

    Frames are queued by the engine thread and written by a daemon
    writer thread; :meth:`flush` blocks until every queued frame for a
    path (or all paths) has hit disk.
    Each frame is CRC-framed (``serialize.encode_frame``) and appended
    in a *single* ``write`` call, so a crash mid-append leaves at most
    one truncated trailing frame, which the tolerant reader drops.
    Exceptions raised on the writer thread surface at the next flush or
    append, and :meth:`close` flushes, joins the thread, and re-raises
    any error still pending -- an error can no longer be lost because
    the run ended before the next flush.
    """

    def __init__(self, trace=None, faults=NULL_PLAN) -> None:
        self.trace = trace if trace is not None else NULL_RECORDER
        self.faults = faults
        # Mutated only by the writer thread; fold into EngineStats after
        # close() so no counter is written from two threads.
        self.frames_written = 0
        self.bytes_written = 0
        self._tasks: queue.Queue = queue.Queue()
        self._pending: dict[str, int] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._closed = False

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name="grapple-spill-writer", daemon=True
            )
            self._thread.start()

    def append(self, path: str, payload: bytes) -> None:
        """Queue one CRC-framed payload for append to ``path``."""
        if self._closed:
            raise RuntimeError("SpillWriter is closed")
        with self._lock:
            if self._error is not None:
                error, self._error = self._error, None
                raise error
            self._pending[path] = self._pending.get(path, 0) + 1
        self._ensure_thread()
        self._tasks.put((path, payload))

    def _run(self) -> None:
        trace = self.trace
        trace.note_thread("spill-writer")
        while True:
            task = self._tasks.get()
            if task is None:
                return
            path, payload = task
            span_start = trace.begin() if trace.enabled else 0.0
            try:
                frame = serialize.encode_frame(payload)
                spec = self.faults.fire("delta-append")
                if spec is not None:
                    frame = self.faults.mutate_frame(spec, frame)
                # One write call per frame: a crash can truncate the
                # tail frame but never interleave two partial frames.
                with open(path, "ab") as f:
                    f.write(frame)
                self.frames_written += 1
                self.bytes_written += len(frame)
                if span_start:
                    trace.end(
                        "spill", span_start, cat="io", bytes=len(frame)
                    )
            except BaseException as exc:  # surfaced at next flush/append
                with self._lock:
                    self._error = exc
            finally:
                with self._lock:
                    left = self._pending.get(path, 1) - 1
                    if left:
                        self._pending[path] = left
                    else:
                        self._pending.pop(path, None)
                    self._idle.notify_all()

    def pending(self, path: str) -> bool:
        """True when frames for ``path`` are still queued or in flight."""
        with self._lock:
            return bool(self._pending.get(path))

    def flush(self, path: str | None = None) -> None:
        """Wait until queued frames (for ``path``, or all) are on disk."""
        with self._lock:
            if path is None:
                while self._pending:
                    self._idle.wait()
            else:
                while self._pending.get(path):
                    self._idle.wait()
            if self._error is not None:
                error, self._error = self._error, None
                raise error

    def close(self) -> None:
        """Flush, join the writer thread, and re-raise pending errors."""
        if self._closed:
            return
        self._closed = True
        error: BaseException | None = None
        try:
            self.flush()
        except BaseException as exc:
            error = exc
        if self._thread is not None and self._thread.is_alive():
            self._tasks.put(None)
            self._thread.join(timeout=5)
        with self._lock:
            if error is None and self._error is not None:
                error, self._error = self._error, None
        if error is not None:
            raise error
