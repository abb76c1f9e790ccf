"""Resource telemetry: a low-overhead background gauge sampler.

One :class:`ResourceSampler` runs a daemon thread that wakes at a fixed
cadence (the heartbeat's time scale, default 4 Hz) and records a row of
gauges: process RSS, cumulative GC pause time, and whatever *providers*
the engine has bound -- partition-cache occupancy and the scheduler's
eligible-pair count.  Rows are kept in memory (bounded) and exported as
a columnar timeseries inside the ``grapple/run-report`` document (schema
version 2, ``telemetry`` section), so a run's memory/backlog trajectory
rides in the same artifact as its counters.

The sampler is strictly opt-in (``--profile``): a run without one holds
``None`` and every call site guards on that, so the disabled path costs
nothing -- the zero-cost invariant the observability layer has kept
since it landed (a regression test pins both the absent thread and the
unchanged run-report key set).

Overhead budget: one row is one clock read, one ``/proc/self/statm``
read, and a handful of attribute calls -- single-digit microseconds --
at 4 Hz, i.e. well under 0.01% of one core.  The GC watch adds two
``perf_counter`` calls per collection.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

#: Default sampling cadence in seconds (4 Hz).
DEFAULT_INTERVAL = 0.25

#: Rows kept per sampler; a pathological run cannot swallow the heap
#: (at 4 Hz this is ~7 hours of samples).
MAX_SAMPLES = 100_000

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> int | None:
    """Current resident set size of this process in bytes.

    Reads ``/proc/self/statm`` (Linux); falls back to the *peak* RSS
    from ``getrusage`` where /proc is absent (macOS reports ru_maxrss
    in bytes, Linux in KiB -- the fallback only runs off-Linux).
    """
    try:
        with open("/proc/self/statm", "rb") as f:
            return int(f.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:  # pragma: no cover - platform without getrusage
        return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB
    (``ru_maxrss`` is KiB on Linux, bytes on macOS)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


class GcWatch:
    """Cumulative GC pause accounting via ``gc.callbacks``."""

    def __init__(self):
        self.pauses = 0
        self.pause_s = 0.0
        self.max_pause_s = 0.0
        # Whether automatic collection was on where the watch was
        # installed (None until then): zero pauses under ``False`` is a
        # measurement, not a missing one.
        self.automatic: bool | None = None
        self._start = None
        self._installed = False

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif phase == "stop" and self._start is not None:
            pause = time.perf_counter() - self._start
            self._start = None
            self.pauses += 1
            self.pause_s += pause
            if pause > self.max_pause_s:
                self.max_pause_s = pause

    def install(self) -> None:
        if not self._installed:
            gc.callbacks.append(self._callback)
            self._installed = True
            self.automatic = gc.isenabled()

    def uninstall(self) -> None:
        if self._installed:
            try:
                gc.callbacks.remove(self._callback)
            except ValueError:  # pragma: no cover - external interference
                pass
            self._installed = False

    def summary(self) -> dict:
        return {
            "pauses": self.pauses,
            "pause_s": round(self.pause_s, 6),
            "max_pause_s": round(self.max_pause_s, 6),
            "automatic": self.automatic,
        }


class ResourceSampler:
    """Samples gauge rows on a daemon thread at a fixed cadence.

    ``bind(name, fn)`` attaches a zero-argument provider whose return
    value (a number, or None when momentarily unavailable) is recorded
    under ``name`` in every subsequent row; ``unbind`` detaches it.
    Providers that raise are recorded as None for that row -- a dying
    provider must never take the sampler thread down with it.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        max_samples: int = MAX_SAMPLES,
    ):
        self.interval = max(0.01, float(interval))
        # Rows are perf_counter-relative to perf0, like trace spans.
        self.perf0 = time.perf_counter()
        self.max_samples = max_samples
        self.dropped = 0
        self.gc_watch = GcWatch()
        self._rows: list[tuple[float, dict]] = []
        self._providers: dict = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- providers -------------------------------------------------------------

    def bind(self, name: str, fn) -> None:
        with self._lock:
            self._providers[name] = fn

    def unbind(self, name: str) -> None:
        with self._lock:
            self._providers.pop(name, None)

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the sampling thread (idempotent)."""
        if self.running:
            return
        self.gc_watch.install()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="grapple-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread, taking one final sample first."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
            self._thread = None
        self.gc_watch.uninstall()
        self.sample_once()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    # -- sampling --------------------------------------------------------------

    def sample_once(self) -> None:
        """Record one row (also callable inline, e.g. from tests)."""
        if len(self._rows) >= self.max_samples:
            self.dropped += 1
            return
        now = time.perf_counter() - self.perf0
        row = {
            "rss_bytes": read_rss_bytes(),
            "gc_pause_s": round(self.gc_watch.pause_s, 6),
        }
        with self._lock:
            providers = list(self._providers.items())
        for name, fn in providers:
            try:
                value = fn()
            except Exception:
                value = None
            row[name] = value
        with self._lock:
            self._rows.append((round(now, 4), row))

    # -- export ----------------------------------------------------------------

    @staticmethod
    def _columnar(rows: list) -> dict:
        """Row dicts -> aligned columns, padding gauges that appeared
        late (a provider bound mid-run) with None."""
        names: list[str] = []
        seen: set = set()
        for _t, row in rows:
            for name in row:
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        return {
            "t_s": [t for t, _row in rows],
            "series": {
                name: [row.get(name) for _t, row in rows] for name in names
            },
        }

    def timeseries(self) -> dict:
        """The run-report ``telemetry`` section (JSON-ready)."""
        with self._lock:
            rows = list(self._rows)
        return {
            "interval_s": self.interval,
            "samples": len(rows),
            "dropped": self.dropped,
            # The section keeps the name run-report v2 gave it when a
            # run could have more than one process.
            "coordinator": self._columnar(rows),
            "gc": self.gc_watch.summary(),
        }
