"""Host-speed sampling, so timings survive a host whose speed drifts.

The benchmark's home is a small shared VM whose effective CPU speed
moves by up to 2x within seconds and drifts by 1.3-1.7x over minutes
(neighbours; no steal time is reported, there are no hardware counters).
Ten runs of the same deterministic child then spread by 20-30%, beyond
any bound a regression gate could use.  So every timed interval is cut
into segments by *slices*: a fixed pure-Python workload (dict, list,
sort, str -- the interpreter work the program itself does), timed while
the program under test is not running: a child is paused (``SIGSTOP``)
a few times a second for a slice, a serve session takes one between
operations.  A segment's ``factor`` is the mean of the slices on either
side over the quiet-host reference, and the time reported for it is
``wall / factor``: seconds at reference speed.  On a quiet host the
factor is ~1 and nothing changes; the raw walls are printed beside it.

Never sample *while* the program runs: this VM's two vCPUs share one
core's worth of throughput, and a concurrent slice slows the child by a
third (measured).
"""

from __future__ import annotations

import statistics
import time

#: Median slice time on the quiet 2-vCPU authoring host (Xeon 2.1 GHz,
#: CPython 3.11).  A constant: only ratios between commits matter.
REF_SLICE_S = 0.0095


def slice_s() -> float:
    """Time one fixed slice of interpreter work (~9.5 ms at reference)."""
    start = time.perf_counter()
    counts: dict = {}
    pairs = []
    for i in range(40000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + i
        if not i & 3:
            pairs.append((key, i))
    pairs.sort()
    "".join(map(str, pairs[:1000]))
    return time.perf_counter() - start


def probe(n: int = 2) -> float:
    """Host slowness right now: median of ``n`` slices over reference."""
    return statistics.median(slice_s() for _ in range(n)) / REF_SLICE_S


class Normalizer:
    """Accumulates segments ``(wall, probe before, probe after)``."""

    def __init__(self) -> None:
        self.last = probe(3)
        self.wall_s = 0.0
        self.norm_s = 0.0

    def segment(self, wall: float) -> float:
        """Close a segment of ``wall`` seconds with a fresh probe; returns
        the segment's factor."""
        now = probe()
        factor = (self.last + now) / 2
        self.last = now
        self.wall_s += wall
        self.norm_s += wall / factor
        return factor

    @property
    def factor(self) -> float:
        """Overall slowness: measured wall over normalised wall."""
        return self.wall_s / self.norm_s if self.norm_s else self.last
