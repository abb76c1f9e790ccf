"""Fixed-bucket histograms: the engine's latency and size distributions.

The run's :class:`~repro.obs.trace.TraceRecorder` keeps them in a plain
``{name: Histogram}`` dict (:func:`engine_metrics`), fed at the end of
the spans :data:`~repro.obs.trace.OBSERVED` names; a run reads what
they gained during it (:meth:`Histogram.since`).  Merging is exact:
histograms require identical bucket boundaries, so a merged
distribution is byte-for-byte the distribution one histogram would
have recorded for the same observations.

Bucket boundaries are fixed at construction (Prometheus-style): bucket
``i`` counts observations ``<= bounds[i]``'s upper edge, with one
overflow bucket past the last boundary.  Fixed boundaries are what make
cross-phase merges and cross-run comparisons meaningful.
"""

from __future__ import annotations

from bisect import bisect_left

#: Default latency boundaries (seconds): 100us .. 5s, roughly log-spaced.
LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default size boundaries (counts): 1 .. 100k, roughly log-spaced.
SIZE_BUCKETS = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
)


class Histogram:
    """Fixed-boundary histogram: counts, sum, and observation count."""

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: tuple):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r}: bounds must be sorted")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge differing bucket"
                f" boundaries {other.bounds!r} into {self.bounds!r}"
            )
        counts = self.counts
        for i, c in enumerate(other.counts):
            counts[i] += c
        self.total += other.total
        self.count += other.count

    def mark(self) -> tuple:
        """What :meth:`since` subtracts: the observations so far."""
        return self.counts[:], self.total, self.count

    def since(self, mark: tuple) -> "Histogram":
        """A histogram of the observations made after ``mark``."""
        counts, total, count = mark
        later = Histogram(self.name, self.bounds)
        later.counts = [a - b for a, b in zip(self.counts, counts)]
        later.total = self.total - total
        later.count = self.count - count
        return later

    def snapshot(self) -> dict:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


def engine_metrics() -> dict[str, Histogram]:
    """The engine's standard histogram set (fixed boundaries, so the
    phases' histograms always merge exactly)."""
    return {
        name: Histogram(name, bounds)
        for name, bounds in (
            ("solve_latency_s", LATENCY_BUCKETS_S),
            ("pair_compute_s", LATENCY_BUCKETS_S),
            ("pair_new_edges", SIZE_BUCKETS),
        )
    }
