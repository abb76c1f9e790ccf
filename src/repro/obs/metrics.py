"""Metrics primitives: counters, gauges, fixed-bucket histograms.

The registry is deliberately small: values live in plain attributes so
hot paths can cache a metric object once and call ``inc``/``observe``
without dictionary traffic, and merging (the pipeline's two phases fold
into one run total) is exact -- histograms require identical bucket
boundaries, so a merged distribution is byte-for-byte the distribution
one registry would have recorded for the same observations.

Bucket boundaries are fixed at registration (Prometheus-style): bucket
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


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self):
        return self.value


class Gauge:
    """Point-in-time value; merge is last-set-wins."""

    __slots__ = ("name", "value", "updated")

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value
        self.updated = False

    def set(self, value: float) -> None:
        self.value = value
        self.updated = True

    def merge(self, other: "Gauge") -> None:
        if other.updated:
            self.value = other.value
            self.updated = True

    def snapshot(self):
        return self.value


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

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket edge at quantile ``q`` (conservative estimate)."""
        if not self.count:
            return 0.0
        target = q * self.count
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            if running >= target:
                return (
                    self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
                )
        return self.bounds[-1]

    def snapshot(self) -> dict:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms with exact merging."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- registration / access ------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, bounds: tuple | None = None) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            if bounds is None:
                raise KeyError(
                    f"histogram {name!r} is not registered and no bounds"
                    " were given"
                )
            metric = self.histograms[name] = Histogram(name, bounds)
        return metric

    def observe(self, name: str, value: float) -> None:
        """Record into a pre-registered histogram."""
        self.histograms[name].observe(value)

    # -- aggregation ----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other.gauges.items():
            self.gauge(name).merge(gauge)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram(name, hist.bounds)
            mine.merge(hist)

    def clone(self) -> "MetricsRegistry":
        fresh = MetricsRegistry()
        fresh.merge(self)
        return fresh

    def snapshot(self) -> dict:
        """JSON-ready view: ``{"counters": .., "gauges": .., "histograms": ..}``."""
        return {
            "counters": {
                name: metric.snapshot()
                for name, metric in sorted(self.counters.items())
            },
            "gauges": {
                name: metric.snapshot()
                for name, metric in sorted(self.gauges.items())
            },
            "histograms": {
                name: metric.snapshot()
                for name, metric in sorted(self.histograms.items())
            },
        }


def engine_metrics() -> MetricsRegistry:
    """The engine's standard histogram set (fixed boundaries, so the
    phases' registries always merge exactly)."""
    registry = MetricsRegistry()
    registry.histogram("solve_latency_s", LATENCY_BUCKETS_S)
    registry.histogram("pair_compute_s", LATENCY_BUCKETS_S)
    registry.histogram("prefetch_wait_s", LATENCY_BUCKETS_S)
    registry.histogram("pair_new_edges", SIZE_BUCKETS)
    return registry
