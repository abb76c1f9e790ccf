"""Names kept only for the committed benchmark harness; nothing runs here.

Partition I/O is synchronous and goes through one kind of file per
partition (:mod:`repro.engine.partition`): a load reads the partition
file, and edges that arrive for a partition nobody has loaded wait in
memory as its pending rows until the next load, or a durable checkpoint,
folds them in.  There is no reader thread and no delta file.

``benchmarks/harness/layers.py::WRAPS`` still names the methods below,
and its tests require every wrap target to exist, so each one stays as a
no-op that nothing in ``repro`` calls; their ``engine.io_pipeline``
layer reads 0.  They go with those ``WRAPS`` entries.
"""


def _harness_only(*args) -> None:
    """A no-op kept only because the committed benchmarks/harness wraps
    it (``layers.py::WRAPS``); drop it with those entries."""


class PrefetchReader:
    schedule = take = close = _harness_only


class SpillWriter:
    append = flush = close = _harness_only
