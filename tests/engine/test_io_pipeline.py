"""Tests for the background prefetch reader and the spill writer."""

import os

import pytest

from repro.engine import serialize
from repro.engine.columnar import EdgeColumns, EncodingTable
from repro.engine.io_pipeline import PrefetchReader, SpillWriter
from repro.engine.stats import EngineStats

EDGES = {1: {(2, 0): {(("I", "f", 0, 3),)}}}
DELTA = {5: {(6, 1): {0}}}  # id-encoded, as the store spills it


def rows(columns):
    return list(zip(columns.src, columns.dst, columns.label, columns.enc))


@pytest.fixture()
def part_file(tmp_path):
    path = str(tmp_path / "part.bin")
    with open(path, "wb") as f:
        f.write(EdgeColumns.from_dict(EDGES, EncodingTable()).encode())
    return path


def test_prefetch_hit(part_file, tmp_path):
    reader = PrefetchReader()
    try:
        reader.schedule(0, 3, part_file, str(tmp_path / "none.delta"))
        got = reader.take(0, 3)
        assert got is not None
        parsed, deltas, dropped, corrupt = got
        assert (list(parsed.src), list(parsed.dst), list(parsed.label),
                list(parsed.enc), parsed.n_encodings) == ([1], [2], [0], [0], 1)
        assert deltas == []
        assert (dropped, corrupt) == (0, 0)
        # An entry can be claimed only once.
        assert reader.take(0, 3) is None
    finally:
        reader.close()


def test_prefetch_version_mismatch_is_miss(part_file, tmp_path):
    reader = PrefetchReader()
    try:
        reader.schedule(0, 3, part_file, str(tmp_path / "none.delta"))
        assert reader.take(0, 4) is None  # partition was written since
    finally:
        reader.close()


def test_prefetch_reads_delta_frames_without_consuming(part_file, tmp_path):
    delta_path = str(tmp_path / "part.delta")
    payload = serialize.encode_partition(DELTA, 1)
    with open(delta_path, "wb") as f:
        f.write(serialize.encode_frame(payload))
    reader = PrefetchReader()
    try:
        reader.schedule(0, 1, part_file, delta_path)
        parsed, deltas, dropped, corrupt = reader.take(0, 1)
        assert [rows(delta) for delta in deltas] == [[(5, 6, 1, 0)]]
        assert (dropped, corrupt) == (0, 0)
        assert os.path.exists(delta_path)  # consumer owns the file
    finally:
        reader.close()


def test_prefetch_reports_lost_delta_frames_instead_of_raising(
        part_file, tmp_path):
    """Damage in a delta file is the store's to salvage: the read hits
    and carries the counts; only an unreadable partition file raises."""
    delta_path = str(tmp_path / "part.delta")
    good = serialize.encode_frame(serialize.encode_partition(DELTA, 1))
    bad = bytearray(good)
    bad[-1] ^= 0xFF
    with open(delta_path, "wb") as f:
        f.write(bytes(bad) + good + good[:-3])
    reader = PrefetchReader()
    try:
        reader.schedule(0, 1, part_file, delta_path)
        _parsed, deltas, dropped, corrupt = reader.take(0, 1)
        assert [rows(delta) for delta in deltas] == [[(5, 6, 1, 0)]]
        assert (dropped, corrupt) == (1, 1)
    finally:
        reader.close()


def test_prefetch_missing_file_is_miss(tmp_path):
    reader = PrefetchReader()
    try:
        reader.schedule(0, 1, str(tmp_path / "absent.bin"),
                        str(tmp_path / "absent.delta"))
        assert reader.take(0, 1) is None
    finally:
        reader.close()


def test_prefetch_unexpected_error_raises_at_take(part_file, tmp_path,
                                                  monkeypatch):
    """A programming error on the reader thread must not degrade to a
    benign miss: take() re-raises it and the reader counts it."""
    def boom(data):
        raise TypeError("not an I/O race")

    monkeypatch.setattr(serialize, "parse_columnar", boom)
    reader = PrefetchReader()
    try:
        reader.schedule(0, 3, part_file, str(tmp_path / "none.delta"))
        with pytest.raises(TypeError, match="not an I/O race"):
            reader.take(0, 3)
        assert reader.errors == 1
    finally:
        reader.close()


def test_prefetch_oserror_still_benign_miss(part_file, tmp_path,
                                            monkeypatch):
    def denied(data):
        raise OSError("transient")

    monkeypatch.setattr(serialize, "parse_columnar", denied)
    reader = PrefetchReader()
    try:
        reader.schedule(0, 3, part_file, str(tmp_path / "none.delta"))
        assert reader.take(0, 3) is None
        assert reader.errors == 0
    finally:
        reader.close()


def test_prefetch_invalidate(part_file, tmp_path):
    reader = PrefetchReader()
    try:
        reader.schedule(0, 1, part_file, str(tmp_path / "none.delta"))
        reader.invalidate(0)
        assert reader.take(0, 1) is None
    finally:
        reader.close()


def test_store_counts_prefetch_errors_and_reraises(tmp_path, monkeypatch):
    from repro.engine.partition import PartitionStore
    from repro.engine.stats import EngineStats

    store = PartitionStore(str(tmp_path), memory_budget=1 << 20,
                           stats=EngineStats(), cache_slots=1,
                           prefetch=PrefetchReader())
    try:
        store.initialize({1: {(2, 0): {(("I", "f", 0, 3),)}},
                          60: {(61, 0): {(("I", "g", 0, 0),)}}},
                         num_vertices=100, min_partitions=2)
        target = store.partitions[0]
        store._evict(target.index)  # new partitions start out resident
        monkeypatch.setattr(
            serialize, "parse_columnar",
            lambda data: (_ for _ in ()).throw(TypeError("boom")),
        )
        store.prefetch_schedule(target)
        with pytest.raises(TypeError, match="boom"):
            store.load(target)
        assert store.stats.prefetch_errors == 1
    finally:
        store.drop_pipeline()


@pytest.mark.parametrize("flush_each", [False, True])
def test_spill_writer_roundtrip(tmp_path, flush_each):
    path = str(tmp_path / "spill.delta")
    stats = EngineStats()
    writer = SpillWriter(stats)
    chunks = [
        serialize.encode_partition({i: {(i + 1, 0): {i, 7}}}, 8)
        for i in range(5)
    ]
    for chunk in chunks:
        writer.append(path, chunk)
        if flush_each:
            writer.flush(path)
    writer.flush(path)
    with open(path, "rb") as f:
        data = f.read()
    payloads, dropped, corrupt = serialize.split_frames(data)
    assert (dropped, corrupt) == (0, 0)
    assert payloads == chunks
    assert [rows(serialize.decode_partition(p)) for p in payloads] == [
        [(i, i + 1, 0, i), (i, i + 1, 0, 7)] for i in range(5)
    ]
    writer.close()
    assert stats.spill_frames == 5
    assert stats.spill_bytes == len(data)


def test_spill_writer_failed_write_raises_at_append(tmp_path):
    """No thread, no relay: the caller sees the error and nothing is
    counted."""
    stats = EngineStats()
    writer = SpillWriter(stats)
    with pytest.raises(OSError):
        writer.append(str(tmp_path / "no-such-dir" / "x.delta"), b"payload")
    assert (stats.spill_frames, stats.spill_bytes) == (0, 0)
