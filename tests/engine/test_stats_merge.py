"""Cross-phase stats aggregation (GrappleRun.stats / merge_phase)."""

from dataclasses import fields

from repro import Checker, Grapple, GrappleOptions
from repro.engine.stats import EngineStats


def test_merge_phase_pins_exact_values():
    a = EngineStats(
        iterations=3,
        pairs_processed=10,
        edges_before=100,
        edges_after=150,
        vertices=40,
        repartitions=1,
        final_partitions=2,
        pairs_skipped=7,
        constraints_solved=11,
        timed_out=False,
    )
    b = EngineStats(
        iterations=2,
        pairs_processed=4,
        edges_before=30,
        edges_after=60,
        vertices=10,
        repartitions=0,
        final_partitions=3,
        pairs_skipped=2,
        constraints_solved=9,
        timed_out=True,
    )
    merged = EngineStats()
    merged.merge_phase(a)
    merged.merge_phase(b)
    assert merged.iterations == 5
    assert merged.pairs_processed == 14
    assert merged.edges_before == 130
    assert merged.edges_after == 210
    assert merged.vertices == 50
    assert merged.repartitions == 1
    assert merged.final_partitions == 5
    # A counter the old hand-written merge silently dropped.
    assert merged.pairs_skipped == 9
    assert merged.constraints_solved == 20
    assert merged.timed_out is True


def test_merge_phase_covers_every_field():
    """A metadata-less field would break aggregation silently: every
    numeric field must change when merging a stats object built from
    distinct non-zero values."""
    donor = EngineStats()
    for index, f in enumerate(fields(EngineStats), start=1):
        kind = f.metadata.get("kind", "counter")
        if kind in ("counter", "gauge"):
            setattr(donor, f.name, index)
        elif kind == "flag":
            setattr(donor, f.name, True)
    merged = EngineStats()
    merged.merge_phase(donor)
    for index, f in enumerate(fields(EngineStats), start=1):
        kind = f.metadata.get("kind", "counter")
        if kind in ("counter", "gauge"):
            assert getattr(merged, f.name) == index, f.name
        elif kind == "flag":
            assert getattr(merged, f.name) is True, f.name


def test_run_stats_equals_phase_sums():
    source = """
    func main(x) {
        var w = new FileWriter();
        if (x > 0) { w.close(); }
        return x;
    }
    """
    io = Checker.by_name("io").fsm
    run = Grapple(source, [io], GrappleOptions(reduce=False)).run()
    merged = run.stats
    p1 = run.alias_phase.engine_result.stats
    p2 = run.dataflow_phase.engine_result.stats
    for f in fields(EngineStats):
        kind = f.metadata.get("kind", "counter")
        if kind in ("counter", "gauge"):
            assert getattr(merged, f.name) == (
                getattr(p1, f.name) + getattr(p2, f.name)
            ), f.name
        elif kind == "flag":
            assert getattr(merged, f.name) == (
                getattr(p1, f.name) or getattr(p2, f.name)
            ), f.name
