"""Tests for the resource telemetry sampler (repro.obs.profile).

Covers the sampler's thread lifecycle and provider protocol, the
columnar export shape, and the PR 3 zero-cost invariant: a run with
profiling off starts no sampler thread and its run report carries no
telemetry key.
"""

import threading
import time

import pytest

from repro import EngineOptions, Grapple, GrappleOptions, default_checkers
from repro.obs.profile import GcWatch, ResourceSampler, read_rss_bytes
from repro.obs.report import validate_run_report
from repro.workloads import build_subject


def test_read_rss_bytes_is_positive():
    rss = read_rss_bytes()
    assert rss is not None and rss > 1 << 20  # a CPython process is >1MB


def test_sampler_thread_lifecycle():
    sampler = ResourceSampler(interval=0.01)
    assert not sampler.running
    sampler.start()
    assert sampler.running
    [thread] = [
        t for t in threading.enumerate() if t.name == "grapple-sampler"
    ]
    assert thread.daemon
    sampler.start()  # idempotent: no second thread
    assert (
        sum(1 for t in threading.enumerate() if t.name == "grapple-sampler")
        == 1
    )
    deadline = time.time() + 2.0
    while sampler.timeseries()["samples"] < 3 and time.time() < deadline:
        time.sleep(0.01)
    sampler.stop()
    assert not sampler.running
    assert not any(
        t.name == "grapple-sampler" for t in threading.enumerate()
    )
    doc = sampler.timeseries()
    assert doc["samples"] >= 3  # stop() takes a final sample
    assert doc["coordinator"]["t_s"] == sorted(doc["coordinator"]["t_s"])


def test_providers_are_polled_and_failures_record_none():
    sampler = ResourceSampler(interval=0.01)
    sampler.bind("occupancy", lambda: 0.5)

    def dying():
        raise RuntimeError("store torn down")

    sampler.bind("doomed", dying)
    sampler.sample_once()
    doc = sampler.timeseries()
    series = doc["coordinator"]["series"]
    assert series["occupancy"] == [0.5]
    assert series["doomed"] == [None]
    assert series["rss_bytes"][0] > 0
    sampler.unbind("doomed")
    sampler.sample_once()
    assert sampler.timeseries()["coordinator"]["series"]["doomed"] == [
        None, None,
    ]  # column padded for the row recorded after unbind


def test_late_bound_provider_pads_earlier_rows():
    sampler = ResourceSampler(interval=0.01)
    sampler.sample_once()
    sampler.bind("late", lambda: 7)
    sampler.sample_once()
    series = sampler.timeseries()["coordinator"]["series"]
    assert series["late"] == [None, 7]


def test_sample_cap_drops_not_grows():
    sampler = ResourceSampler(interval=0.01, max_samples=2)
    for _ in range(5):
        sampler.sample_once()
    doc = sampler.timeseries()
    assert doc["samples"] == 2
    assert doc["dropped"] == 3


def test_gc_watch_counts_pauses():
    import gc

    watch = GcWatch()
    watch.install()
    try:
        gc.collect()
    finally:
        watch.uninstall()
    summary = watch.summary()
    assert summary["pauses"] >= 1
    assert summary["pause_s"] >= 0.0
    assert summary["max_pause_s"] <= summary["pause_s"] + 1e-9
    # uninstall really detached the callback
    before = watch.pauses
    gc.collect()
    assert watch.pauses == before


@pytest.mark.parametrize("automatic", [True, False])
def test_gc_watch_says_whether_collection_was_automatic(
    automatic, collector_state
):
    """Zero pauses with the collector off is a reading, not a gap."""
    import gc

    watch = GcWatch()
    assert watch.summary()["automatic"] is None  # never installed
    (gc.enable if automatic else gc.disable)()
    watch.install()
    watch.uninstall()
    (gc.disable if automatic else gc.enable)()
    # Sampled at install; the collector's later state does not rewrite it.
    assert watch.summary()["automatic"] is automatic
    sampler = ResourceSampler(interval=0.01)
    sampler.gc_watch = watch
    sampler.sample_once()
    report = {"telemetry": sampler.timeseries()}
    assert report["telemetry"]["gc"]["automatic"] is automatic
    assert _telemetry_errors(report) == []
    report["telemetry"]["gc"]["automatic"] = "no"
    assert _telemetry_errors(report) == [
        "telemetry.gc.automatic is not a boolean"
    ]


def _telemetry_errors(report):
    return [e for e in validate_run_report(report) if "telemetry" in e]


# -- zero-cost when disabled (the PR 3 invariant) ------------------------------


def test_profiling_off_starts_no_sampler_and_adds_no_report_keys(monkeypatch):
    def forbidden(self):
        raise AssertionError(
            "ResourceSampler.start() called with profiling off"
        )

    monkeypatch.setattr(ResourceSampler, "start", forbidden)
    source = build_subject("zookeeper", scale=0.3).source
    options = GrappleOptions(
        engine=EngineOptions(memory_budget=4 << 20)
    )
    assert options.engine.sampler is None  # profiling is opt-in
    fsms = [c.fsm for c in default_checkers()]
    run = Grapple(source, fsms, options).run()
    assert not any(
        t.name == "grapple-sampler" for t in threading.enumerate()
    )
    report = run.run_report(subject="zookeeper")
    assert "telemetry" not in report
    assert validate_run_report(report) == []


def test_engine_records_telemetry_when_sampler_given():
    sampler = ResourceSampler(interval=0.01)
    source = build_subject("zookeeper", scale=0.3).source
    options = GrappleOptions(
        engine=EngineOptions(memory_budget=4 << 20, sampler=sampler)
    )
    fsms = [c.fsm for c in default_checkers()]
    run = Grapple(source, fsms, options).run()
    sampler.stop()
    telemetry = sampler.timeseries()
    assert telemetry["samples"] >= 1
    series = telemetry["coordinator"]["series"]
    # The engine bound its providers during the run.
    assert "partition_cache_occupancy" in series
    assert "eligible_pairs" in series
    assert any(v is not None for v in series["partition_cache_occupancy"])
    report = run.run_report(subject="zookeeper", telemetry=telemetry)
    assert report["version"] == 2
    assert validate_run_report(report) == []
    assert report["telemetry"]["samples"] == telemetry["samples"]
