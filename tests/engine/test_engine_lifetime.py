"""The batch pipeline makes no cyclic garbage (DESIGN §17).

``repro check`` runs with automatic cycle collection off, which is only
free in memory while everything the closure phases discard -- the two
``GraphEngine``s with their verdict cache, memo tables, ``FormPieces``
and solver -- dies by reference count.  These tests are the tripwire: a
new cycle through the engine fails here before it shows up as RSS.
"""

import gc
import weakref

import pytest

from repro import EngineOptions, Grapple, GrappleOptions, default_checkers
from repro.analysis import pipeline
from repro.checkers.checker import pack_checkers
from repro.engine.computation import GraphEngine
from repro.workloads import build_subject
from repro.workloads.multifile import build_multifile_subject

from tests.engine.test_computation import (  # noqa: F401 - icfet is a fixture
    ChainGrammar,
    build_chain,
    icfet,
)


def test_engine_is_freed_by_refcount_alone(icfet, collector_state):
    gc.collect()
    gc.disable()
    engine = GraphEngine(
        icfet, ChainGrammar(), EngineOptions(memory_budget=1 << 20)
    )
    result = engine.run(build_chain(6, icfet))
    assert result.stats.edges_after == 15
    ref = weakref.ref(engine)
    del engine
    assert ref() is None, "a reference cycle keeps the GraphEngine alive"


def _zookeeper():
    return build_subject("zookeeper", scale=1).source, default_checkers()


def _gateway():
    return build_multifile_subject("gateway", scale=1).sources, pack_checkers()


@pytest.mark.parametrize(
    "subject, budget, leaves_memory",
    [
        (_zookeeper, 64 << 20, False),
        (_zookeeper, 128 << 10, True),
        (_gateway, 64 << 20, False),
    ],
    ids=["zookeeper-64MiB", "zookeeper-128KiB", "gateway-64MiB"],
)
def test_closure_phases_leave_no_cyclic_garbage(
    subject, budget, leaves_memory, monkeypatch, collector_state
):
    unreachable = []
    alias_phase, report = pipeline.run_alias_phase, pipeline.extract_report

    def frontend_done(*args, **kwargs):
        # Set the frontend's objects aside: from here on, whatever a
        # collection finds was made -- and dropped -- by the two phases.
        gc.collect()
        gc.freeze()
        gc.disable()
        return alias_phase(*args, **kwargs)

    def phases_done(*args, **kwargs):
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        unreachable.extend(gc.garbage)
        gc.garbage.clear()
        gc.set_debug(0)
        return report(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_alias_phase", frontend_done)
    monkeypatch.setattr(pipeline, "extract_report", phases_done)
    source, checkers = subject()
    run = Grapple(
        source, [c.fsm for c in checkers],
        GrappleOptions(engine=EngineOptions(memory_budget=budget)),
    ).run()
    assert run.report.warnings
    stats = run.stats
    assert (stats.partition_writes > 0) == leaves_memory
    if leaves_memory:
        assert stats.repartitions > 0
    # Before the engine dropped its compose context: 26 648 / 22 053
    # objects on zookeeper (64 MiB / 128 KiB), 1 332 on gateway.
    ours = sorted(
        {
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in unreachable
            if type(obj).__module__.startswith("repro")
        }
    )
    assert not unreachable, (
        f"{len(unreachable)} unreachable objects, of repro types {ours}"
    )
