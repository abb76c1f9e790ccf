"""End-to-end property-pack accounting on the multi-file workload.

The acceptance bar: the gateway subject runs through resolution,
reduction, and all three packs with *exact* TP/FP — zero unexplained
warnings — and the accounting is byte-identical across reduce on/off,
worker counts, and file discovery order.
"""

import json
import os

import pytest

from repro.workloads.multifile import (
    MULTIFILE_PROFILES,
    build_multifile_subject,
    generate_multifile_subject,
    pack_accounting,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "property_packs.json")


def test_generator_is_deterministic():
    a = build_multifile_subject("gateway")
    b = build_multifile_subject("gateway")
    assert a.sources == b.sources
    assert a.seeds == b.seeds
    assert len(a.sources) >= 3
    assert a.loc >= MULTIFILE_PROFILES["gateway"].target_loc


def test_gateway_accounting_is_exact():
    accounting = pack_accounting("gateway")
    assert accounting["unexpected"] == []
    assert accounting["warnings"] == accounting["seeded"]
    for checker, row in accounting["by_checker"].items():
        assert row["missed"] == 0, (checker, row)
    total_tp = sum(r["tp"] for r in accounting["by_checker"].values())
    total_fp = sum(r["fp"] for r in accounting["by_checker"].values())
    assert total_tp + total_fp == accounting["seeded"]
    # Every pack contributes both kinds of evidence.
    assert set(accounting["by_checker"]) == {
        "taint", "order", "iterator", "lockdep"
    }
    # The deliberate extern calls are the only unresolved references.
    assert accounting["scopes"]["unresolved_refs"] == 3
    assert accounting["scopes"]["ambiguous_refs"] == 0


def test_accounting_matches_committed_golden():
    with open(GOLDEN) as f:
        golden = json.load(f)
    fresh = json.loads(json.dumps(pack_accounting("gateway")))
    assert fresh == golden


@pytest.mark.parametrize("reduce_on", [True, False])
def test_reduce_on_off_identical(reduce_on):
    baseline = pack_accounting("gateway")
    other = pack_accounting("gateway", reduce=reduce_on)
    assert other == baseline


def test_file_order_permutation_identical():
    subject = build_multifile_subject("gateway")
    ordered = list(subject.sources.items())
    reversed_accounting = pack_accounting(
        "gateway", sources=list(reversed(ordered))
    )
    assert reversed_accounting == pack_accounting("gateway")


def test_profile_scaling_smoke():
    profile = MULTIFILE_PROFILES["gateway"]
    subject = generate_multifile_subject(profile)
    # Allocation always lives in core so cross-module warnings point at
    # qualified symbols; every seed names a core function.
    assert all(s.func.startswith("core.") for s in subject.seeds)


def test_scale_one_is_byte_identical_to_default():
    base = build_multifile_subject("gateway")
    scaled = build_multifile_subject("gateway", scale=1.0)
    assert scaled.sources == base.sources
    assert scaled.seeds == base.seeds


def test_scaled_subject_grows_independent_clusters():
    from repro.workloads.multifile import CLUSTER_CHAIN_DEPTH

    base = build_multifile_subject("gateway")
    subject = build_multifile_subject("gateway", scale=4.0)
    files_per_cluster = 3 + CLUSTER_CHAIN_DEPTH + 2
    assert len(subject.sources) == 4 * files_per_cluster  # tens of modules
    assert len(subject.seeds) == 4 * len(base.seeds)
    # Every file carries a distinct non-root module header: clusters
    # share no namespace, so they land in separate dependency strata.
    headers = [text.splitlines()[0] for text in subject.sources.values()]
    assert len(set(headers)) == len(headers)
    assert all(h.startswith("module g") for h in headers)
    # Deep import chain and re-export diamond are present per cluster.
    for k in range(4):
        assert f"g{k}mid{CLUSTER_CHAIN_DEPTH - 1}.mini" in subject.sources
        for side in ("left", "right"):
            assert f"import g{k}core.g{k}_shared;" \
                in subject.sources[f"g{k}{side}.mini"]
    # Deterministic.
    assert build_multifile_subject("gateway", scale=4.0).sources \
        == subject.sources


def test_scaled_subject_accounting_is_exact():
    """The scaled clusters link, check, and classify cleanly: every
    cluster reproduces the full pack accounting under its own names."""
    from repro.analysis.pipeline import Grapple
    from repro.checkers.checker import pack_checkers
    from repro.workloads.bugs import classify_report

    subject = build_multifile_subject("gateway", scale=2.0)
    run = Grapple(
        subject.sources, [c.fsm for c in pack_checkers()]
    ).run()
    outcome = classify_report(subject.seeds, run.report)
    assert outcome.unexpected == []
    assert sum(outcome.missed.values()) == 0
    assert len(run.report) == len(subject.seeds)
    res = run.compiled.resolution
    assert res.stats.ambiguous_refs == 0
    # The diamond converges: both wrappers bind to the one shared def.
    assert res.bindings[("g0left.mini", "g0_shared")] == "g0core.g0_shared"
    assert res.bindings[("g0right.mini", "g0_shared")] == "g0core.g0_shared"


def test_artifact_cache_rederives_exactly_one_artifact_per_edit():
    from repro.sa.scopes import ScopeArtifactCache, load_modules

    subject = build_multifile_subject("gateway", scale=3.0)
    cache = ScopeArtifactCache()
    cold = load_modules(subject.sources, cache=cache)
    assert cold.resolution.stats.artifact_cache_misses == len(subject.sources)
    sources = dict(subject.sources)
    for victim in ("g0core.mini", "g1app.mini", "g2mid1.mini"):
        sources[victim] += "func edited_pad(v) {\n    return v;\n}\n"
        loaded = load_modules(sources, cache=cache)
        stats = loaded.resolution.stats
        # Exactly the edited file re-derives; everything else hits.
        assert stats.artifact_cache_misses == 1, victim
        assert stats.artifact_cache_hits == len(sources) - 1, victim
