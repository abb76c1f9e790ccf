"""Unit tests for the synthetic workload generator and classification."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.checkers.report import Report, Warning
from repro.lang.parser import parse_program
from repro.workloads import (
    SUBJECT_PROFILES,
    SeededBug,
    build_subject,
    classify_report,
    generate_subject,
)
from repro.workloads.generator import SubjectProfile
from repro.workloads.multifile import (
    MULTIFILE_PROFILES,
    generate_multifile_subject,
)
from repro.workloads.patterns import CLEAN_PATTERNS, FP_PATTERNS, TP_PATTERNS


def small_profile(**bugs):
    return SubjectProfile(
        name="tiny",
        version="0.0",
        description="test subject",
        target_loc=120,
        bugs=bugs or {"io": (1, 0)},
        seed=7,
    )


def test_generated_source_parses():
    subject = generate_subject(small_profile())
    program = parse_program(subject.source)
    assert len(program.functions) > 3


def test_generation_is_deterministic():
    a = generate_subject(small_profile())
    b = generate_subject(small_profile())
    assert a.source == b.source
    assert a.seeds == b.seeds


def test_seed_counts_match_request():
    subject = generate_subject(
        small_profile(io=(2, 1), exception=(3, 0), socket=(1, 1))
    )
    by = {}
    for seed in subject.seeds:
        key = (seed.checker, seed.expectation)
        by[key] = by.get(key, 0) + 1
    assert by[("io", "tp")] == 2
    assert by[("io", "fp")] == 1
    assert by[("exception", "tp")] == 3
    assert by[("socket", "tp")] == 1
    assert by[("socket", "fp")] == 1


def test_target_loc_reached():
    profile = small_profile()
    profile.target_loc = 400
    subject = generate_subject(profile)
    assert subject.loc >= 400


def test_all_pattern_templates_parse():
    import random

    rng = random.Random(1)
    templates = [t for ts in TP_PATTERNS.values() for t in ts]
    templates += [t for ts in FP_PATTERNS.values() for t in ts]
    templates += CLEAN_PATTERNS
    for i, template in enumerate(templates):
        source, seeds = template(f"pat{i}", rng)
        parse_program(source)
        for seed in seeds:
            assert seed.expectation in ("tp", "fp")


def test_subject_profiles_match_paper_table2():
    zk = SUBJECT_PROFILES["zookeeper"].bugs
    assert zk["exception"] == (59, 0) and zk["io"] == (2, 0)
    hbase = SUBJECT_PROFILES["hbase"].bugs
    assert hbase["exception"] == (176, 8) and hbase["io"] == (15, 2)
    totals = {}
    for name, profile in SUBJECT_PROFILES.items():
        tp = sum(t for t, _f in profile.bugs.values())
        fp = sum(f for _t, f in profile.bugs.values())
        totals[name] = (tp, fp)
    assert totals == {
        "zookeeper": (65, 0),
        "hadoop": (54, 2),
        "hdfs": (49, 5),
        "hbase": (191, 10),
    }
    # Paper: 376 warnings, 17 false positives, 359 true bugs.
    assert sum(t + f for t, f in totals.values()) == 376
    assert sum(f for _t, f in totals.values()) == 17


def test_build_subject_scaling():
    small = build_subject("zookeeper", scale=0.1)
    assert small.loc < SUBJECT_PROFILES["zookeeper"].target_loc
    with pytest.raises(KeyError):
        build_subject("cassandra")


def test_subject_loc_ordering_follows_paper():
    locs = {
        name: SUBJECT_PROFILES[name].target_loc
        for name in ("zookeeper", "hadoop", "hdfs", "hbase")
    }
    assert locs["zookeeper"] < locs["hdfs"] <= locs["hadoop"] < locs["hbase"]


# -- classification ------------------------------------------------------------


def _warning(checker, func):
    return Warning(
        checker=checker,
        kind="at-exit",
        site=0,
        type_name="FileWriter",
        state="Open",
        func=func,
        line=1,
    )


def test_classify_tp_fp_and_missed():
    seeds = [
        SeededBug("io", "f1", "tp", "p"),
        SeededBug("io", "f2", "fp", "p"),
        SeededBug("io", "f3", "tp", "p"),
    ]
    report = Report()
    report.add(_warning("io", "f1"))
    report.add(_warning("io", "f2"))
    cls = classify_report(seeds, report)
    assert cls.tp == {"io": 1}
    assert cls.fp == {"io": 1}
    assert cls.missed == {"io": 1}
    assert cls.unexpected == []


def test_classify_unexpected_warning():
    cls = classify_report([], ReportWith(_warning("io", "clean_fn")))
    assert len(cls.unexpected) == 1


def ReportWith(*warnings):
    report = Report()
    for w in warnings:
        report.add(w)
    return report


def test_classify_counts_each_site_once():
    seeds = [SeededBug("io", "f1", "tp", "p")]
    report = Report()
    report.add(_warning("io", "f1"))
    report.add(
        Warning(
            checker="io", kind="error-transition", site=0,
            type_name="FileWriter", state="Error", func="f1", line=1,
        )
    )
    cls = classify_report(seeds, report)
    assert cls.tp == {"io": 1}


@pytest.mark.parametrize("name, scale, digest", [
    ("hadoop", 4, "cd488593ee62d9633f8dd600ade9feef"),
    ("gateway", 16, "95ebb032779dcc0a72cc4d498dd3f972"),
])
def test_generated_sources_are_pinned(name, scale, digest):
    """The benchmark's inputs, byte for byte: the padding loop counts
    lines as it goes, and must stop at exactly the piece it always did."""
    if name == "hadoop":
        base = SUBJECT_PROFILES["hadoop"]
        text = generate_subject(replace(
            base, seed=0, target_loc=max(200, int(base.target_loc * scale)),
        )).source
    else:
        sources = generate_multifile_subject(
            replace(MULTIFILE_PROFILES[name], seed=0), scale=scale
        ).sources
        text = json.dumps(sources, sort_keys=True)
    assert hashlib.md5(text.encode()).hexdigest() == digest
