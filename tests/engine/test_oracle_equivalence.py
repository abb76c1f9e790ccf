"""End-to-end equivalence against pre-columnar golden runs.

``golden/`` holds the canonicalised output (full edge sets with witness
encodings, plus checker warnings) of the dict-based engine on two
synthetic subjects, captured before the columnar-store refactor.  The
columnar engine must reproduce them exactly: the refactor is a
representation change, not a semantics change.

These are the tests that catch witness-cap order dependence and
fixpoint divergence that unit tests cannot see.

The goldens predate the re-associated points-to grammar (DESIGN.md §3,
"V-shaped compositions"), which derives ``storeBar``/``fs``/``fsBar``
edges where Figure 4b's bracketing derived ``flowsToBar``/``alias``
ones.  The files stay as captured: every edge whose label both grammars
have must still match, in order and with its encoding, and the labels
only one side has are pinned with their edge counts.
"""

import collections
import json

import pytest

from .oracle_capture import SUBJECTS, canonical_run, golden_path, run_subject

#: ``(golden-only, current-only)`` label -> edge count, per subject.
GRAMMAR_DELTA = {
    ("zookeeper", 0.4): ({"alias": 21695, "flowsToBar": 2677}, {}),
    ("hdfs", 0.4): (
        {"alias": 6170, "flowsToBar": 1030},
        {"storeBar": 25, "fs": 25, "fsBar": 25},
    ),
}


def _by_label(edges):
    return collections.Counter(edge[3][0] for edge in edges)


@pytest.mark.parametrize("name,scale", SUBJECTS)
def test_matches_pre_columnar_golden(name, scale):
    with open(golden_path(name, scale)) as f:
        golden = json.load(f)
    run = run_subject(name, scale)
    got = canonical_run(run)
    assert got["warnings"] == golden["warnings"]
    was, now = _by_label(golden["edges"]), _by_label(got["edges"])
    assert (
        {label: n for label, n in was.items() if label not in now},
        {label: n for label, n in now.items() if label not in was},
    ) == GRAMMAR_DELTA[(name, scale)]
    shared = set(was) & set(now)
    assert [e for e in got["edges"] if e[3][0] in shared] == [
        e for e in golden["edges"] if e[3][0] in shared
    ]
