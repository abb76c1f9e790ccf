"""End-to-end equivalence against pre-columnar golden runs.

``golden/`` holds the canonicalised output (full edge sets with witness
encodings, plus checker warnings) of the dict-based engine on two
synthetic subjects, captured before the columnar-store refactor.  The
columnar engine must reproduce them exactly: the refactor is a
representation change, not a semantics change.

These are the tests that catch witness-cap order dependence and
fixpoint divergence that unit tests cannot see.
"""

import json

import pytest

from .oracle_capture import SUBJECTS, canonical_run, golden_path, run_subject


@pytest.mark.parametrize("name,scale", SUBJECTS)
def test_matches_pre_columnar_golden(name, scale):
    with open(golden_path(name, scale)) as f:
        golden = json.load(f)
    run = run_subject(name, scale)
    got = canonical_run(run)
    assert got["warnings"] == golden["warnings"]
    assert got["edges"] == golden["edges"]
