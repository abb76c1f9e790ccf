"""Compound conditions keep their verdicts.

The corpus (:mod:`tests.cfet.compound_corpus`) branches on ``&&``,
``||`` and ``!``; its golden was recorded while the solver still decided
arbitrary boolean formulas, before the CFET split compound conditions
into one branch per operand.
"""

import json
import pathlib

import pytest

from tests.cfet.compound_corpus import SEEDS, program, warning_lines

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "compound_corpus.json").read_text()
)


def test_golden_covers_every_seed():
    assert sorted(GOLDEN, key=int) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_compound_conditions_keep_their_warnings(seed):
    assert warning_lines(program(seed)) == GOLDEN[str(seed)]
