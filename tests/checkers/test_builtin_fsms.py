"""The built-in FSMs, parsed from ``builtin.fsm``, pinned to the tables
they replaced (``golden/builtin_fsms.json``)."""

import json
from importlib import resources
from pathlib import Path

from repro.checkers.checker import ALL_CHECKERS

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "builtin_fsms.json").read_text()
)


def _declared_types(text):
    """Each block's ``types`` words in file order (the parsed FSM holds a
    frozenset, whose iteration order follows insertion order)."""
    declared = {}
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["fsm"]:
            name = words[1]
            declared[name] = []
        elif words[:1] == ["types"]:
            declared[name] += words[1:]
    return declared


def test_builtin_fsms_equal_the_golden_tables():
    assert list(ALL_CHECKERS) == [pin["name"] for pin in GOLDEN]
    for pin in GOLDEN:
        fsm = ALL_CHECKERS[pin["name"]]
        assert fsm.name == pin["name"]
        assert fsm.types == frozenset(pin["types"])
        assert fsm.initial == pin["initial"]
        assert [
            [src, event, dst] for (src, event), dst in fsm.transitions.items()
        ] == pin["transitions"]
        assert sorted(fsm.accepting) == pin["accepting"]
        assert sorted(fsm.error_states) == pin["error_states"]


def test_builtin_types_keep_the_golden_order():
    text = resources.files("repro.checkers").joinpath("builtin.fsm")
    declared = _declared_types(text.read_text())
    assert declared == {pin["name"]: pin["types"] for pin in GOLDEN}
