"""Text format for FSM property specifications.

The paper's workflow: "it took one developer one day to read the related
API information to acquire these FSMs" -- users write FSMs, Grapple checks
them.  This module gives FSMs a plain-text surface so checkers can be
specified without writing Python::

    fsm io
    types FileWriter FileReader
    initial Open
    accepting Closed
    error Error

    Open   -write->  Open
    Open   -close->  Closed
    Closed -write->  Error
    Closed -close->  Closed

Blank lines and ``#`` comments are ignored.  A file may contain several
``fsm`` blocks.  The built-in checkers are such a file, ``builtin.fsm``
(read by :mod:`repro.checkers.checker`), so every FSM a run checks goes
through :func:`parse_fsm_specs`.
"""

from __future__ import annotations

from repro.checkers.fsm import FSM, FsmError, make_fsm


class SpecError(ValueError):
    """Raised on a malformed FSM specification."""


def parse_fsm_specs(text: str) -> list[FSM]:
    """Parse one or more FSM blocks from spec text.

    Every :class:`SpecError` names the offending line.  Beyond shape
    errors, the parser rejects: two ``fsm`` blocks with the same name,
    the same ``(state, event)`` transition declared twice (the second
    declaration would silently win otherwise), and transitions out of a
    state the block never introduces elsewhere (not the initial state,
    not accepting, not an error state, and never a transition target --
    almost always a typo, since no object can ever be in that state).
    """
    fsms: list[FSM] = []
    seen_names: dict[str, int] = {}
    block: dict | None = None

    def finish() -> None:
        nonlocal block
        if block is None:
            return
        at = block["line"]
        for required in ("name", "types", "initial", "accepting"):
            if not block.get(required):
                raise SpecError(
                    f"line {at}: fsm {block.get('name', '?')!r}:"
                    f" missing {required!r}"
                )
        declared = {block["initial"]}
        declared.update(block["accepting"])
        declared.update(block["errors"])
        declared.update(block["transitions"].values())
        for (src, event), tline in block["tlines"].items():
            if src not in declared:
                raise SpecError(
                    f"line {tline}: fsm {block['name']!r}: transition from"
                    f" undeclared state {src!r} (not initial, accepting,"
                    f" error, or any transition's target)"
                )
        try:
            fsms.append(
                make_fsm(
                    name=block["name"],
                    types=block["types"],
                    initial=block["initial"],
                    transitions=block["transitions"],
                    accepting=block["accepting"],
                    error_states=block["errors"],
                )
            )
        except FsmError as error:
            raise SpecError(f"line {at}: {error}") from error
        block = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        keyword = words[0]
        if keyword == "fsm":
            finish()
            if len(words) != 2:
                raise SpecError(f"line {lineno}: 'fsm' takes exactly one name")
            if words[1] in seen_names:
                raise SpecError(
                    f"line {lineno}: duplicate fsm name {words[1]!r}"
                    f" (first declared on line {seen_names[words[1]]})"
                )
            seen_names[words[1]] = lineno
            block = {
                "name": words[1],
                "line": lineno,
                "types": [],
                "initial": None,
                "accepting": [],
                "errors": [],
                "transitions": {},
                "tlines": {},
            }
            continue
        if block is None:
            raise SpecError(f"line {lineno}: content before any 'fsm' block")
        if keyword == "types":
            block["types"].extend(words[1:])
        elif keyword == "initial":
            if len(words) != 2:
                raise SpecError(f"line {lineno}: 'initial' takes one state")
            block["initial"] = words[1]
        elif keyword == "accepting":
            block["accepting"].extend(words[1:])
        elif keyword == "error":
            block["errors"].extend(words[1:])
        else:
            transition = _parse_transition(line, lineno)
            (key,) = transition
            if key in block["transitions"]:
                src, event = key
                raise SpecError(
                    f"line {lineno}: duplicate transition"
                    f" {src!r} -{event}-> (first declared on line"
                    f" {block['tlines'][key]})"
                )
            block["transitions"].update(transition)
            block["tlines"][key] = lineno
    finish()
    if not fsms:
        raise SpecError("no fsm blocks found")
    return fsms


def _parse_transition(line: str, lineno: int) -> dict:
    """``State -event-> State`` lines."""
    parts = line.split()
    if len(parts) != 3 or not (
        parts[1].startswith("-") and parts[1].endswith("->")
    ):
        raise SpecError(
            f"line {lineno}: expected 'State -event-> State', got {line!r}"
        )
    event = parts[1][1:-2]
    if not event:
        raise SpecError(f"line {lineno}: empty event name")
    return {(parts[0], event): parts[2]}


def load_fsm_specs(path: str) -> list[FSM]:
    """Parse FSM specs from a file."""
    with open(path) as f:
        return parse_fsm_specs(f.read())
