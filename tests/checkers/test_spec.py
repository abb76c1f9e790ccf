"""Tests for the FSM specification text format."""

import pytest

from repro import Grapple
from repro.checkers.fsm import FsmError
from repro.checkers.spec import SpecError, load_fsm_specs, parse_fsm_specs

IO_SPEC = """
# A minimal I/O property.
fsm io
types FileWriter FileReader
initial Open
accepting Closed
error Error

Open   -write->  Open
Open   -close->  Closed
Closed -write->  Error
Closed -close->  Closed
"""


def test_parse_single_fsm():
    (fsm,) = parse_fsm_specs(IO_SPEC)
    assert fsm.name == "io"
    assert fsm.types == frozenset({"FileWriter", "FileReader"})
    assert fsm.initial == "Open"
    assert fsm.run(["write", "close"]) == "Closed"
    assert fsm.run(["close", "write"]) == "Error"
    assert fsm.is_error("Error")


def test_parse_multiple_blocks():
    spec = IO_SPEC + """
fsm lock
types Lock
initial Unlocked
accepting Unlocked
error Error
Unlocked -lock-> Locked
Locked -unlock-> Unlocked
Unlocked -unlock-> Error
"""
    fsms = parse_fsm_specs(spec)
    assert [fsm.name for fsm in fsms] == ["io", "lock"]


def test_comments_and_blank_lines_ignored():
    spec = "# header\n\nfsm t\ntypes T # trailing\ninitial A\naccepting A\nA -go-> A\n"
    (fsm,) = parse_fsm_specs(spec)
    assert fsm.step("A", "go") == "A"


def test_missing_initial_rejected():
    with pytest.raises(SpecError, match="initial"):
        parse_fsm_specs("fsm t\ntypes T\naccepting A\nA -go-> A\n")


def test_bad_transition_syntax_rejected():
    with pytest.raises(SpecError, match="State -event-> State"):
        parse_fsm_specs(
            "fsm t\ntypes T\ninitial A\naccepting A\nA goes to B\n"
        )


def test_content_before_block_rejected():
    with pytest.raises(SpecError, match="before any"):
        parse_fsm_specs("types T\n")


def test_empty_spec_rejected():
    with pytest.raises(SpecError, match="no fsm blocks"):
        parse_fsm_specs("# nothing here\n")


def test_unknown_accepting_state_rejected():
    with pytest.raises(SpecError):
        parse_fsm_specs(
            "fsm t\ntypes T\ninitial A\naccepting Ghost\nA -go-> A\n"
        )


def test_spec_fsm_drives_full_pipeline(tmp_path):
    path = tmp_path / "io.fsm"
    path.write_text(IO_SPEC)
    (fsm,) = load_fsm_specs(str(path))
    source = """
    func main(x) {
        var f = new FileWriter();
        f.write(x);
        return;
    }
    """
    report = Grapple(source, [fsm]).run().report
    assert len(report) == 1
    assert report.warnings[0].checker == "io"


def test_cli_spec_flag(tmp_path, capsys):
    from repro.cli import main

    spec_path = tmp_path / "io.fsm"
    spec_path.write_text(IO_SPEC)
    prog_path = tmp_path / "prog.mini"
    prog_path.write_text(
        "func main() { var f = new FileWriter(); f.close(); }"
    )
    code = main(["check", str(prog_path), "--spec", str(spec_path)])
    assert code == 0
    assert "0 warning(s)" in capsys.readouterr().out


LOCK_AS_IO_SPEC = """
fsm io
types Lock
initial Unlocked
accepting Unlocked
Unlocked -lock-> Locked
Locked -unlock-> Unlocked
"""

WRITE_AFTER_CLOSE = """
func main(x) {
    var f = new FileWriter();
    f.close();
    f.write(x);
    var l = new Lock();
    l.lock();
    return;
}
"""


def _check_with_specs(tmp_path, *specs, extra=()):
    from repro.cli import main

    paths = []
    for i, text in enumerate(specs):
        paths += ["--spec", str(tmp_path / f"s{i}.fsm")]
        (tmp_path / f"s{i}.fsm").write_text(text)
    prog_path = tmp_path / "prog.mini"
    prog_path.write_text(WRITE_AFTER_CLOSE)
    return main(["check", str(prog_path), *paths, *extra])


def test_two_specs_may_not_declare_one_fsm_name(tmp_path, capsys):
    """The second ``fsm io`` used to replace the first's events, losing
    the write-after-close error the first one alone reports."""
    (io,) = parse_fsm_specs(IO_SPEC)
    (lock_io,) = parse_fsm_specs(LOCK_AS_IO_SPEC)
    with pytest.raises(FsmError, match="two different fsms are named 'io'"):
        Grapple(WRITE_AFTER_CLOSE, [io, lock_io])
    assert _check_with_specs(tmp_path, IO_SPEC, LOCK_AS_IO_SPEC) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("repro: bad --spec: two different fsms")


def test_two_fsms_may_not_claim_one_type(tmp_path, capsys):
    """The type used to go to the last FSM that claims it, silently."""
    spec = """
fsm first
types FileWriter
initial Open
accepting Closed
error Error
Open -close-> Closed
Closed -write-> Error

fsm second
types FileWriter Lock
initial Open
accepting Open
Open -lock-> Open
"""
    with pytest.raises(FsmError, match="'FileWriter' is claimed by both"):
        Grapple(WRITE_AFTER_CLOSE, parse_fsm_specs(spec))
    assert _check_with_specs(tmp_path, spec) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("repro: bad --spec: type 'FileWriter'")


def test_one_spec_given_twice_checks_as_once(tmp_path, capsys):
    assert _check_with_specs(tmp_path, IO_SPEC) == 1
    once = capsys.readouterr().out
    assert "1 warning(s)" in once
    assert _check_with_specs(tmp_path, IO_SPEC, IO_SPEC) == 1
    assert capsys.readouterr().out == once


def test_spec_excludes_checkers(tmp_path, capsys):
    """``--checkers`` next to ``--spec`` used to be ignored silently."""
    with pytest.raises(SystemExit) as exit_info:
        _check_with_specs(tmp_path, IO_SPEC, extra=["--checkers", "lock"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
