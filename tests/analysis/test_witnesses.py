"""Tests for witness extraction on warnings."""

from repro import Checker, Grapple


def run(source, checkers=None):
    return Grapple(source, checkers or [Checker.by_name("io").fsm]).run()


def test_leak_witness_satisfies_branch_condition():
    source = """
    func main(x) {
        var f = new FileWriter();
        f.write(x);
        if (x > 5) {
            f.close();
        }
        return;
    }
    """
    report = run(source).report
    assert len(report) == 1
    witness = report.warnings[0].witness
    assert witness, "expected a concrete witness"
    # The leak path requires x <= 5.
    entry = dict(w.split(" = ") for w in witness)
    assert "main::x" in entry
    assert int(entry["main::x"]) <= 5


def test_error_transition_witness():
    source = """
    func main(x) {
        var f = new FileWriter();
        f.close();
        if (x == 3) {
            f.write(x);
        }
        return;
    }
    """
    report = run(source).report
    errors = [w for w in report.warnings if w.kind == "error-transition"]
    assert errors
    entry = dict(w.split(" = ") for w in errors[0].witness)
    assert entry.get("main::x") == "3"


def test_unconditional_bug_has_empty_or_trivial_witness():
    source = """
    func main() {
        var f = new FileWriter();
        return;
    }
    """
    report = run(source).report
    assert len(report) == 1
    # No inputs constrain the path; witness may be empty but describe()
    # must still work.
    assert "FileWriter" in report.warnings[0].describe()


def test_witness_mentions_only_program_symbols():
    source = """
    func helper(v) {
        var l = new Lock();
        l.lock();
        if (v > 0) {
            l.unlock();
        }
        return;
    }
    func main(a) {
        helper(a);
        return;
    }
    """
    report = run(source, [Checker.by_name("lock").fsm]).report
    assert report.warnings
    for warning in report.warnings:
        for entry in warning.witness:
            name = entry.split(" = ")[0]
            assert "::" in name
            assert "@" not in name
            assert "opaque" not in name


def test_witness_in_describe_output():
    source = """
    func main(x) {
        var f = new FileWriter();
        if (x > 0) {
            f.close();
        }
        return;
    }
    """
    report = run(source).report
    text = report.warnings[0].describe()
    assert "e.g. when" in text


def test_witness_excluded_from_identity():
    from repro.checkers.report import Warning

    a = Warning("io", "at-exit", 0, "FileWriter", "Open", "main", 1,
                witness=("x = 1",))
    b = Warning("io", "at-exit", 0, "FileWriter", "Open", "main", 1,
                witness=("x = 2",))
    assert a == b
