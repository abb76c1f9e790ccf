"""End-to-end tests for nested/interacting exception scenarios."""

from repro import Checker, Grapple

EXCEPTION = Checker.by_name("exception").fsm
IO = Checker.by_name("io").fsm


def run(source, checkers=None):
    return Grapple(source, checkers or [EXCEPTION]).run()


def test_nested_try_inner_catches():
    source = """
    func main() {
        try {
            try {
                var e = new IOException();
                throw e;
            } catch (inner) {
            }
        } catch (outer) {
        }
    }
    """
    assert len(run(source).report) == 0


def test_nested_try_rethrow_caught_by_outer():
    source = """
    func main() {
        try {
            try {
                var e = new IOException();
                throw e;
            } catch (inner) {
                throw inner;
            }
        } catch (outer) {
        }
    }
    """
    assert len(run(source).report) == 0


def test_rethrow_escaping_detected():
    source = """
    func main() {
        try {
            var e = new IOException();
            throw e;
        } catch (inner) {
            throw inner;
        }
    }
    """
    warnings = run(source).report
    assert any(w.state == "Thrown" for w in warnings.warnings)


def test_throw_inside_loop_caught():
    source = """
    func main(n) {
        var i = 0;
        while (i < n) {
            try {
                if (i > 2) {
                    var e = new IOException();
                    throw e;
                }
            } catch (x) {
            }
            i = i + 1;
        }
    }
    """
    assert len(run(source).report) == 0


def test_two_level_call_chain_caught_at_top():
    source = """
    func inner() {
        var e = new TimeoutException();
        throw e;
    }
    func middle() {
        inner();
    }
    func main() {
        try {
            middle();
        } catch (x) {
        }
    }
    """
    assert len(run(source).report) == 0


def test_two_level_call_chain_escapes():
    source = """
    func inner() {
        var e = new TimeoutException();
        throw e;
    }
    func middle() {
        inner();
    }
    func main() {
        middle();
    }
    """
    warnings = run(source).report
    assert any(w.state == "Thrown" and w.func == "inner"
               for w in warnings.warnings)


def test_conditional_throw_only_warns_for_throwing_path():
    """The exception object reaches exit Thrown only when x > 5; the
    witness must satisfy that."""
    source = """
    func main(x) {
        if (x > 5) {
            var e = new IOException();
            throw e;
        }
    }
    """
    warnings = run(source).report.warnings
    assert len(warnings) == 1
    entry = dict(w.split(" = ") for w in warnings[0].witness)
    assert int(entry["main::x"]) > 5


def test_exception_interleaves_with_io_leak():
    """The Figure 8(a)-style interaction: a throw between open and close
    leaks the stream, and the exception itself is caught."""
    source = """
    func risky(x) {
        if (x > 0) {
            var e = new IOException();
            throw e;
        }
    }
    func main(x) {
        var f = new FileWriter();
        try {
            risky(x);
            f.close();
        } catch (err) {
        }
    }
    """
    run_result = run(source, [EXCEPTION, IO])
    by_checker = {w.checker for w in run_result.report.warnings}
    assert by_checker == {"io"}  # leak reported, exception is handled
    io_warnings = run_result.report.by_checker("io")
    assert io_warnings[0].state == "Open"


def test_no_exception_path_closes_normally():
    source = """
    func risky(x) {
        if (x > 0) {
            var e = new IOException();
            throw e;
        }
    }
    func main(x) {
        var f = new FileWriter();
        try {
            risky(x);
        } catch (err) {
        }
        f.close();
    }
    """
    run_result = run(source, [EXCEPTION, IO])
    assert len(run_result.report) == 0


def test_catch_var_aliases_thrown_object():
    """The catch variable must alias the thrown exception object across
    the call boundary (the ExcLink machinery)."""
    source = """
    func thrower() {
        var e = new KeeperException();
        throw e;
    }
    func main() {
        try {
            thrower();
        } catch (caught) {
            caught.log();
        }
    }
    """
    assert len(run(source).report) == 0
