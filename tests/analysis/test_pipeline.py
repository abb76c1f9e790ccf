"""End-to-end pipeline tests on paper examples and small programs."""

import pytest

from repro import Checker, Grapple, run_checker

IO = Checker.by_name("io").fsm
LOCK = Checker.by_name("lock").fsm
EXCEPTION = Checker.by_name("exception").fsm
SOCKET = Checker.by_name("socket").fsm

# Figure 3b: the FileWriter can reach exit still Open when x >= 0, y <= 0.
FIG3B = """
func main(arg0) {
    var out = null;
    var o = null;
    var x = arg0;
    var y = x;
    if (x >= 0) {
        out = new FileWriter();
        o = out;
        y = y - 1;
    } else {
        y = y + 1;
    }
    if (y > 0) {
        out.write(x);
        o.close();
    }
    return;
}
"""


def run(source, checkers):
    return Grapple(source, checkers).run()


def test_fig3b_reports_leak_on_path2_only():
    result = run(FIG3B, [IO])
    warnings = result.report.by_checker("io")
    # One warning: the at-exit leak on the second path.  Crucially NOT an
    # error-transition warning from the infeasible third path.
    assert len(warnings) == 1
    assert warnings[0].kind == "at-exit"
    assert warnings[0].state == "Open"
    assert warnings[0].type_name == "FileWriter"


def test_fig3b_no_error_transition_from_infeasible_path():
    result = run(FIG3B, [IO])
    assert all(
        w.kind != "error-transition" for w in result.report.by_checker("io")
    )


def test_clean_program_reports_nothing():
    source = """
    func main() {
        var f = new FileWriter();
        f.write(1);
        f.close();
    }
    """
    assert len(run(source, [IO]).report) == 0


def test_write_after_close_is_error_transition():
    source = """
    func main() {
        var f = new FileWriter();
        f.close();
        f.write(1);
    }
    """
    warnings = run(source, [IO]).report.by_checker("io")
    assert any(w.kind == "error-transition" for w in warnings)


def test_leak_through_alias_is_closed():
    """Closing through an alias counts (needs the alias analysis)."""
    source = """
    func main() {
        var f = new FileWriter();
        var g = f;
        g.close();
    }
    """
    assert len(run(source, [IO]).report) == 0


def test_leak_via_heap_store_load():
    """Close through a field load of the same heap location counts."""
    source = """
    func main() {
        var box = new Box();
        var f = new FileWriter();
        box.item = f;
        var g = box.item;
        g.close();
    }
    """
    assert len(run(source, [IO]).report) == 0


def test_interprocedural_close():
    source = """
    func shutdown(h) {
        h.close();
    }
    func main() {
        var f = new FileWriter();
        f.write(1);
        shutdown(f);
    }
    """
    assert len(run(source, [IO]).report) == 0


def test_interprocedural_leak_detected():
    source = """
    func use(h) {
        h.write(1);
    }
    func main() {
        var f = new FileWriter();
        use(f);
    }
    """
    warnings = run(source, [IO]).report.by_checker("io")
    assert len(warnings) == 1
    assert warnings[0].kind == "at-exit"


def test_path_sensitive_branch_correlation():
    """Close under the same condition as the open: no leak (needs path
    sensitivity -- a path-insensitive checker would warn)."""
    source = """
    func main(flag) {
        var f = null;
        if (flag > 0) {
            f = new FileWriter();
        }
        if (flag > 0) {
            f.close();
        }
    }
    """
    assert len(run(source, [IO]).report) == 0


def test_path_sensitive_conflicting_branches_error_pruned():
    """write after close guarded by contradictory conditions: no error."""
    source = """
    func main(b) {
        var f = new FileWriter();
        if (b > 0) {
            f.close();
        }
        if (b <= 0) {
            f.write(1);
        }
        f.close();
    }
    """
    warnings = run(source, [IO]).report.by_checker("io")
    assert all(w.kind != "error-transition" for w in warnings)


def test_lock_misorder_detected():
    source = """
    func main() {
        var l = new Lock();
        l.unlock();
        l.lock();
    }
    """
    warnings = run(source, [LOCK]).report.by_checker("lock")
    assert any(w.kind == "error-transition" for w in warnings)


def test_lock_balanced_ok():
    source = """
    func main() {
        var l = new Lock();
        l.lock();
        l.unlock();
    }
    """
    assert len(run(source, [LOCK]).report) == 0


def test_lock_held_at_exit():
    source = """
    func main() {
        var l = new Lock();
        l.lock();
    }
    """
    warnings = run(source, [LOCK]).report.by_checker("lock")
    assert any(w.kind == "at-exit" and w.state == "Locked" for w in warnings)


def test_unhandled_exception_detected():
    source = """
    func main() {
        var e = new IOException();
        throw e;
    }
    """
    warnings = run(source, [EXCEPTION]).report
    assert any(w.state == "Thrown" and w.kind == "at-exit" for w in warnings.warnings)


def test_caught_exception_ok():
    source = """
    func main() {
        try {
            var e = new IOException();
            throw e;
        } catch (x) {
        }
    }
    """
    assert len(run(source, [EXCEPTION]).report) == 0


def test_exception_escaping_callee_caught_in_caller():
    source = """
    func risky() {
        var e = new IOException();
        throw e;
    }
    func main() {
        try {
            risky();
        } catch (x) {
        }
    }
    """
    assert len(run(source, [EXCEPTION]).report) == 0


def test_exception_escaping_to_exit_detected():
    source = """
    func risky() {
        var e = new IOException();
        throw e;
    }
    func main() {
        risky();
    }
    """
    warnings = run(source, [EXCEPTION]).report
    assert any(w.state == "Thrown" for w in warnings.warnings)


def test_socket_leak_detected():
    source = """
    func main() {
        var s = new ServerSocketChannel();
        s.bind(1);
        s.configureBlocking(0);
    }
    """
    warnings = run(source, [SOCKET]).report.by_checker("socket")
    assert any(w.kind == "at-exit" and w.state == "Bound" for w in warnings)


def test_socket_closed_ok():
    source = """
    func main() {
        var s = new ServerSocketChannel();
        s.bind(1);
        s.close();
    }
    """
    assert len(run(source, [SOCKET]).report) == 0


def test_run_checker_facade_all_four():
    source = """
    func main() {
        var f = new FileWriter();
        var l = new Lock();
        l.lock();
        l.unlock();
        f.close();
    }
    """
    report = run_checker(source)
    assert len(report) == 0


def test_multiple_checkers_one_run():
    source = """
    func main() {
        var f = new FileWriter();
        var s = new Socket();
    }
    """
    report = run_checker(source, [IO, SOCKET])
    checkers = {w.checker for w in report.warnings}
    assert checkers == {"io", "socket"}


def test_stats_populated():
    result = run(FIG3B, [IO])
    stats = result.stats
    assert stats.edges_before > 0
    assert stats.edges_after >= stats.edges_before
    assert result.total_time > 0
    assert result.preprocess_time > 0


def test_a_batch_run_lets_the_frontend_go_after_the_alias_graph():
    """Without a scope cache nothing reads the AST, the object facts or
    the call graph after the alias graph is built, so a batch run drops
    them (and the summaries after relevance) before the dataflow
    closure; the ICFET and the forest stay for the report.  A run
    handed a scope cache keeps all of them."""
    from repro.analysis.pipeline import GrappleOptions
    from repro.sa.scopes import ScopeArtifactCache

    sources = {"app.mini": "module app;" + FIG3B}
    batch = Grapple(sources, [IO]).run()
    cached = Grapple(
        sources, [IO], GrappleOptions(scope_cache=ScopeArtifactCache())
    ).run()
    compiled = batch.compiled
    assert compiled.program is compiled.info is compiled.callgraph is None
    assert compiled.summaries == {}
    assert compiled.icfet is not None and len(compiled.forest)
    kept = cached.compiled
    assert list(kept.program.functions) == ["app.main"]
    assert list(kept.callgraph.edges) == ["app.main"]
    assert kept.info is not None and kept.summaries
    assert batch.report.warnings == cached.report.warnings
    assert len(batch.report.warnings) == 1
