"""Pipeline edge cases: entry-point discovery, empty programs, scoping."""

from repro import Checker, Grapple, GrappleOptions, EngineOptions


def run(source, **opts):
    options = GrappleOptions(**opts) if opts else None
    return Grapple(source, [Checker.by_name("io").fsm], options).run()


def test_program_without_main_uses_uncalled_roots():
    source = """
    func serve_request(x) {
        var f = new FileWriter();
        f.write(x);
        return;
    }
    func healthcheck() {
        var g = new FileWriter();
        g.close();
        return;
    }
    """
    report = run(source).report
    funcs = {w.func for w in report.warnings}
    assert funcs == {"serve_request"}


def test_empty_program_is_clean():
    assert len(run("func main() { }").report) == 0
    assert len(run("func main() { return; }").report) == 0


def test_program_with_no_tracked_types_is_clean():
    source = """
    func main(x) {
        var t = new Thread();
        t.start();
        return;
    }
    """
    assert len(run(source).report) == 0


def test_unreachable_function_still_checked_as_root():
    """A never-called function is an entry point of its own (paper-style
    whole-codebase checking, not main-reachability slicing)."""
    source = """
    func main() { return; }
    func forgotten_helper() {
        var f = new FileWriter();
        return;
    }
    """
    report = run(source).report
    assert {w.func for w in report.warnings} == {"forgotten_helper"}


def test_same_helper_cloned_per_root():
    """Two roots calling one helper get independent clones; the warning
    is deduplicated to one site."""
    source = """
    func leak_helper(x) {
        var f = new FileWriter();
        f.write(x);
        return;
    }
    func service_a(x) { leak_helper(x); return; }
    func service_b(x) { leak_helper(x + 1); return; }
    """
    report = run(source).report
    assert len(report) == 1
    assert report.warnings[0].func == "leak_helper"


def test_unroll_option_respected_end_to_end():
    source = """
    func main(n) {
        var i = 0;
        while (i < n) {
            var f = new FileWriter();
            f.close();
            i = i + 1;
        }
        return;
    }
    """
    for k in (1, 3):
        result = run(source, unroll=k)
        assert len(result.report) == 0


def test_engine_options_flow_through_facade():
    source = "func main() { var f = new FileWriter(); f.close(); }"
    result = run(
        source,
        engine=EngineOptions(memory_budget=4096, enable_cache=False),
    )
    assert result.stats.cache_hits == 0
    assert len(result.report) == 0


def test_recursive_program_terminates():
    source = """
    func walk(n) {
        if (n > 0) {
            walk(n - 1);
        }
        return;
    }
    func main() {
        var f = new FileWriter();
        walk(3);
        f.close();
        return;
    }
    """
    assert len(run(source).report) == 0
